//! Model variants: the third axis of the Kairos search space.
//!
//! INFaaS's *model-less* abstraction observes that a served model is really a
//! family of interchangeable **variants** — the full-precision reference plus
//! quantized, distilled, or accelerator-compiled derivatives — that trade
//! accuracy for latency and memory.  This module carries that family as data:
//! a [`ModelVariant`] describes one member (its accuracy, memory footprint,
//! and latency relative to the reference), and a validated [`VariantCatalog`]
//! groups the members per [`ModelKind`] with exactly one full-precision
//! *reference* variant per model.
//!
//! The catalogue **lowers** rather than leaks: [`VariantCatalog::effective_models`]
//! flattens (model × variant) into per-variant [`EffectiveModel`] lanes, each
//! with its own concrete [`LatencyTable`], exactly like
//! [`OfferingCatalog::effective_pool`](crate::market::OfferingCatalog::effective_pool)
//! lowers purchase options to a plain pool.  Engines, schedulers, and
//! assignment solvers keep operating on ordinary latency tables and never
//! learn that variants exist.

use crate::latency::{LatencyProfile, LatencyTable};
use crate::mlmodel::{spec, ModelKind};
use std::collections::HashMap;
use std::fmt;

/// Typed construction error for model variants and variant catalogues,
/// mirroring [`CatalogError`](crate::market::CatalogError) /
/// [`LatencyError`](crate::latency::LatencyError): malformed externally
/// supplied variant data is reported, never panicked on.
#[derive(Debug, Clone, PartialEq)]
pub enum VariantError {
    /// The accuracy was not a finite value in (0, 1].
    InvalidAccuracy {
        /// The offending accuracy.
        accuracy: f64,
    },
    /// The memory footprint was zero.
    InvalidMemory {
        /// The offending footprint, in MiB.
        memory_mb: u32,
    },
    /// The latency speedup factor was zero, negative, or not finite.
    InvalidSpeedup {
        /// The offending speedup factor.
        speedup: f64,
    },
    /// A catalogue held no variants at all.
    EmptyCatalog,
    /// Two variants of the same model shared a name.
    DuplicateVariant {
        /// The model both variants derive from.
        base: ModelKind,
        /// The repeated variant name.
        name: String,
    },
    /// A model had no full-precision reference variant.
    NoReference {
        /// The model missing its reference.
        base: ModelKind,
    },
    /// A model had more than one reference variant.
    MultipleReferences {
        /// The over-referenced model.
        base: ModelKind,
    },
    /// A reference variant altered the base latency (a reference must serve
    /// at full precision: unit speedup, no per-type overrides).
    ReferenceNotFullPrecision {
        /// The model whose reference was altered.
        base: ModelKind,
    },
    /// A derived variant claimed higher accuracy than its reference —
    /// quantizing or distilling cannot *gain* accuracy.
    AccuracyAboveReference {
        /// The model the variant derives from.
        base: ModelKind,
        /// The offending variant.
        name: String,
    },
    /// A derived variant claimed a larger memory footprint than its
    /// reference — compression cannot grow the model.
    MemoryAboveReference {
        /// The model the variant derives from.
        base: ModelKind,
        /// The offending variant.
        name: String,
    },
}

impl fmt::Display for VariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VariantError::InvalidAccuracy { accuracy } => {
                write!(f, "accuracy must be finite and in (0, 1], got {accuracy}")
            }
            VariantError::InvalidMemory { memory_mb } => {
                write!(f, "memory footprint must be positive, got {memory_mb} MiB")
            }
            VariantError::InvalidSpeedup { speedup } => {
                write!(f, "speedup must be finite and positive, got {speedup}")
            }
            VariantError::EmptyCatalog => write!(f, "variant catalogue holds no variants"),
            VariantError::DuplicateVariant { base, name } => {
                write!(f, "model {base} declares variant `{name}` twice")
            }
            VariantError::NoReference { base } => {
                write!(f, "model {base} has no full-precision reference variant")
            }
            VariantError::MultipleReferences { base } => {
                write!(f, "model {base} has more than one reference variant")
            }
            VariantError::ReferenceNotFullPrecision { base } => {
                write!(
                    f,
                    "model {base}'s reference variant must keep the base latency \
                     (unit speedup, no per-type overrides)"
                )
            }
            VariantError::AccuracyAboveReference { base, name } => {
                write!(
                    f,
                    "variant `{name}` of model {base} claims higher accuracy than the reference"
                )
            }
            VariantError::MemoryAboveReference { base, name } => {
                write!(
                    f,
                    "variant `{name}` of model {base} claims a larger footprint than the reference"
                )
            }
        }
    }
}

impl std::error::Error for VariantError {}

/// One member of a model's variant family: a concrete servable artifact with
/// its own accuracy, memory footprint, and latency behaviour.
///
/// Latency is expressed *relative to the reference*: a uniform `speedup`
/// factor divides the base profile's coefficients on every instance type,
/// and explicit per-type [`LatencyProfile`] overrides win over the uniform
/// factor (an accelerator-compiled variant is much faster on the GPU type
/// than its uniform factor suggests, say).  The reference variant must keep
/// the base latency exactly (unit speedup, no overrides) so a
/// reference-only catalogue reproduces the un-varianted system bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelVariant {
    /// Variant name, unique within its model family (e.g. `fp32`, `int8`).
    pub name: String,
    /// The model this variant derives from.
    pub base: ModelKind,
    /// Delivered accuracy in (0, 1]; at most the reference's accuracy.
    pub accuracy: f64,
    /// Resident memory footprint in MiB.
    pub memory_mb: u32,
    /// Uniform latency speedup over the reference (2.0 = twice as fast on
    /// every type).  The reference itself has speedup 1.0.
    pub speedup: f64,
    /// Per-instance-type latency overrides, keyed by instance type name.
    /// An override replaces the uniformly scaled profile for that type.
    pub overrides: HashMap<String, LatencyProfile>,
    /// Whether this is the model's full-precision reference variant.
    pub reference: bool,
}

/// Reference memory footprint per model, in MiB — a plausible resident size
/// for each Table 3 architecture, used by the built-in catalogues.
fn reference_memory_mb(kind: ModelKind) -> u32 {
    match kind {
        ModelKind::Ncf => 512,
        ModelKind::Rm2 => 8_192,
        ModelKind::Wnd => 1_024,
        ModelKind::MtWnd => 1_280,
        ModelKind::Dien => 2_048,
    }
}

impl ModelVariant {
    /// Creates a derived (non-reference) variant, validating every field.
    pub fn try_new(
        name: &str,
        base: ModelKind,
        accuracy: f64,
        memory_mb: u32,
        speedup: f64,
    ) -> Result<Self, VariantError> {
        if !accuracy.is_finite() || accuracy <= 0.0 || accuracy > 1.0 {
            return Err(VariantError::InvalidAccuracy { accuracy });
        }
        if memory_mb == 0 {
            return Err(VariantError::InvalidMemory { memory_mb });
        }
        if !speedup.is_finite() || speedup <= 0.0 {
            return Err(VariantError::InvalidSpeedup { speedup });
        }
        Ok(Self {
            name: name.to_string(),
            base,
            accuracy,
            memory_mb,
            speedup,
            overrides: HashMap::new(),
            reference: false,
        })
    }

    /// The full-precision reference variant of a model: the Table 3 accuracy
    /// ([`ModelSpec::accuracy`](crate::mlmodel::ModelSpec::accuracy)), unit
    /// speedup, no overrides.
    pub fn reference(base: ModelKind) -> Self {
        Self {
            name: "fp32".to_string(),
            base,
            accuracy: spec(base).accuracy,
            memory_mb: reference_memory_mb(base),
            speedup: 1.0,
            overrides: HashMap::new(),
            reference: true,
        }
    }

    /// The `model/variant` lane label used in figures and switch logs.
    pub fn lane_name(&self) -> String {
        format!("{}/{}", self.base, self.name)
    }

    /// The variant's latency profile on one instance type, given the
    /// reference profile there: an explicit override if present, otherwise
    /// the reference profile with both coefficients divided by `speedup`.
    /// At unit speedup the reference profile is returned unchanged (bit for
    /// bit), which is what makes reference-only lowering exact.
    pub fn profile_on(&self, instance_name: &str, base_profile: LatencyProfile) -> LatencyProfile {
        if let Some(p) = self.overrides.get(instance_name) {
            return *p;
        }
        if self.speedup == 1.0 {
            return base_profile;
        }
        LatencyProfile {
            intercept_ms: base_profile.intercept_ms / self.speedup,
            slope_ms: base_profile.slope_ms / self.speedup,
        }
    }
}

/// One flattened (model, variant) lane: a synthetic model with its own
/// concrete latency table, ready to drop into a `ServiceSpec` — the
/// lowering output consumed by engines and planners that know nothing about
/// variants.
#[derive(Debug, Clone)]
pub struct EffectiveModel {
    /// The model this lane serves.
    pub base: ModelKind,
    /// The variant's name within the family.
    pub variant: String,
    /// Delivered accuracy of the lane.
    pub accuracy: f64,
    /// Resident memory footprint in MiB.
    pub memory_mb: u32,
    /// Whether this lane serves the full-precision reference.
    pub reference: bool,
    /// The lane's own latency table (entries keyed under `base`).
    pub latency: LatencyTable,
}

impl EffectiveModel {
    /// The `model/variant` lane label used in figures and switch logs.
    pub fn lane_name(&self) -> String {
        format!("{}/{}", self.base, self.variant)
    }
}

/// A validated family-of-variants catalogue: per model, exactly one
/// full-precision reference plus any number of derived variants, each less
/// accurate and no larger than the reference.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantCatalog {
    /// Variants grouped per model, reference first, then accuracy
    /// descending (name as the deterministic tie-break).
    families: Vec<(ModelKind, Vec<ModelVariant>)>,
}

impl VariantCatalog {
    /// Builds a catalogue from a flat variant list, validating the family
    /// structure: at least one variant; per model exactly one reference (at
    /// full precision), unique names, and accuracy/memory monotone vs the
    /// reference.  Families keep [`ModelKind::ALL`] order; variants within
    /// a family are sorted reference-first then accuracy-descending.
    pub fn try_new(variants: Vec<ModelVariant>) -> Result<Self, VariantError> {
        if variants.is_empty() {
            return Err(VariantError::EmptyCatalog);
        }
        for v in &variants {
            // Re-validate fields so hand-built structs go through the same
            // gate as `try_new`-constructed ones.
            if !v.accuracy.is_finite() || v.accuracy <= 0.0 || v.accuracy > 1.0 {
                return Err(VariantError::InvalidAccuracy {
                    accuracy: v.accuracy,
                });
            }
            if v.memory_mb == 0 {
                return Err(VariantError::InvalidMemory {
                    memory_mb: v.memory_mb,
                });
            }
            if !v.speedup.is_finite() || v.speedup <= 0.0 {
                return Err(VariantError::InvalidSpeedup { speedup: v.speedup });
            }
            if v.reference && (v.speedup != 1.0 || !v.overrides.is_empty()) {
                return Err(VariantError::ReferenceNotFullPrecision { base: v.base });
            }
        }
        let mut families: Vec<(ModelKind, Vec<ModelVariant>)> = Vec::new();
        for kind in ModelKind::ALL {
            let family: Vec<ModelVariant> = variants
                .iter()
                .filter(|v| v.base == kind)
                .cloned()
                .collect();
            if family.is_empty() {
                continue;
            }
            for (i, v) in family.iter().enumerate() {
                if family[i + 1..].iter().any(|w| w.name == v.name) {
                    return Err(VariantError::DuplicateVariant {
                        base: kind,
                        name: v.name.clone(),
                    });
                }
            }
            let mut refs = family.iter().filter(|v| v.reference);
            let Some(reference) = refs.next() else {
                return Err(VariantError::NoReference { base: kind });
            };
            if refs.next().is_some() {
                return Err(VariantError::MultipleReferences { base: kind });
            }
            for v in &family {
                if !v.reference && v.accuracy > reference.accuracy {
                    return Err(VariantError::AccuracyAboveReference {
                        base: kind,
                        name: v.name.clone(),
                    });
                }
                if !v.reference && v.memory_mb > reference.memory_mb {
                    return Err(VariantError::MemoryAboveReference {
                        base: kind,
                        name: v.name.clone(),
                    });
                }
            }
            let mut sorted = family;
            sorted.sort_by(|a, b| {
                b.reference
                    .cmp(&a.reference)
                    .then(b.accuracy.total_cmp(&a.accuracy))
                    .then(a.name.cmp(&b.name))
            });
            families.push((kind, sorted));
        }
        Ok(Self { families })
    }

    /// A catalogue holding only each model's full-precision reference — the
    /// degenerate family under which every variant-aware component must
    /// reproduce the un-varianted system bit for bit.
    pub fn reference_only(models: &[ModelKind]) -> Self {
        Self::try_new(models.iter().map(|&k| ModelVariant::reference(k)).collect())
            .expect("reference variants are always valid")
    }

    /// The demonstration catalogue used by figures and examples: per model,
    /// the full-precision reference plus an `int8` post-training-quantized
    /// variant (~1.5 points of accuracy for ~1.8x speed) and a `distilled`
    /// student (~4 points for ~2.8x).
    pub fn paper_variants() -> Self {
        let mut variants = Vec::new();
        for kind in ModelKind::ALL {
            let reference = ModelVariant::reference(kind);
            let int8 = ModelVariant::try_new(
                "int8",
                kind,
                reference.accuracy - 0.015,
                (reference.memory_mb / 4).max(1),
                1.8,
            )
            .expect("int8 variant is valid");
            let distilled = ModelVariant::try_new(
                "distilled",
                kind,
                reference.accuracy - 0.04,
                (reference.memory_mb / 8).max(1),
                2.8,
            )
            .expect("distilled variant is valid");
            variants.push(reference);
            variants.push(int8);
            variants.push(distilled);
        }
        Self::try_new(variants).expect("the demonstration catalogue is valid")
    }

    /// The models with a family in this catalogue, in [`ModelKind::ALL`]
    /// order.
    pub fn models(&self) -> Vec<ModelKind> {
        self.families.iter().map(|(k, _)| *k).collect()
    }

    /// A model's family, reference first then accuracy descending; empty if
    /// the catalogue does not cover the model.
    pub fn variants_for(&self, base: ModelKind) -> &[ModelVariant] {
        self.families
            .iter()
            .find(|(k, _)| *k == base)
            .map(|(_, f)| f.as_slice())
            .unwrap_or(&[])
    }

    /// A model's full-precision reference variant, if the catalogue covers
    /// the model.
    pub fn reference(&self, base: ModelKind) -> Option<&ModelVariant> {
        self.variants_for(base).iter().find(|v| v.reference)
    }

    /// Total number of variants across all families.
    pub fn len(&self) -> usize {
        self.families.iter().map(|(_, f)| f.len()).sum()
    }

    /// Whether the catalogue is empty (it never is: construction rejects
    /// empty input).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// **The lowering step.**  Flattens (model × variant) into synthetic
    /// per-variant model lanes: every lane carries its own concrete
    /// [`LatencyTable`] derived from `base` (the calibrated reference
    /// table), with the variant's uniform speedup applied per type and
    /// explicit overrides winning.  Downstream engines, schedulers, and
    /// assignment solvers consume the lanes as ordinary models and run
    /// unchanged — the exact trick
    /// [`OfferingCatalog::effective_pool`](crate::market::OfferingCatalog::effective_pool)
    /// plays for purchase options.
    ///
    /// Lanes come out family by family in [`ModelKind::ALL`] order,
    /// reference lane first within each family.  A reference lane's table is
    /// a verbatim copy of the base table's entries for its model.
    pub fn effective_models(&self, base: &LatencyTable) -> Vec<EffectiveModel> {
        let mut lanes = Vec::with_capacity(self.len());
        for (kind, family) in &self.families {
            // The base table's entries for this model, in deterministic
            // (sorted-by-type-name) order.
            let mut entries: Vec<(&str, LatencyProfile)> = base
                .iter()
                .filter(|(m, _, _)| m == kind)
                .map(|(_, n, p)| (n, p))
                .collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            for variant in family {
                let mut latency = LatencyTable::new();
                for &(name, profile) in &entries {
                    latency.insert(*kind, name, variant.profile_on(name, profile));
                }
                lanes.push(EffectiveModel {
                    base: *kind,
                    variant: variant.name.clone(),
                    accuracy: variant.accuracy,
                    memory_mb: variant.memory_mb,
                    reference: variant.reference,
                    latency,
                });
            }
        }
        lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::paper_calibration;
    use crate::instance::ec2;

    fn pool_names() -> Vec<String> {
        ec2::paper_pool().into_iter().map(|t| t.name).collect()
    }

    #[test]
    fn reference_variant_carries_the_published_accuracy() {
        for kind in ModelKind::ALL {
            let r = ModelVariant::reference(kind);
            assert!(r.reference);
            assert_eq!(r.accuracy, spec(kind).accuracy);
            assert_eq!(r.speedup, 1.0);
            assert!(r.overrides.is_empty());
        }
    }

    #[test]
    fn try_new_rejects_malformed_fields() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(matches!(
                ModelVariant::try_new("x", ModelKind::Wnd, bad, 64, 2.0),
                Err(VariantError::InvalidAccuracy { .. })
            ));
        }
        assert!(matches!(
            ModelVariant::try_new("x", ModelKind::Wnd, 0.9, 0, 2.0),
            Err(VariantError::InvalidMemory { .. })
        ));
        for bad in [0.0, -1.0, f64::INFINITY] {
            assert!(matches!(
                ModelVariant::try_new("x", ModelKind::Wnd, 0.9, 64, bad),
                Err(VariantError::InvalidSpeedup { .. })
            ));
        }
        assert!(ModelVariant::try_new("x", ModelKind::Wnd, 0.9, 64, 2.0).is_ok());
    }

    #[test]
    fn catalog_enforces_the_family_structure() {
        assert_eq!(
            VariantCatalog::try_new(Vec::new()),
            Err(VariantError::EmptyCatalog)
        );
        // No reference.
        let derived = ModelVariant::try_new("int8", ModelKind::Wnd, 0.9, 64, 2.0).unwrap();
        assert_eq!(
            VariantCatalog::try_new(vec![derived.clone()]),
            Err(VariantError::NoReference {
                base: ModelKind::Wnd
            })
        );
        // Two references.
        assert_eq!(
            VariantCatalog::try_new(vec![
                ModelVariant::reference(ModelKind::Wnd),
                ModelVariant::reference(ModelKind::Wnd),
            ]),
            Err(VariantError::DuplicateVariant {
                base: ModelKind::Wnd,
                name: "fp32".to_string()
            })
        );
        let mut second = ModelVariant::reference(ModelKind::Wnd);
        second.name = "fp32-copy".to_string();
        assert_eq!(
            VariantCatalog::try_new(vec![ModelVariant::reference(ModelKind::Wnd), second]),
            Err(VariantError::MultipleReferences {
                base: ModelKind::Wnd
            })
        );
        // Duplicate derived names.
        assert_eq!(
            VariantCatalog::try_new(vec![
                ModelVariant::reference(ModelKind::Wnd),
                derived.clone(),
                derived.clone(),
            ]),
            Err(VariantError::DuplicateVariant {
                base: ModelKind::Wnd,
                name: "int8".to_string()
            })
        );
        // A tampered reference (speedup != 1) is rejected.
        let mut fast_ref = ModelVariant::reference(ModelKind::Wnd);
        fast_ref.speedup = 2.0;
        assert_eq!(
            VariantCatalog::try_new(vec![fast_ref]),
            Err(VariantError::ReferenceNotFullPrecision {
                base: ModelKind::Wnd
            })
        );
        // Accuracy above the reference is rejected.
        let eager = ModelVariant::try_new("magic", ModelKind::Wnd, 0.999, 64, 2.0).unwrap();
        assert_eq!(
            VariantCatalog::try_new(vec![ModelVariant::reference(ModelKind::Wnd), eager]),
            Err(VariantError::AccuracyAboveReference {
                base: ModelKind::Wnd,
                name: "magic".to_string()
            })
        );
        // Memory above the reference is rejected.
        let bloated = ModelVariant::try_new("bloat", ModelKind::Wnd, 0.9, 1_000_000, 2.0).unwrap();
        assert_eq!(
            VariantCatalog::try_new(vec![ModelVariant::reference(ModelKind::Wnd), bloated]),
            Err(VariantError::MemoryAboveReference {
                base: ModelKind::Wnd,
                name: "bloat".to_string()
            })
        );
        // A well-formed family validates and sorts reference-first.
        let ok = VariantCatalog::try_new(vec![derived, ModelVariant::reference(ModelKind::Wnd)])
            .unwrap();
        assert_eq!(ok.len(), 2);
        assert!(ok.variants_for(ModelKind::Wnd)[0].reference);
        assert_eq!(ok.reference(ModelKind::Wnd).unwrap().name, "fp32");
    }

    #[test]
    fn effective_models_lower_reference_lanes_verbatim() {
        let table = paper_calibration();
        let catalog = VariantCatalog::reference_only(&ModelKind::ALL);
        let lanes = catalog.effective_models(&table);
        assert_eq!(lanes.len(), 5);
        for (lane, kind) in lanes.iter().zip(ModelKind::ALL) {
            assert_eq!(lane.base, kind);
            assert!(lane.reference);
            for name in pool_names() {
                let base = table.expect(kind, &name);
                let lowered = lane.latency.expect(kind, &name);
                assert_eq!(base.intercept_ms.to_bits(), lowered.intercept_ms.to_bits());
                assert_eq!(base.slope_ms.to_bits(), lowered.slope_ms.to_bits());
            }
        }
    }

    #[test]
    fn effective_models_scale_derived_lanes_and_apply_overrides() {
        let table = paper_calibration();
        let mut compiled =
            ModelVariant::try_new("compiled", ModelKind::Wnd, 0.95, 128, 2.0).unwrap();
        compiled
            .overrides
            .insert("g4dn.xlarge".into(), LatencyProfile::new(0.125, 0.001));
        let catalog =
            VariantCatalog::try_new(vec![ModelVariant::reference(ModelKind::Wnd), compiled])
                .unwrap();
        let lanes = catalog.effective_models(&table);
        assert_eq!(lanes.len(), 2);
        let lane = &lanes[1];
        assert_eq!(lane.variant, "compiled");
        assert_eq!(lane.lane_name(), "WND/compiled");
        // Overridden type: the explicit profile wins.
        let gpu = lane.latency.expect(ModelKind::Wnd, "g4dn.xlarge");
        assert_eq!(gpu.intercept_ms, 0.125);
        assert_eq!(gpu.slope_ms, 0.001);
        // Non-overridden types: uniformly scaled by 1/speedup.
        let base = table.expect(ModelKind::Wnd, "r5n.large");
        let scaled = lane.latency.expect(ModelKind::Wnd, "r5n.large");
        assert!((scaled.intercept_ms - base.intercept_ms / 2.0).abs() < 1e-12);
        assert!((scaled.slope_ms - base.slope_ms / 2.0).abs() < 1e-12);
    }

    #[test]
    fn paper_variants_catalogue_is_valid_and_ordered() {
        let catalog = VariantCatalog::paper_variants();
        assert_eq!(catalog.models(), ModelKind::ALL.to_vec());
        assert_eq!(catalog.len(), 15);
        assert!(!catalog.is_empty());
        for kind in ModelKind::ALL {
            let family = catalog.variants_for(kind);
            assert_eq!(family.len(), 3);
            assert!(family[0].reference);
            // Accuracy strictly descends: fp32 > int8 > distilled.
            assert!(family[0].accuracy > family[1].accuracy);
            assert!(family[1].accuracy > family[2].accuracy);
            assert_eq!(family[1].name, "int8");
            assert_eq!(family[2].name, "distilled");
        }
    }
}
