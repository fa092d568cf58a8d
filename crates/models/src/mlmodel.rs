//! Machine-learning inference service models and QoS targets (paper Table 3).
//!
//! Kairos is evaluated on five industry-grade recommendation models whose QoS
//! targets (99th-percentile tail latency) are taken from the real services
//! they power.  The model *architectures* are irrelevant to the scheduler —
//! only their latency profiles on each instance type matter — so this module
//! carries the metadata and the maximum batch size, while
//! [`crate::calibration`] carries the latency behaviour.

use std::fmt;

/// Maximum query batch size admitted by the system (paper Sec. 5.1: "we limit
/// the maximum batch size of a query to 1000 because of QoS constraints").
pub const MAX_BATCH_SIZE: u32 = 1000;

/// The five production models of the paper's evaluation (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Neural Collaborative Filtering — movie recommendation, 5 ms QoS.
    Ncf,
    /// Meta's recommendation model class 2 — social-media post ranking, 350 ms QoS.
    Rm2,
    /// Google Wide & Deep — app-store recommendation, 25 ms QoS.
    Wnd,
    /// Multi-Task Wide & Deep — video recommendation, 25 ms QoS.
    MtWnd,
    /// Alibaba Deep Interest Evolution Network — e-commerce CTR, 35 ms QoS.
    Dien,
}

impl ModelKind {
    /// All five models in the order the paper's figures present them.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::Ncf,
        ModelKind::Rm2,
        ModelKind::Wnd,
        ModelKind::MtWnd,
        ModelKind::Dien,
    ];

    /// Short display name as used in the paper's figures.
    pub fn short_name(&self) -> &'static str {
        match self {
            ModelKind::Ncf => "NCF",
            ModelKind::Rm2 => "RM2",
            ModelKind::Wnd => "WND",
            ModelKind::MtWnd => "MT-WND",
            ModelKind::Dien => "DIEN",
        }
    }

    /// QoS target of the model in (virtual) microseconds — the Table 3
    /// 99th-percentile tail-latency limit in the unit the simulator uses.
    /// Shorthand for `spec(kind).qos_us()` so benches and examples need not
    /// materialize a full [`ModelSpec`] for a QoS lookup.
    pub fn qos_us(&self) -> u64 {
        spec(*self).qos_us()
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

impl std::str::FromStr for ModelKind {
    type Err = String;

    /// Parses the short figure name (case-insensitive), round-tripping with
    /// [`ModelKind::short_name`] / `Display`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelKind::ALL
            .iter()
            .find(|k| k.short_name().eq_ignore_ascii_case(s))
            .copied()
            .ok_or_else(|| format!("unknown model `{s}` (expected one of NCF/RM2/WND/MT-WND/DIEN)"))
    }
}

/// Full description of an inference service model: identity, QoS target and
/// the application it serves (Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Which of the five paper models this is.
    pub kind: ModelKind,
    /// Human-readable description of the model architecture.
    pub description: String,
    /// Application the model powers.
    pub application: String,
    /// QoS target: the 99th-percentile tail latency limit, in milliseconds.
    pub qos_ms: f64,
    /// Largest admissible query batch size.
    pub max_batch_size: u32,
    /// Reference (full-precision) serving accuracy of the model, in (0, 1].
    /// Variant catalogues ([`crate::variant`]) express every quantized or
    /// distilled variant's accuracy relative to this published number.
    pub accuracy: f64,
}

impl ModelSpec {
    /// Returns the QoS target in (virtual) microseconds — the unit used by the
    /// discrete-event simulator.
    pub fn qos_us(&self) -> u64 {
        (self.qos_ms * 1000.0).round() as u64
    }
}

/// Returns the Table 3 specification for a model.
pub fn spec(kind: ModelKind) -> ModelSpec {
    match kind {
        ModelKind::Ncf => ModelSpec {
            kind,
            description: "Neural Collaborative Filtering".to_string(),
            application: "Movie recommendation".to_string(),
            qos_ms: 5.0,
            max_batch_size: MAX_BATCH_SIZE,
            accuracy: 0.975,
        },
        ModelKind::Rm2 => ModelSpec {
            kind,
            description: "Meta's recommendation model class 2".to_string(),
            application: "High-accuracy social media posts ranking".to_string(),
            qos_ms: 350.0,
            max_batch_size: MAX_BATCH_SIZE,
            accuracy: 0.985,
        },
        ModelKind::Wnd => ModelSpec {
            kind,
            description: "Google Wide and Deep recommender system".to_string(),
            application: "Google App Store".to_string(),
            qos_ms: 25.0,
            max_batch_size: MAX_BATCH_SIZE,
            accuracy: 0.962,
        },
        ModelKind::MtWnd => ModelSpec {
            kind,
            description: "Multi-Task Wide and Deep, predicts multiple metrics in parallel"
                .to_string(),
            application: "YouTube video recommendation".to_string(),
            qos_ms: 25.0,
            max_batch_size: MAX_BATCH_SIZE,
            accuracy: 0.958,
        },
        ModelKind::Dien => ModelSpec {
            kind,
            description: "Alibaba Deep Interest Evolution Network".to_string(),
            application: "E-commerce".to_string(),
            qos_ms: 35.0,
            max_batch_size: MAX_BATCH_SIZE,
            accuracy: 0.968,
        },
    }
}

/// Returns the Table 3 catalogue of all five models.
pub fn catalog() -> Vec<ModelSpec> {
    ModelKind::ALL.iter().map(|k| spec(*k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_qos_targets_match_paper() {
        assert_eq!(spec(ModelKind::Ncf).qos_ms, 5.0);
        assert_eq!(spec(ModelKind::Rm2).qos_ms, 350.0);
        assert_eq!(spec(ModelKind::Wnd).qos_ms, 25.0);
        assert_eq!(spec(ModelKind::MtWnd).qos_ms, 25.0);
        assert_eq!(spec(ModelKind::Dien).qos_ms, 35.0);
    }

    #[test]
    fn qos_microsecond_conversion() {
        assert_eq!(spec(ModelKind::Ncf).qos_us(), 5_000);
        assert_eq!(spec(ModelKind::Rm2).qos_us(), 350_000);
    }

    #[test]
    fn catalog_has_five_unique_models() {
        let cat = catalog();
        assert_eq!(cat.len(), 5);
        let mut kinds: Vec<_> = cat.iter().map(|s| s.kind).collect();
        kinds.dedup();
        assert_eq!(kinds.len(), 5);
    }

    #[test]
    fn batch_size_cap_is_1000() {
        for m in catalog() {
            assert_eq!(m.max_batch_size, 1000);
        }
    }

    #[test]
    fn short_names_match_figures() {
        let names: Vec<_> = ModelKind::ALL.iter().map(|k| k.short_name()).collect();
        assert_eq!(names, vec!["NCF", "RM2", "WND", "MT-WND", "DIEN"]);
    }

    #[test]
    fn display_from_str_round_trips_for_all_models() {
        for kind in ModelKind::ALL {
            let parsed: ModelKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
            // Case-insensitive parsing.
            let lower: ModelKind = kind.short_name().to_lowercase().parse().unwrap();
            assert_eq!(lower, kind);
            // The round trip lands on the same spec, reference accuracy
            // included, and every published accuracy is a sane (0, 1] value.
            let round = spec(parsed);
            assert_eq!(round, spec(kind));
            assert_eq!(round.accuracy.to_bits(), spec(kind).accuracy.to_bits());
            assert!(round.accuracy > 0.0 && round.accuracy <= 1.0);
        }
        assert!("resnet".parse::<ModelKind>().is_err());
    }

    #[test]
    fn kind_level_qos_shorthand_matches_the_spec() {
        for kind in ModelKind::ALL {
            assert_eq!(kind.qos_us(), spec(kind).qos_us());
        }
        assert_eq!(ModelKind::Ncf.qos_us(), 5_000);
        assert_eq!(ModelKind::Rm2.qos_us(), 350_000);
    }
}
