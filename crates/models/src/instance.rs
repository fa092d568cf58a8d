//! Cloud compute instance types (paper Table 4).
//!
//! The paper builds its heterogeneous pool from four AWS EC2 instance types,
//! one per compute class, all sized to 16 GB of memory so every type can host
//! a model replica.  The GPU type (`g4dn.xlarge`) is the *base* instance: the
//! only type that meets QoS for every batch size.  The CPU types are
//! *auxiliary* instances that are cheaper but can only serve smaller batches
//! within QoS.

use std::fmt;

/// Compute class of an instance type (EC2 instance families).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceClass {
    /// GPU-accelerated computing (e.g. `g4dn`).
    AcceleratedComputing,
    /// Compute-optimized CPU (e.g. `c5n`).
    ComputeOptimized,
    /// Memory-optimized CPU (e.g. `r5n`).
    MemoryOptimized,
    /// General-purpose CPU (e.g. `t3`).
    GeneralPurpose,
}

impl fmt::Display for InstanceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstanceClass::AcceleratedComputing => "accelerated-computing",
            InstanceClass::ComputeOptimized => "compute-optimized",
            InstanceClass::MemoryOptimized => "memory-optimized",
            InstanceClass::GeneralPurpose => "general-purpose",
        };
        f.write_str(s)
    }
}

/// A rentable cloud instance type with its pay-as-you-go price.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceType {
    /// Cloud provider name of the type, e.g. `g4dn.xlarge`.
    pub name: String,
    /// Compute class of the type.
    pub class: InstanceClass,
    /// On-demand price in dollars per hour.
    pub price_per_hour: f64,
    /// Whether this type is the *base* type of the pool (meets QoS for every
    /// batch size; the paper uses exactly one base type).
    pub is_base: bool,
}

impl InstanceType {
    /// Creates a new instance type description, validating the price.
    /// This is the non-panicking constructor the offering catalog uses when
    /// ingesting externally supplied (possibly malformed) price data.
    pub fn try_new(
        name: &str,
        class: InstanceClass,
        price_per_hour: f64,
        is_base: bool,
    ) -> Result<Self, crate::market::CatalogError> {
        if !(price_per_hour.is_finite() && price_per_hour > 0.0) {
            return Err(crate::market::CatalogError::InvalidPrice {
                price: price_per_hour,
            });
        }
        Ok(Self {
            name: name.to_string(),
            class,
            price_per_hour,
            is_base,
        })
    }

    /// Creates a new instance type description.
    ///
    /// # Panics
    /// Panics if the price is not strictly positive and finite (use
    /// [`InstanceType::try_new`] for a fallible path).
    pub fn new(name: &str, class: InstanceClass, price_per_hour: f64, is_base: bool) -> Self {
        Self::try_new(name, class, price_per_hour, is_base).expect("price must be positive")
    }

    /// Hourly price of `count` instances of this type.
    pub fn cost_of(&self, count: usize) -> f64 {
        self.price_per_hour * count as f64
    }
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, ${:.4}/hr)",
            self.name, self.class, self.price_per_hour
        )
    }
}

/// Identifiers of the four instance types used throughout the paper's
/// evaluation (Sec. 7, Table 4).  The shorthand names (G1, C1, C2, C3) follow
/// the paper's Fig. 1 legend.
pub mod ec2 {
    use super::*;

    /// `g4dn.xlarge` — NVIDIA T4 GPU, the base instance type (G1).
    pub fn g4dn_xlarge() -> InstanceType {
        InstanceType::new(
            "g4dn.xlarge",
            InstanceClass::AcceleratedComputing,
            0.526,
            true,
        )
    }

    /// `c5n.2xlarge` — compute-optimized CPU auxiliary type (C1).
    pub fn c5n_2xlarge() -> InstanceType {
        InstanceType::new("c5n.2xlarge", InstanceClass::ComputeOptimized, 0.432, false)
    }

    /// `r5n.large` — memory-optimized CPU auxiliary type (C2).
    pub fn r5n_large() -> InstanceType {
        InstanceType::new("r5n.large", InstanceClass::MemoryOptimized, 0.149, false)
    }

    /// `t3.xlarge` — general-purpose CPU auxiliary type (C3).
    pub fn t3_xlarge() -> InstanceType {
        InstanceType::new("t3.xlarge", InstanceClass::GeneralPurpose, 0.1664, false)
    }

    /// The full four-type heterogeneous pool of Table 4, base type first.
    pub fn paper_pool() -> Vec<InstanceType> {
        vec![g4dn_xlarge(), c5n_2xlarge(), r5n_large(), t3_xlarge()]
    }

    /// The reduced three-type pool used in Fig. 1 (G1, C1, C2).
    pub fn figure1_pool() -> Vec<InstanceType> {
        vec![g4dn_xlarge(), c5n_2xlarge(), r5n_large()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_prices_match_paper() {
        assert_eq!(ec2::g4dn_xlarge().price_per_hour, 0.526);
        assert_eq!(ec2::c5n_2xlarge().price_per_hour, 0.432);
        assert_eq!(ec2::r5n_large().price_per_hour, 0.149);
        assert_eq!(ec2::t3_xlarge().price_per_hour, 0.1664);
    }

    #[test]
    fn only_gpu_is_base() {
        let pool = ec2::paper_pool();
        assert_eq!(pool.len(), 4);
        assert!(pool[0].is_base);
        assert!(pool[1..].iter().all(|t| !t.is_base));
        assert_eq!(pool[0].class, InstanceClass::AcceleratedComputing);
    }

    #[test]
    fn cost_of_scales_linearly() {
        let g1 = ec2::g4dn_xlarge();
        assert!((g1.cost_of(4) - 2.104).abs() < 1e-9);
        assert_eq!(g1.cost_of(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "price must be positive")]
    fn rejects_nonpositive_price() {
        InstanceType::new("bad", InstanceClass::GeneralPurpose, 0.0, false);
    }

    #[test]
    fn try_new_reports_bad_prices_without_panicking() {
        use crate::market::CatalogError;
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = InstanceType::try_new("bad", InstanceClass::GeneralPurpose, bad, false)
                .unwrap_err();
            match err {
                CatalogError::InvalidPrice { price } => {
                    assert!(price == bad || (price.is_nan() && bad.is_nan()))
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
        let ok = InstanceType::try_new("fine", InstanceClass::GeneralPurpose, 0.5, false);
        assert_eq!(ok.unwrap().price_per_hour, 0.5);
    }

    #[test]
    fn display_is_readable() {
        let s = format!("{}", ec2::r5n_large());
        assert!(s.contains("r5n.large"));
        assert!(s.contains("memory-optimized"));
    }

    #[test]
    fn figure1_pool_is_three_types() {
        let pool = ec2::figure1_pool();
        assert_eq!(pool.len(), 3);
        assert_eq!(pool[2].name, "r5n.large");
    }
}
