//! # kairos-models
//!
//! Domain model of the Kairos inference-serving system (HPDC'23 reproduction):
//! cloud instance types with prices (paper Table 4), the five production ML
//! models with their QoS targets (Table 3), calibrated latency profiles per
//! (model, instance type) pair, the online latency predictor of Sec. 5.1,
//! heterogeneous-configuration arithmetic (cost, sub-configurations,
//! enumeration of the search space under a budget), and the cloud purchase
//! [`market`] (offerings, time-varying spot prices, preemption processes).
//!
//! ```
//! use kairos_models::{
//!     calibration::paper_calibration,
//!     config::{enumerate_configs, EnumerationOptions, PoolSpec},
//!     instance::ec2,
//!     mlmodel::{spec, ModelKind},
//! };
//!
//! let pool = PoolSpec::new(ec2::paper_pool());
//! let table = paper_calibration();
//! let rm2 = spec(ModelKind::Rm2);
//!
//! // The GPU base type serves the largest query within RM2's 350 ms QoS...
//! let gpu = table.expect(ModelKind::Rm2, "g4dn.xlarge");
//! assert!(gpu.latency_ms(1000) <= rm2.qos_ms);
//!
//! // ...and the configuration search space under the paper's budget is
//! // on the order of a thousand candidates.
//! let configs = enumerate_configs(&pool, &EnumerationOptions::with_budget(2.5));
//! assert!(configs.len() > 100);
//! ```

#![warn(missing_docs)]

pub mod calibration;
pub mod config;
pub mod fault;
pub mod instance;
pub mod latency;
pub mod market;
pub mod mlmodel;
pub mod predictor;
pub mod serverless;
pub mod sharing;
pub mod variant;

pub use config::{
    best_homogeneous, budget_slack_ratio, enumerate_configs, for_each_affordable, Config,
    EnumerationOptions, PoolSpec,
};
pub use fault::{
    FailureDomain, FaultError, FaultEvent, FaultProcess, PurchaseRejected, RejectionCause,
};
pub use instance::{ec2, InstanceClass, InstanceType};
pub use latency::{BatchLatencyGrid, LatencyError, LatencyProfile, LatencyTable, NoiseModel};
pub use market::{
    CatalogError, ConstantMarket, Market, MarketEvent, Offering, OfferingCatalog,
    PreemptionProcess, PriceTrace, PurchaseOption, TraceMarket,
};
pub use mlmodel::{catalog, spec, ModelKind, ModelSpec, MAX_BATCH_SIZE};
pub use predictor::{OnlinePredictor, PredictorBank, ResolvedPredictor};
pub use serverless::{
    ColdStartCost, ColdStartProfile, IdleHistogram, KeepAlivePolicy, ServerlessError,
};
pub use sharing::{SharingError, ThroughputDegradation};
pub use variant::{EffectiveModel, ModelVariant, VariantCatalog, VariantError};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_compose() {
        let pool = PoolSpec::new(ec2::paper_pool());
        let table = calibration::paper_calibration();
        for model in ModelKind::ALL {
            for t in pool.types() {
                assert!(table.get(model, &t.name).is_some());
            }
        }
    }
}
