//! Inference queries.
//!
//! A *query* is a batch of individual inference requests submitted together
//! (paper Sec. 3/4): its scheduler-relevant attributes are the target model,
//! the batch size and the arrival time.  Simulator time is expressed in
//! integer microseconds for determinism.
//!
//! # Model identity
//!
//! Multi-model serving tags every query with a [`ModelId`] — a *compact
//! interned index*, not a string.  The id is an index into whatever
//! model table the surrounding system maintains (the simulator's service
//! catalogue, `kairos_core`'s `InferenceService` lanes), so hot-path lookups
//! keyed by model are array indexing, never string hashing.  Single-model
//! deployments use [`ModelId::DEFAULT`] throughout; [`Query::new`] is the
//! single-model constructor and behaves exactly as it did before models were
//! first-class.

/// Virtual time in microseconds.
pub type TimeUs = u64;

/// Compact interned identity of a served model: an index into the model
/// table of the surrounding system (service catalogue, controller lanes).
///
/// `ModelId` is deliberately *not* a model name — resolving metadata (QoS
/// target, latency profiles) is an array index wherever it appears on a hot
/// path.  Ids are dense and assigned by the component that owns the model
/// list, in list order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ModelId(pub u16);

impl ModelId {
    /// The model id of single-model deployments (index 0).
    pub const DEFAULT: ModelId = ModelId(0);

    /// Builds an id from a dense table index.
    ///
    /// # Panics
    /// Panics if the index does not fit the compact representation.
    pub fn new(index: usize) -> Self {
        assert!(index <= u16::MAX as usize, "model index {index} too large");
        ModelId(index as u16)
    }

    /// The table index this id stands for.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// One inference query: a batch of requests for one model arriving at a
/// point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    /// Unique, monotonically increasing identifier.
    pub id: u64,
    /// The model this query must be served by.
    pub model: ModelId,
    /// Number of requests batched into this query (1..=1000 in the paper).
    pub batch_size: u32,
    /// Arrival time at the serving system, in virtual microseconds.
    pub arrival_us: TimeUs,
}

impl Query {
    /// Creates a single-model query (model [`ModelId::DEFAULT`]).
    ///
    /// # Panics
    /// Panics if the batch size is zero.
    pub fn new(id: u64, batch_size: u32, arrival_us: TimeUs) -> Self {
        Self::for_model(id, ModelId::DEFAULT, batch_size, arrival_us)
    }

    /// Creates a query tagged with the model it must be served by.
    ///
    /// # Panics
    /// Panics if the batch size is zero.
    pub fn for_model(id: u64, model: ModelId, batch_size: u32, arrival_us: TimeUs) -> Self {
        assert!(batch_size >= 1, "batch size must be at least 1");
        Self {
            id,
            model,
            batch_size,
            arrival_us,
        }
    }

    /// Time this query has already spent waiting at `now` (the `W_i` term of
    /// the QoS constraint, paper Eq. 3).
    pub fn waiting_time_us(&self, now: TimeUs) -> TimeUs {
        now.saturating_sub(self.arrival_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiting_time_is_elapsed_since_arrival() {
        let q = Query::new(1, 32, 1_000);
        assert_eq!(q.waiting_time_us(1_500), 500);
        assert_eq!(q.waiting_time_us(1_000), 0);
        // Clock never went backwards, but guard against underflow anyway.
        assert_eq!(q.waiting_time_us(500), 0);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_rejected() {
        Query::new(1, 0, 0);
    }

    #[test]
    fn default_constructor_uses_the_default_model() {
        assert_eq!(Query::new(1, 32, 0).model, ModelId::DEFAULT);
        let tagged = Query::for_model(2, ModelId::new(3), 16, 10);
        assert_eq!(tagged.model.index(), 3);
        assert_eq!(tagged.model.to_string(), "m3");
    }

    #[test]
    #[should_panic(expected = "model index")]
    fn oversized_model_index_rejected() {
        ModelId::new(usize::MAX);
    }
}
