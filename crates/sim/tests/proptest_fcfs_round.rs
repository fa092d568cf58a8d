//! Property tests: the in-place FCFS round against the copy-and-sort round
//! it replaced.
//!
//! [`SortedFcfs`] is the old round verbatim: it copies the usable idle
//! prefix, sorts it by `(!is_base, instance_index)` and hands each queued
//! query the first untaken slot bound to its model.  `FcfsScheduler` reads
//! the same prefix in place, in two passes, and must return the identical
//! dispatch list on every random context: 1–3 models, mixed base and
//! auxiliary types, busy and non-accepting instances, a provisioning tail
//! after the usable prefix, queues shorter and longer than the idle set, and
//! model mismatches that force skips.  Contexts are built the way the engine
//! builds them: the usable prefix in instance-index order (its views keep
//! the past time they went idle, unclamped), then the provisioning tail by
//! `(boundary, instance_index)`.  Every case runs several rounds on one
//! pair of schedulers so their reused buffers see differently sized rounds.

use kairos_sim::{Dispatch, FcfsScheduler, InstanceView, Scheduler, SchedulingContext};
use kairos_workload::{ModelId, Query, TimeUs};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The FCFS round as it was before the in-place rewrite.
#[derive(Default)]
struct SortedFcfs {
    order: Vec<u32>,
    taken: Vec<u64>,
    generation: u64,
}

impl Scheduler for SortedFcfs {
    fn name(&self) -> &'static str {
        "fcfs-sorted"
    }

    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> Vec<Dispatch> {
        let mut out = Vec::new();
        self.schedule_into(ctx, &mut out);
        out
    }

    fn schedule_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<Dispatch>) {
        self.order.clear();
        self.order.extend_from_slice(ctx.idle_now());
        self.order
            .sort_unstable_by_key(|&i| (!ctx.instances[i as usize].is_base, i));
        self.generation += 1;
        if self.taken.len() < self.order.len() {
            self.taken.resize(self.order.len(), 0);
        }
        let mut free_slots = self.order.len();
        let mut start = 0usize;
        for (query_index, query) in ctx.queued.iter().enumerate() {
            if free_slots == 0 {
                break;
            }
            while start < self.order.len() && self.taken[start] == self.generation {
                start += 1;
            }
            let slot = self.order[start..].iter().enumerate().find(|&(off, &i)| {
                self.taken[start + off] != self.generation
                    && ctx.instances[i as usize].model == query.model
            });
            if let Some((off, &i)) = slot {
                self.taken[start + off] = self.generation;
                free_slots -= 1;
                out.push(Dispatch {
                    query_index,
                    instance_index: i as usize,
                });
            }
        }
    }
}

const NOW_US: TimeUs = 500_000;

/// A random round's inputs: views plus the engine-ordered idle index.
struct Round {
    queued: Vec<Query>,
    views: Vec<InstanceView>,
    idle: Vec<u32>,
}

fn random_round(rng: &mut StdRng, models: usize, instances: usize, queue: usize) -> Round {
    let base_share = rng.gen_range(0.0..1.0);
    let mut usable = Vec::new();
    let mut pending = Vec::new();
    let views = (0..instances)
        .map(|instance_index| {
            let is_base = rng.gen_bool(base_share);
            let accepting = rng.gen_bool(0.9);
            // 0: idle and usable, 1: busy, 2: still provisioning.
            let state = rng.gen_range(0..3u32);
            let (free_at_us, backlog) = match state {
                0 => (NOW_US - rng.gen_range(0..50_000u64), 0),
                1 => (
                    NOW_US + rng.gen_range(1..50_000u64),
                    rng.gen_range(1..4usize),
                ),
                // A handful of boundaries, so ties fall back to the index.
                _ => (NOW_US + 1_000 * rng.gen_range(1..5u64), 0),
            };
            if accepting && backlog == 0 {
                if state == 0 {
                    usable.push(instance_index as u32);
                } else {
                    pending.push((free_at_us, instance_index as u32));
                }
            }
            InstanceView {
                instance_index,
                type_index: usize::from(!is_base),
                type_name: if is_base { "g4dn.xlarge" } else { "r5n.large" }.into(),
                model: ModelId(rng.gen_range(0..models) as u16),
                is_base,
                accepting,
                free_at_us,
                backlog,
            }
        })
        .collect();
    pending.sort_unstable();
    let idle = usable
        .into_iter()
        .chain(pending.into_iter().map(|(_, i)| i))
        .collect();
    let queued = (0..queue)
        .map(|q| {
            let model = ModelId(rng.gen_range(0..models) as u16);
            Query::for_model(q as u64, model, rng.gen_range(1..1_000u32), NOW_US)
        })
        .collect();
    Round {
        queued,
        views,
        idle,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn in_place_round_matches_the_sorted_round(
        seed in 0u64..u64::MAX,
        models in 1usize..=3,
        instances in 1usize..=48,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fcfs = FcfsScheduler::new();
        let mut oracle = SortedFcfs::default();
        // The drawn size first, then rounds of other sizes on the same
        // schedulers: queues from empty to twice the instance count.
        let mut n = instances;
        for _ in 0..4 {
            let queue = rng.gen_range(0..2 * n + 1);
            let round = random_round(&mut rng, models, n, queue);
            let ctx = SchedulingContext {
                now_us: NOW_US,
                queued: &round.queued,
                instances: &round.views,
                idle: &round.idle,
                qos_us: 25_000,
                qos_by_model: &[],
            };
            let expected = oracle.schedule(&ctx);
            // A caller's earlier dispatches stay in front of the round's.
            let marker = Dispatch { query_index: usize::MAX, instance_index: usize::MAX };
            let mut out = vec![marker];
            fcfs.schedule_into(&ctx, &mut out);
            prop_assert_eq!(out[0], marker);
            prop_assert_eq!(&out[1..], &expected[..]);
            n = rng.gen_range(1..49usize);
        }
    }
}
