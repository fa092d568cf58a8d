//! Minimal in-workspace shim of `rayon`.
//!
//! Provides order-preserving parallel `map`/`for_each` over slices using
//! `std::thread::scope` with one worker per available core.  Workers pull
//! items one at a time from a shared cursor rather than taking a contiguous
//! chunk each, so an expensive item delays only the worker running it: the
//! rest of the slice flows to the other workers.  Each result lands in its
//! input slot, so output order is input order.  This is the API surface the
//! kairos sweeps use (`slice.par_iter().map(f).collect()`); it degrades
//! gracefully to a sequential loop on single-core machines or tiny inputs.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

thread_local! {
    /// Worker-count override installed by [`ThreadPool::install`] on the
    /// calling thread.  The worker count is read on the calling thread
    /// (see [`effective_workers`]), so scoping the override thread-locally
    /// is enough to make `pool.install(|| ...)` deterministic per pool size.
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads used for fan-outs: the installed
/// [`ThreadPool`]'s size inside [`ThreadPool::install`], the machine's
/// available parallelism otherwise.
pub fn current_num_threads() -> usize {
    if let Some(n) = POOL_THREADS.with(|c| c.get()) {
        return n;
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Error building a [`ThreadPool`] (the shim never fails; the type exists
/// for API compatibility with rayon's fallible builder).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("rayon-shim thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for an explicitly sized [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with the default (machine-sized) worker count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count; `0` keeps the machine default, as in rayon.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool.  Never fails in the shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: if self.num_threads == 0 {
                thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            } else {
                self.num_threads
            },
        })
    }
}

/// An explicitly sized worker pool.  The shim spawns scoped threads per
/// fan-out rather than keeping workers alive, so the pool only carries the
/// worker *count*; [`Self::install`] scopes it over a closure exactly like
/// rayon's `ThreadPool::install`.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// The pool's worker count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `f` with this pool's worker count governing every parallel
    /// iterator invoked (directly) inside it.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let previous = POOL_THREADS.with(|c| c.replace(Some(self.num_threads)));
        let result = f();
        POOL_THREADS.with(|c| c.set(previous));
        result
    }
}

/// Worker count actually used for a fan-out: the requested pool size
/// clamped to the machine's available parallelism.  The shim's fan-outs
/// are CPU-bound, so spawning more runnable threads than cores buys no
/// concurrency — it only adds timeslice churn and cache refills — and the
/// mapped results do not depend on the worker count either way.  This is
/// what makes oversized pools "degrade gracefully to a sequential loop on
/// single-core machines" as documented above.
fn effective_workers() -> usize {
    current_num_threads().min(
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    )
}

/// Order-preserving parallel map over a slice.
///
/// The heart of the shim: each of `workers` scoped threads pulls the next
/// unclaimed index from one shared atomic cursor, maps that item, and pulls
/// again until the slice is exhausted.  A slow item therefore holds back only
/// its own worker; the items after it flow to whichever worker frees up
/// first.  Each result lands in its input slot, so the output keeps input
/// order whichever worker ran which item.
fn parallel_map<'a, T, R, F>(items: &'a [T], workers: usize, f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    fan_out(items.len(), workers, || {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        items.get(index).map(|item| (index, f(item)))
    })
}

/// Order-preserving parallel map over a mutable slice (the `&mut`
/// counterpart of [`parallel_map`]): workers pull the next `(index, item)`
/// from one `iter_mut().enumerate()` behind a mutex, which hands each
/// exclusive borrow out exactly once, and map it outside the lock.
fn parallel_map_mut<'a, T, R, F>(items: &'a mut [T], workers: usize, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&'a mut T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let total = items.len();
    let cursor = Mutex::new(items.iter_mut().enumerate());
    fan_out(total, workers, || {
        let next = cursor.lock().expect("rayon-shim cursor poisoned").next();
        next.map(|(index, item)| (index, f(item)))
    })
}

/// Runs `min(workers, total)` scoped threads, each calling `pull` until it
/// returns `None`, and writes every pulled `(index, result)` into slot
/// `index` of the output.  `pull` must yield each index in `0..total`
/// exactly once across all threads.
fn fan_out<R, P>(total: usize, workers: usize, pull: P) -> Vec<R>
where
    R: Send,
    P: Fn() -> Option<(usize, R)> + Sync,
{
    let pull = &pull;
    let mut slots: Vec<Option<R>> = (0..total).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(total))
            .map(|_| scope.spawn(move || std::iter::from_fn(pull).collect::<Vec<_>>()))
            .collect();
        for handle in handles {
            for (index, result) in handle.join().expect("rayon-shim worker panicked") {
                slots[index] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is pulled exactly once"))
        .collect()
}

/// Parallel iterator over `&[T]`.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

/// Parallel iterator over `&mut [T]`.
pub struct ParIterMut<'a, T> {
    items: &'a mut [T],
}

/// Lazily mapped mutable parallel iterator.
pub struct ParMapMut<'a, T, F> {
    items: &'a mut [T],
    f: F,
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Maps every element through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParMapMut<'a, T, F>
    where
        R: Send,
        F: Fn(&'a mut T) -> R + Sync,
    {
        ParMapMut {
            items: self.items,
            f,
        }
    }

    /// Runs `f` on every element in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a mut T) + Sync,
    {
        parallel_map_mut(self.items, effective_workers(), &|item| f(item));
    }
}

impl<'a, T, R, F> ParMapMut<'a, T, F>
where
    T: Send,
    R: Send,
    F: Fn(&'a mut T) -> R + Sync,
{
    /// Executes the parallel map and collects the results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        parallel_map_mut(self.items, effective_workers(), &self.f)
            .into_iter()
            .collect()
    }
}

/// Lazily mapped parallel iterator.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps every element through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Runs `f` on every element in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        parallel_map(self.items, effective_workers(), &|item| f(item));
    }
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    /// Executes the parallel map and collects the results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        parallel_map(self.items, effective_workers(), &self.f)
            .into_iter()
            .collect()
    }
}

/// Types that expose a by-reference parallel iterator (`.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// Element type.
    type Item: 'a;
    /// The parallel iterator.
    type Iter;

    /// Returns a parallel iterator over references.
    fn par_iter(&'a self) -> Self::Iter;
}

/// Types that expose a by-mutable-reference parallel iterator
/// (`.par_iter_mut()`).
pub trait IntoParallelRefMutIterator<'a> {
    /// Element type.
    type Item: 'a;
    /// The parallel iterator.
    type Iter;

    /// Returns a parallel iterator over mutable references.
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    type Iter = ParIterMut<'a, T>;

    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { items: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    type Iter = ParIterMut<'a, T>;

    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParIter<'a, T>;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<'a, T>;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// The rayon prelude, bringing the parallel-iterator traits into scope.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, IntoParallelRefMutIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{parallel_map, parallel_map_mut};
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    #[test]
    fn map_preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled.len(), input.len());
        for (i, v) in doubled.iter().enumerate() {
            assert_eq!(*v, input[i] * 2);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one[..].par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn for_each_visits_every_element() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..1000).collect();
        items.par_iter().for_each(|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn par_iter_mut_mutates_in_place_and_preserves_order() {
        let mut items: Vec<u64> = (0..5_000).collect();
        items.par_iter_mut().for_each(|x| *x += 1);
        for (i, v) in items.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1);
        }
        let squares: Vec<u64> = items.par_iter_mut().map(|x| *x * *x).collect();
        assert_eq!(squares[10], 11 * 11);
    }

    #[test]
    fn thread_pool_install_scopes_the_worker_count() {
        use crate::{current_num_threads, ThreadPoolBuilder};
        let outside = current_num_threads();
        for n in [1usize, 2, 4, 8] {
            let pool = ThreadPoolBuilder::new().num_threads(n).build().unwrap();
            assert_eq!(pool.current_num_threads(), n);
            let (inside, mapped) = pool.install(|| {
                let items: Vec<u64> = (0..1_000).collect();
                let mapped: Vec<u64> = items.par_iter().map(|&x| x * 3).collect();
                (current_num_threads(), mapped)
            });
            assert_eq!(inside, n);
            assert_eq!(mapped[999], 999 * 3);
            assert_eq!(current_num_threads(), outside);
        }
        // num_threads(0) keeps the machine default, as in rayon.
        let default_pool = ThreadPoolBuilder::new().num_threads(0).build().unwrap();
        assert_eq!(default_pool.current_num_threads(), outside);
    }

    /// A gate item 0 waits on until every other item has run.  Under a
    /// contiguous-chunk split item 0's worker also owns items 1.., which
    /// cannot run while it waits, so the wait times out.
    struct Gate {
        others_done: Mutex<usize>,
        all_done: Condvar,
        finish_order: Mutex<Vec<usize>>,
    }

    impl Gate {
        const TIMEOUT: Duration = Duration::from_secs(10);

        fn new() -> Self {
            Self {
                others_done: Mutex::new(0),
                all_done: Condvar::new(),
                finish_order: Mutex::new(Vec::new()),
            }
        }

        /// Runs item `index` of `total`; returns whether item 0's wait for
        /// the others succeeded (always `true` for the others).
        fn run(&self, index: usize, total: usize) -> bool {
            let released = if index == 0 {
                let done = self.others_done.lock().unwrap();
                let (_done, wait) = self
                    .all_done
                    .wait_timeout_while(done, Self::TIMEOUT, |done| *done < total - 1)
                    .unwrap();
                !wait.timed_out()
            } else {
                *self.others_done.lock().unwrap() += 1;
                self.all_done.notify_all();
                true
            };
            self.finish_order.lock().unwrap().push(index);
            released
        }
    }

    #[test]
    fn a_blocked_item_does_not_hold_back_the_items_after_it() {
        let items: Vec<usize> = (0..8).collect();
        let gate = Gate::new();
        let released = parallel_map(&items, 2, &|&i| gate.run(i, items.len()));
        assert!(
            released[0],
            "item 0 timed out: items after it were stuck behind it"
        );
        assert_eq!(gate.finish_order.lock().unwrap().len(), items.len());

        let mut items: Vec<usize> = (0..8).collect();
        let total = items.len();
        let gate = Gate::new();
        let released = parallel_map_mut(&mut items, 2, &|i| gate.run(*i, total));
        assert!(
            released[0],
            "item 0 timed out: items after it were stuck behind it"
        );
    }

    #[test]
    fn results_keep_input_order_when_items_finish_out_of_order() {
        let items: Vec<usize> = (0..16).collect();
        let gate = Gate::new();
        let out = parallel_map(&items, 2, &|&i| {
            assert!(gate.run(i, items.len()));
            i * 10
        });
        // Item 0 finished last, yet its result heads the output.
        assert_eq!(gate.finish_order.lock().unwrap().last(), Some(&0));
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());

        let mut items: Vec<usize> = (0..16).collect();
        let total = items.len();
        let gate = Gate::new();
        let out = parallel_map_mut(&mut items, 2, &|i| {
            assert!(gate.run(*i, total));
            *i += 1;
            *i * 10
        });
        assert_eq!(gate.finish_order.lock().unwrap().last(), Some(&0));
        assert_eq!(out, (1..17).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(items, (1..17).collect::<Vec<_>>());
    }
}
