//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! the parallel-iterator subset it uses as a local crate, implemented over
//! `std::thread::scope`. Parallelism is real (one worker per core by
//! default); results are collected **in input order**, so a parallel map is
//! bit-for-bit identical to its serial equivalent whenever each item's work
//! depends only on the item (the workspace derives per-item RNG seeds from
//! indices for exactly this reason).
//!
//! Thread count: `ThreadPoolBuilder::new().num_threads(1).build()?.install(f)`
//! forces every parallel call made *inside `f` on the same thread* to run
//! inline, which the determinism regression tests use to compare serial and
//! parallel runs. The `RAYON_NUM_THREADS` environment variable is honored
//! like upstream. Code that spawns its own threads can take them from the
//! same process-wide worker budget through [`reserve`] (shim-only).

#![warn(missing_docs)]

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Extra worker threads currently alive across every in-flight parallel
/// call. Nested `par_iter` levels consult this so total workers stay near
/// the core count instead of multiplying per nesting level.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Number of worker threads parallel calls on this thread will use.
pub fn current_num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a parallel call happening *now* may use: the configured width minus
/// workers already running (approximate — racy reads only make the bound
/// slightly loose, never the results wrong, since collection order never
/// depends on the thread count).
fn available_budget() -> usize {
    current_num_threads()
        .saturating_sub(ACTIVE_WORKERS.load(Ordering::Relaxed))
        .max(1)
}

/// Threads a parallel call made now on this thread would get: the configured
/// width minus the workers other parallel calls hold, at least 1. Code that
/// splits its input into one chunk per thread sizes the split with this, so
/// inside another fan-out it makes one chunk — its serial loop — instead of
/// paying to split and merge work that would run inline anyway.
///
/// Shim-only extension, like [`reserve`].
pub fn available_threads() -> usize {
    available_budget()
}

/// Reserves threads from the process-wide worker budget for code that
/// spawns its own helpers: grants `min(width, available budget)` threads
/// (at least 1, the calling thread) and counts the granted helpers against
/// the budget until the returned guard drops, so `par_iter`s nested inside
/// those helpers degrade toward inline execution instead of multiplying
/// threads.
///
/// Shim-only extension: upstream `rayon` has no such call (its pool bounds
/// nesting by construction).
pub fn reserve(width: usize) -> Reservation {
    Reservation::hold(available_budget().min(width).max(1) - 1)
}

/// Helpers counted against the worker budget; see [`reserve`].
#[derive(Debug)]
pub struct Reservation {
    helpers: usize,
}

impl Reservation {
    fn hold(helpers: usize) -> Reservation {
        ACTIVE_WORKERS.fetch_add(helpers, Ordering::Relaxed);
        Reservation { helpers }
    }

    /// Threads granted, the calling thread included.
    pub fn width(&self) -> usize {
        self.helpers + 1
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        ACTIVE_WORKERS.fetch_sub(self.helpers, Ordering::Relaxed);
    }
}

/// Common traits, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelIterator};
}

/// A pipeline stage: every iterator is an indexed pure evaluator, which is
/// what makes order-preserving parallel collection trivial.
pub trait ParallelIterator: Sized + Sync {
    /// Item produced per index.
    type Item: Send;

    /// Number of items.
    fn len(&self) -> usize;

    /// Produces the item at `index`. Must be pure per index (may run on any
    /// worker thread, exactly once per index).
    fn eval(&self, index: usize) -> Self::Item;

    /// `true` when the pipeline has no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maps each item through `f` (applied on worker threads).
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { inner: self, f }
    }

    /// Pairs each item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { inner: self }
    }

    /// Evaluates the pipeline in parallel, preserving input order. The
    /// spawn width is capped by the global worker budget, so nested
    /// parallel calls degrade toward inline execution instead of
    /// multiplying threads per nesting level.
    fn to_vec(self) -> Vec<Self::Item> {
        let n = self.len();
        let threads = available_budget().min(n.max(1));
        if threads <= 1 || n <= 1 {
            return (0..n).map(|i| self.eval(i)).collect();
        }
        let chunk = n.div_ceil(threads);
        // The calling thread keeps working too; only the spawned workers
        // beyond it count against the global budget.
        let spawned = n.div_ceil(chunk).saturating_sub(1);
        let _held = Reservation::hold(spawned);
        let mut out: Vec<Self::Item> = Vec::with_capacity(n);
        let this = &self;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(spawned);
            let mut start = chunk.min(n);
            while start < n {
                let end = (start + chunk).min(n);
                handles.push(
                    scope.spawn(move || (start..end).map(|i| this.eval(i)).collect::<Vec<_>>()),
                );
                start = end;
            }
            // First chunk on the calling thread, in parallel with the rest.
            out.extend((0..chunk.min(n)).map(|i| this.eval(i)));
            for h in handles {
                out.extend(h.join().expect("rayon shim worker panicked"));
            }
        });
        out
    }

    /// Collects results, preserving input order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.to_vec().into_iter().collect()
    }

    /// Sums results.
    fn sum<S: std::iter::Sum<Self::Item>>(self) -> S {
        self.to_vec().into_iter().sum()
    }
}

/// Conversion into a parallel iterator by reference (`.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// Item type.
    type Item: Sync + 'a;
    /// Parallel iterator over `&Self::Item`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParIter<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.items.len()
    }
    fn eval(&self, index: usize) -> &'a T {
        &self.items[index]
    }
}

/// Mapped pipeline stage.
pub struct Map<I, F> {
    inner: I,
    f: F,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    type Item = R;
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn eval(&self, index: usize) -> R {
        (self.f)(self.inner.eval(index))
    }
}

/// Enumerated pipeline stage.
pub struct Enumerate<I> {
    inner: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn eval(&self, index: usize) -> (usize, I::Item) {
        (index, self.inner.eval(index))
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// New builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (0 = automatic, like upstream).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Builds the pool.
    ///
    /// # Errors
    ///
    /// Never fails in this shim; the `Result` mirrors upstream's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// Error type mirroring upstream (never produced by this shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("rayon shim thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A scoped thread-count override, mirroring `rayon::ThreadPool`.
pub struct ThreadPool {
    num_threads: Option<usize>,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count governing every parallel call
    /// `op` makes on the current thread.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = THREAD_OVERRIDE.with(|o| o.replace(self.num_threads));
        let result = op();
        THREAD_OVERRIDE.with(|o| o.set(prev));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The worker budget is process-wide, so a test running concurrently in
    /// this binary can hold the workers another test expects to get. Every
    /// test that goes parallel holds this lock.
    fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn par_map_preserves_order() {
        let _exclusive = exclusive();
        let items: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = items.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn enumerate_indices_match() {
        let _exclusive = exclusive();
        let items = vec!["a", "b", "c", "d"];
        let got: Vec<(usize, String)> = items
            .par_iter()
            .enumerate()
            .map(|(i, s)| (i, format!("{i}{s}")))
            .collect();
        assert_eq!(got[2], (2, "2c".to_string()));
    }

    #[test]
    fn single_thread_install_matches_parallel() {
        let _exclusive = exclusive();
        let items: Vec<u64> = (0..257).collect();
        let par: Vec<u64> = items.par_iter().map(|x| x * x).collect();
        let serial: Vec<u64> = ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| items.par_iter().map(|x| x * x).collect());
        assert_eq!(par, serial);
    }

    #[test]
    fn sum_works() {
        let _exclusive = exclusive();
        let items: Vec<u64> = (1..=100).collect();
        let s: u64 = items.par_iter().map(|x| *x).sum();
        assert_eq!(s, 5050);
    }

    #[test]
    fn a_held_reservation_narrows_the_next_until_it_drops() {
        let _exclusive = exclusive();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            let first = reserve(4);
            assert_eq!(first.width(), 4);
            assert_eq!(reserve(4).width(), 1, "the first holds the whole budget");
            drop(first);
            assert_eq!(reserve(4).width(), 4, "dropping returns the budget");
        });
    }

    #[test]
    fn available_threads_shrinks_while_workers_are_held() {
        let _exclusive = exclusive();
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        pool.install(|| {
            assert_eq!(available_threads(), 3);
            let held = reserve(2);
            assert_eq!(available_threads(), 2);
            let _rest = reserve(3);
            assert_eq!(available_threads(), 1, "never below the calling thread");
            drop(held);
        });
    }

    #[test]
    fn actually_spawns_threads_when_allowed() {
        let _exclusive = exclusive();
        let items: Vec<u64> = (0..64).collect();
        let ids: Vec<std::thread::ThreadId> = items
            .par_iter()
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                std::thread::current().id()
            })
            .collect();
        if current_num_threads() > 1 {
            let unique: std::collections::HashSet<_> = ids.into_iter().collect();
            assert!(unique.len() > 1, "expected multiple worker threads");
        }
    }
}
