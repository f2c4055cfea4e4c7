//! Fault containment for the scoring pipeline: per-completion resource
//! budgets and a deterministic fault-injection harness.
//!
//! The evaluation grid scores untrusted, model-generated Verilog, so the
//! engine treats every completion as potentially hostile: all work it can
//! trigger is bounded by a [`Budget`], and the containment machinery is
//! verified by *injecting* faults — panics, errors, and budget exhaustion —
//! at named [`FaultSite`]s and asserting the grid degrades deterministically
//! (`tests/fault_containment.rs` in the workspace root).
//!
//! Injection decisions are **stateless**: a [`FaultPlan`] decides from
//! `(plan seed, site, completion key)` alone, never from execution order,
//! thread identity, or hit counters. The same completion therefore faults
//! identically whether it is scored serially or in parallel, fresh or as a
//! dedup-cache miss replay, batched or through the scalar fallback — which
//! is exactly what makes faulted runs reproducible.
//!
//! Plans belong to a **run**, not to the process: [`with_plan`] and
//! [`with_persist_plan`] arm them on the calling thread, and the grid entry
//! points carry them to the worker threads they fan out to ([`RunPlans`]).
//! An unrelated run sharing the process never sees them.
//!
//! The hooks are free when disarmed: [`inject`] is a single relaxed atomic
//! load unless some run in the process carries a plan, and budgets are
//! plain decrement-and-branch counters on values the hot loops already own.

use crate::error::SimError;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Named points in the scoring pipeline where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Completion parsing (hooked in `vereval::score`).
    Parse,
    /// DUT-side hierarchy flattening (`elab::flatten`).
    Elab,
    /// Lowering the flattened design (`compile_checked`).
    Compile,
    /// A combinational settle sweep, scalar or batched.
    Settle,
    /// Batched lane extraction / re-transposition (`BatchSimulator` only).
    LaneExtract,
    /// Admission of a scored outcome into the dedup cache.
    CacheInsert,
}

impl FaultSite {
    /// Every site, in pipeline order — chaos tests sweep over this.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::Parse,
        FaultSite::Elab,
        FaultSite::Compile,
        FaultSite::Settle,
        FaultSite::LaneExtract,
        FaultSite::CacheInsert,
    ];

    /// Stable lowercase name (used in injected panic/error messages).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Parse => "parse",
            FaultSite::Elab => "elab",
            FaultSite::Compile => "compile",
            FaultSite::Settle => "settle",
            FaultSite::LaneExtract => "lane-extract",
            FaultSite::CacheInsert => "cache-insert",
        }
    }

    /// A per-site salt mixed into the injection decision so the same
    /// completion faults independently at each site.
    fn salt(self) -> u64 {
        match self {
            FaultSite::Parse => 0x9106_21C1_7A3D_0001,
            FaultSite::Elab => 0x9106_21C1_7A3D_0002,
            FaultSite::Compile => 0x9106_21C1_7A3D_0003,
            FaultSite::Settle => 0x9106_21C1_7A3D_0004,
            FaultSite::LaneExtract => 0x9106_21C1_7A3D_0005,
            FaultSite::CacheInsert => 0x9106_21C1_7A3D_0006,
        }
    }
}

/// What an injected fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultAction {
    /// `panic!` — exercises the `catch_unwind` isolation layer.
    Panic,
    /// Return a structured [`SimError::Eval`] — exercises error plumbing.
    Error,
    /// Return [`SimError::Budget`] — exercises budget-exhaustion mapping.
    Budget,
}

/// Stable taxonomy of *contained* engine faults, recorded per completion in
/// `vereval`'s `Outcome::EngineFault { kind }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// A panic was caught at a completion boundary.
    Panic,
    /// A resource budget ran out ([`SimError::Budget`]).
    Budget,
    /// A wall-clock deadline expired ([`SimError::Deadline`]): the watchdog
    /// layered above the deterministic budgets cancelled this completion.
    Deadline,
}

impl FaultKind {
    /// Stable name used when serializing outcomes and reporting counts.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "Panic",
            FaultKind::Budget => "Budget",
            FaultKind::Deadline => "Deadline",
        }
    }
}

/// SplitMix64 finalizer: the statistical mixer behind injection decisions.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, stateless fault-injection plan.
///
/// `decide` is a pure function of `(seed, site, key)`: roughly one in
/// `rate` `(site, key)` pairs fault, and the action cycles through the
/// [`FaultAction`] taxonomy. `rate = 1` faults every pair (useful for
/// site-targeted regression tests); restrict to one site with
/// [`FaultPlan::only_site`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rate: u32,
    only: Option<FaultSite>,
}

impl FaultPlan {
    /// Plan injecting at every site with probability `1 / rate.max(1)`.
    pub fn new(seed: u64, rate: u32) -> Self {
        FaultPlan {
            seed,
            rate: rate.max(1),
            only: None,
        }
    }

    /// Plan restricted to a single site.
    pub fn only_site(seed: u64, rate: u32, site: FaultSite) -> Self {
        FaultPlan {
            only: Some(site),
            ..FaultPlan::new(seed, rate)
        }
    }

    /// The injection decision for a `(site, key)` pair.
    pub fn decide(&self, site: FaultSite, key: u64) -> Option<FaultAction> {
        if self.only.is_some_and(|s| s != site) {
            return None;
        }
        let h = splitmix(splitmix(self.seed ^ site.salt()) ^ key);
        if !h.is_multiple_of(u64::from(self.rate)) {
            return None;
        }
        Some(match (h >> 33) % 3 {
            0 => FaultAction::Panic,
            1 => FaultAction::Error,
            _ => FaultAction::Budget,
        })
    }

    /// `true` when this plan faults completion `key` at *any* site — the
    /// locality proptest uses this to split a run into faulted and
    /// must-be-untouched completions.
    pub fn faults_completion(&self, key: u64) -> bool {
        FaultSite::ALL
            .into_iter()
            .any(|site| self.decide(site, key).is_some())
    }
}

/// Per-completion resource budget (fuel) for the scoring pipeline.
///
/// The defaults are generous — far above anything a legitimate completion
/// in the problem suite needs — so exhaustion signals a pathological or
/// adversarial design, not a tight limit tuned to the benchmark. Tests
/// shrink individual fields (via [`BudgetScope`]) to exercise the
/// exhaustion paths deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Combinational settle sweeps per simulator instance (scalar fixpoint
    /// iterations / levelized passes, or batched 64-lane sweeps).
    pub settle_sweeps: u64,
    /// Simulated cycles per equivalence comparison (one budget spans the
    /// whole stimulus program, DUT and golden together).
    pub compare_cycles: u64,
    /// Signals a single design may elaborate to.
    pub elab_signals: u64,
    /// Module fragments (instantiations) a single design may flatten.
    pub elab_fragments: u64,
}

impl Budget {
    /// The default grid budget.
    pub const DEFAULT: Budget = Budget {
        settle_sweeps: 1 << 22,
        compare_cycles: 1 << 20,
        elab_signals: 1 << 16,
        elab_fragments: 1 << 12,
    };
}

impl Default for Budget {
    fn default() -> Self {
        Budget::DEFAULT
    }
}

/// A decrementing fuel counter over one [`Budget`] dimension.
///
/// `charge` costs one decrement and one branch, so threading fuel through
/// the settle/compare hot loops stays within the grid's overhead tolerance.
#[derive(Debug, Clone)]
pub struct Fuel {
    left: u64,
    limit: u64,
    what: &'static str,
}

impl Fuel {
    /// Fuel tank holding `limit` units of `what`.
    pub fn new(what: &'static str, limit: u64) -> Self {
        Fuel {
            left: limit,
            limit,
            what,
        }
    }

    /// Spends one unit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Budget`] once the tank is empty.
    #[inline]
    pub fn charge(&mut self) -> Result<(), SimError> {
        if self.left == 0 {
            return Err(SimError::Budget {
                what: self.what,
                limit: self.limit,
            });
        }
        self.left -= 1;
        Ok(())
    }
}

// --- ambient state ----------------------------------------------------------
//
// The grid's per-completion policy travels ambiently rather than through
// every signature: the run's plans (thread-local, carried to worker threads
// by the grid entry points through `RunPlans`), the current budget
// (thread-local value, inherited by simulators at construction), and the
// active completion scope (thread-local, entered by the score entry
// points). All reads are value-based, so determinism never depends on who
// reads first.

/// Live [`RunPlansScope`]s holding a [`FaultPlan`], process-wide. Only a
/// fast-path filter: zero means no thread has a plan, so disarmed hooks
/// pay one relaxed load. Whether a hook fires is decided by the
/// calling thread's own plan, never by this count.
static FAULT_RUNS: AtomicUsize = AtomicUsize::new(0);

/// The [`PersistPlan`] counterpart of [`FAULT_RUNS`].
static PERSIST_RUNS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The plans of the run executing on this thread.
    static RUN: Cell<RunPlans> = const { Cell::new(RunPlans::NONE) };
    /// The `(plan, completion key)` pair injection decisions read from.
    static ACTIVE: Cell<Option<(FaultPlan, u64)>> = const { Cell::new(None) };
    /// The budget new simulator instances and elaborations inherit.
    static BUDGET: Cell<Budget> = const { Cell::new(Budget::DEFAULT) };
}

/// The fault plans one run carries: what [`with_plan`] and
/// [`with_persist_plan`] arm on the calling thread.
///
/// Code that fans a run out to other threads takes
/// [`RunPlans::current`] before spawning and runs each worker's share under
/// [`RunPlans::enter`], so the plans follow the run's work and nothing
/// else. The evaluation grid driver (behind `evaluate_grid` and the eval
/// service) and the pipeline's measurement loops do this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPlans {
    fault: Option<FaultPlan>,
    persist: Option<PersistPlan>,
}

impl RunPlans {
    /// No plans: what every thread starts with.
    pub const NONE: RunPlans = RunPlans {
        fault: None,
        persist: None,
    };

    /// The plans of the run executing on this thread.
    pub fn current() -> RunPlans {
        RUN.with(Cell::get)
    }

    /// Arms these plans on this thread until the returned guard drops,
    /// which restores the previous plans — including during an unwind.
    pub fn enter(self) -> RunPlansScope {
        count_runs(self, true);
        RunPlansScope {
            armed: self,
            prev: RUN.with(|c| c.replace(self)),
            _thread: std::marker::PhantomData,
        }
    }
}

/// RAII guard from [`RunPlans::enter`]: restores the thread's previous
/// plans on drop, even during an unwind. Not `Send` — the plans it restores
/// are this thread's.
pub struct RunPlansScope {
    armed: RunPlans,
    prev: RunPlans,
    _thread: std::marker::PhantomData<*const ()>,
}

impl Drop for RunPlansScope {
    fn drop(&mut self) {
        RUN.with(|c| c.set(self.prev));
        count_runs(self.armed, false);
    }
}

fn count_runs(plans: RunPlans, enter: bool) {
    for (armed, runs) in [
        (plans.fault.is_some(), &FAULT_RUNS),
        (plans.persist.is_some(), &PERSIST_RUNS),
    ] {
        if armed {
            if enter {
                runs.fetch_add(1, Ordering::Relaxed);
            } else {
                runs.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Runs `f` with `plan` armed for the run on this thread (and the workers
/// it fans out to), restoring the previous plan afterwards — including
/// when `f` unwinds. Other runs in the process are unaffected, so chaos
/// tests need no serialization.
pub fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    let _plans = RunPlans {
        fault: Some(plan),
        ..RunPlans::current()
    }
    .enter();
    f()
}

/// Runs `f` with **no** [`FaultPlan`] armed on this thread. Baseline
/// (fault-free) measurements in chaos tests run under this; since plans
/// never leave their run, it only matters when nested inside [`with_plan`].
pub fn without_plan<R>(f: impl FnOnce() -> R) -> R {
    let _plans = RunPlans {
        fault: None,
        ..RunPlans::current()
    }
    .enter();
    f()
}

/// RAII guard marking "scoring completion `key` now" on this thread.
///
/// Score entry points create one keyed on the completion's content-derived
/// stimulus seed; while it lives, [`inject`] hooks on this thread consult
/// the installed plan. Golden-context construction happens outside any
/// scope, so reference designs are never faulted. Dropping restores the
/// previous scope even during an unwind.
pub struct FaultScope {
    prev: Option<(FaultPlan, u64)>,
    entered: bool,
}

impl FaultScope {
    /// Enters a completion scope for `key` (no-op unless this thread's run
    /// carries a plan).
    pub fn enter(key: u64) -> FaultScope {
        let Some(plan) = run_plan() else {
            return FaultScope {
                prev: None,
                entered: false,
            };
        };
        let prev = ACTIVE.with(|c| c.replace(Some((plan, key))));
        FaultScope {
            prev,
            entered: true,
        }
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        if self.entered {
            ACTIVE.with(|c| c.set(self.prev.take()));
        }
    }
}

/// `true` while a completion fault scope is active on this thread.
#[cfg(test)]
fn scope_active() -> bool {
    FAULT_RUNS.load(Ordering::Relaxed) != 0 && ACTIVE.with(|c| c.get()).is_some()
}

/// The [`FaultPlan`] of the run on this thread, if any.
#[inline]
fn run_plan() -> Option<FaultPlan> {
    if FAULT_RUNS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    RUN.with(Cell::get).fault
}

/// `true` while the run on this thread carries a [`FaultPlan`] (inside a
/// [`with_plan`] window, or on a worker the run fanned out to). Injected
/// faults can surface as *scored* verdicts (an injected parse error
/// degrades to a syntax failure, not an engine fault), so a cache that
/// outlives the run — the suite-wide score tier — consults this to
/// refuse that run's admissions and replays: a clean
/// re-run after a faulted run must be indistinguishable from a run that
/// never faulted. Other runs sharing the cache keep using it.
pub fn plan_armed() -> bool {
    run_plan().is_some()
}

/// The fault-injection hook, placed at every [`FaultSite`].
///
/// Disarmed (no run carries a plan — all production use), this is one
/// relaxed atomic load. Armed, the plan of the completion scope on this
/// thread decides statelessly whether this `(site, completion)` pair
/// faults.
///
/// # Errors
///
/// Returns the injected [`SimError`] when the plan picks
/// [`FaultAction::Error`] or [`FaultAction::Budget`].
///
/// # Panics
///
/// Panics (deliberately) when the plan picks [`FaultAction::Panic`]; the
/// per-completion `catch_unwind` isolation layer must contain it.
#[inline]
pub fn inject(site: FaultSite) -> Result<(), SimError> {
    if FAULT_RUNS.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    inject_armed(site)
}

#[cold]
fn inject_armed(site: FaultSite) -> Result<(), SimError> {
    let Some((plan, key)) = ACTIVE.with(|c| c.get()) else {
        return Ok(());
    };
    match plan.decide(site, key) {
        None => Ok(()),
        Some(FaultAction::Panic) => panic!("injected fault: panic at {}", site.name()),
        Some(FaultAction::Error) => Err(SimError::Eval(format!(
            "injected fault: error at {}",
            site.name()
        ))),
        Some(FaultAction::Budget) => Err(SimError::Budget {
            what: "injected fault",
            limit: 0,
        }),
    }
}

/// The budget the current thread hands to new simulator instances and
/// elaborations.
pub fn current_budget() -> Budget {
    BUDGET.with(|c| c.get())
}

/// RAII guard installing a thread-local [`Budget`] override (tests shrink
/// caps to force exhaustion). Restores the previous budget on drop.
pub struct BudgetScope {
    prev: Budget,
}

impl BudgetScope {
    /// Installs `budget` as the current thread's budget.
    pub fn enter(budget: Budget) -> BudgetScope {
        BudgetScope {
            prev: BUDGET.with(|c| c.replace(budget)),
        }
    }
}

impl Drop for BudgetScope {
    fn drop(&mut self) {
        BUDGET.with(|c| c.set(self.prev));
    }
}

// --- wall-clock deadlines ---------------------------------------------------
//
// Budgets bound *deterministic* work (sweeps, cycles, fragments); a deadline
// bounds *real time*. The watchdog lives above this crate (it owns a monitor
// thread), but the cancellation flag it flips is observed here, inside the
// settle loops, through the same disarmed-is-one-load discipline as
// `inject`: scoring paths that never enter a deadline scope pay a single
// thread-local flag read per settle.

thread_local! {
    /// `true` while a deadline scope is active on this thread — the fast
    /// check [`check_deadline`] reads before touching the flag itself.
    static DEADLINE_ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// The active cancellation flag and the deadline it encodes (for the
    /// error message). Set only inside a [`DeadlineScope`].
    static DEADLINE: std::cell::RefCell<Option<(std::sync::Arc<AtomicBool>, u64)>> =
        const { std::cell::RefCell::new(None) };
}

/// RAII guard installing a wall-clock cancellation flag for the current
/// thread: while it lives, [`check_deadline`] calls on this thread fail with
/// [`SimError::Deadline`] once `cancel` is set (by a watchdog's monitor
/// thread). Scopes nest; dropping restores the previous flag, including
/// during an unwind.
pub struct DeadlineScope {
    prev: Option<(std::sync::Arc<AtomicBool>, u64)>,
    prev_active: bool,
}

impl DeadlineScope {
    /// Enters a deadline scope observing `cancel`, with `millis` recorded
    /// for the eventual error message.
    pub fn enter(cancel: std::sync::Arc<AtomicBool>, millis: u64) -> DeadlineScope {
        let prev = DEADLINE.with(|c| c.borrow_mut().replace((cancel, millis)));
        let prev_active = DEADLINE_ACTIVE.with(|c| c.replace(true));
        DeadlineScope { prev, prev_active }
    }
}

impl Drop for DeadlineScope {
    fn drop(&mut self) {
        DEADLINE_ACTIVE.with(|c| c.set(self.prev_active));
        DEADLINE.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// The deadline hook on the settle paths: free (one thread-local flag read)
/// unless the current thread is inside a [`DeadlineScope`].
///
/// # Errors
///
/// Returns [`SimError::Deadline`] once the scope's cancellation flag is set.
#[inline]
pub fn check_deadline() -> Result<(), SimError> {
    if !DEADLINE_ACTIVE.with(|c| c.get()) {
        return Ok(());
    }
    check_deadline_armed()
}

#[cold]
fn check_deadline_armed() -> Result<(), SimError> {
    let expired = DEADLINE.with(|c| {
        c.borrow()
            .as_ref()
            .filter(|(flag, _)| flag.load(Ordering::Relaxed))
            .map(|(_, millis)| *millis)
    });
    match expired {
        Some(millis) => Err(SimError::Deadline { millis }),
        None => Ok(()),
    }
}

// --- persist-site fault injection -------------------------------------------
//
// The durable run layer (journal and atomic results I/O —
// `rtlb_vereval::persist`) has its own failure modes: a process killed
// mid-append tears the journal tail, a disk flips a bit in a journal record,
// a truncated file short-reads. A seeded `PersistPlan` injects exactly those
// corruptions at the I/O boundaries, the same stateless way a `FaultPlan`
// injects panics, so the chaos suite can drive kill/corrupt/resume cycles
// deterministically.

/// Named I/O boundaries in the durable run layer where a persistence fault
/// can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistSite {
    /// Appending one outcome record to the run journal.
    JournalAppend,
    /// Reading a journal back during resume.
    JournalRead,
    /// Writing the merged results file (`BENCH_results.json`).
    ResultsWrite,
}

impl PersistSite {
    /// Every persist site, in pipeline order — chaos tests sweep over this.
    pub const ALL: [PersistSite; 3] = [
        PersistSite::JournalAppend,
        PersistSite::JournalRead,
        PersistSite::ResultsWrite,
    ];

    /// Stable lowercase name (used in injected error messages).
    pub fn name(self) -> &'static str {
        match self {
            PersistSite::JournalAppend => "journal-append",
            PersistSite::JournalRead => "journal-read",
            PersistSite::ResultsWrite => "results-write",
        }
    }

    fn salt(self) -> u64 {
        match self {
            PersistSite::JournalAppend => 0x7E66_09A1_44C2_0001,
            PersistSite::JournalRead => 0x7E66_09A1_44C2_0002,
            PersistSite::ResultsWrite => 0x7E66_09A1_44C2_0005,
        }
    }
}

/// The corruption an injected persistence fault applies to an I/O buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistMutation {
    /// The write stops partway through — the kill-mid-write case. `frac16`
    /// scales the surviving prefix: `len * frac16 / 16` bytes are kept.
    TornWrite {
        /// Sixteenths of the buffer that survive (0..16).
        frac16: u8,
    },
    /// A single bit flips — latent media corruption that checksums must
    /// catch on the next read.
    BitFlip {
        /// Bit position, reduced modulo the buffer's bit length.
        bit: u64,
    },
    /// A read returns fewer bytes than were written.
    ShortRead {
        /// Bytes dropped from the end (at least 1, capped at the length).
        drop: u64,
    },
}

/// The three mutation shapes, for plans restricted to one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistMutationKind {
    /// [`PersistMutation::TornWrite`].
    TornWrite,
    /// [`PersistMutation::BitFlip`].
    BitFlip,
    /// [`PersistMutation::ShortRead`].
    ShortRead,
}

impl PersistMutation {
    /// The shape of this mutation.
    pub fn kind(self) -> PersistMutationKind {
        match self {
            PersistMutation::TornWrite { .. } => PersistMutationKind::TornWrite,
            PersistMutation::BitFlip { .. } => PersistMutationKind::BitFlip,
            PersistMutation::ShortRead { .. } => PersistMutationKind::ShortRead,
        }
    }

    /// Applies this mutation to an I/O buffer in place. Empty buffers are
    /// left alone (there is nothing to corrupt).
    pub fn apply(self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        match self {
            PersistMutation::TornWrite { frac16 } => {
                let keep = bytes.len() * usize::from(frac16.min(15)) / 16;
                bytes.truncate(keep);
            }
            PersistMutation::BitFlip { bit } => {
                let pos = (bit % (bytes.len() as u64 * 8)) as usize;
                bytes[pos / 8] ^= 1 << (pos % 8);
            }
            PersistMutation::ShortRead { drop } => {
                let drop = (drop % bytes.len() as u64).max(1) as usize;
                bytes.truncate(bytes.len() - drop);
            }
        }
    }
}

/// A seeded, stateless persistence-fault plan: `decide` is a pure function
/// of `(seed, site, key)`, so the same journal record or store entry is
/// corrupted identically on every run — which is what makes kill/resume
/// chaos cycles replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistPlan {
    seed: u64,
    rate: u32,
    only: Option<PersistSite>,
    only_kind: Option<PersistMutationKind>,
}

impl PersistPlan {
    /// Plan injecting at every persist site with probability `1 / rate.max(1)`.
    pub fn new(seed: u64, rate: u32) -> Self {
        PersistPlan {
            seed,
            rate: rate.max(1),
            only: None,
            only_kind: None,
        }
    }

    /// Plan restricted to a single site.
    pub fn only_site(seed: u64, rate: u32, site: PersistSite) -> Self {
        PersistPlan {
            only: Some(site),
            ..PersistPlan::new(seed, rate)
        }
    }

    /// Restricts the plan to one mutation shape (site-targeted regression
    /// tests want, e.g., only torn writes).
    pub fn with_kind(self, kind: PersistMutationKind) -> Self {
        PersistPlan {
            only_kind: Some(kind),
            ..self
        }
    }

    /// The injection decision for a `(site, key)` pair.
    pub fn decide(&self, site: PersistSite, key: u64) -> Option<PersistMutation> {
        if self.only.is_some_and(|s| s != site) {
            return None;
        }
        let h = splitmix(splitmix(self.seed ^ site.salt()) ^ key);
        if !h.is_multiple_of(u64::from(self.rate)) {
            return None;
        }
        let params = splitmix(h);
        let kind = self.only_kind.unwrap_or(match (h >> 33) % 3 {
            0 => PersistMutationKind::TornWrite,
            1 => PersistMutationKind::BitFlip,
            _ => PersistMutationKind::ShortRead,
        });
        Some(match kind {
            PersistMutationKind::TornWrite => PersistMutation::TornWrite {
                frac16: (params % 16) as u8,
            },
            PersistMutationKind::BitFlip => PersistMutation::BitFlip { bit: params },
            PersistMutationKind::ShortRead => PersistMutation::ShortRead { drop: params },
        })
    }
}

/// Runs `f` with `plan` armed for the run on this thread (and the workers
/// it fans out to), restoring the previous plan afterwards — including
/// when `f` unwinds. Other runs in the process are unaffected.
pub fn with_persist_plan<R>(plan: PersistPlan, f: impl FnOnce() -> R) -> R {
    let _plans = RunPlans {
        persist: Some(plan),
        ..RunPlans::current()
    }
    .enter();
    f()
}

/// The persistence-fault hook, consulted by the durable I/O paths with the
/// content key of whatever they are about to write or read. Disarmed (all
/// production use) this is one relaxed atomic load; armed, the plan of the
/// run on this thread decides statelessly which corruption, if any, to
/// apply.
#[inline]
pub fn persist_mutation(site: PersistSite, key: u64) -> Option<PersistMutation> {
    if PERSIST_RUNS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    persist_mutation_armed(site, key)
}

#[cold]
fn persist_mutation_armed(site: PersistSite, key: u64) -> Option<PersistMutation> {
    RUN.with(Cell::get)
        .persist
        .and_then(|plan| plan.decide(site, key))
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// stderr backtrace spew for *injected* panics — chaos tests fire thousands
/// of contained panics and would otherwise drown real failures — while
/// delegating every other panic to the previous hook unchanged.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected fault"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.starts_with("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_stateless_and_seeded() {
        let plan = FaultPlan::new(7, 8);
        for site in FaultSite::ALL {
            for key in 0..64u64 {
                assert_eq!(plan.decide(site, key), plan.decide(site, key));
            }
        }
        let other = FaultPlan::new(8, 8);
        let differs = FaultSite::ALL
            .into_iter()
            .any(|s| (0..64).any(|k| plan.decide(s, k) != other.decide(s, k)));
        assert!(differs, "different seeds must give different plans");
    }

    #[test]
    fn rate_one_always_fires_and_only_site_filters() {
        let plan = FaultPlan::only_site(3, 1, FaultSite::Settle);
        for key in 0..32u64 {
            assert!(plan.decide(FaultSite::Settle, key).is_some());
            assert_eq!(plan.decide(FaultSite::Parse, key), None);
        }
    }

    #[test]
    fn all_actions_are_reachable() {
        let plan = FaultPlan::new(11, 1);
        let mut seen = std::collections::HashSet::new();
        for key in 0..256u64 {
            if let Some(action) = plan.decide(FaultSite::Elab, key) {
                seen.insert(action);
            }
        }
        assert_eq!(seen.len(), 3, "panic, error and budget all reachable");
    }

    #[test]
    fn fuel_charges_down_to_a_budget_error() {
        let mut fuel = Fuel::new("test units", 2);
        assert_eq!(fuel.charge(), Ok(()));
        assert_eq!(fuel.charge(), Ok(()));
        assert_eq!(
            fuel.charge(),
            Err(SimError::Budget {
                what: "test units",
                limit: 2
            })
        );
    }

    #[test]
    fn inject_is_inert_without_a_scope_and_scoped_with_one() {
        let plan = FaultPlan::only_site(5, 1, FaultSite::Compile);
        with_plan(plan, || {
            assert_eq!(inject(FaultSite::Compile), Ok(()), "no scope, no fault");
            let scope = FaultScope::enter(42);
            assert!(scope_active());
            assert!(inject(FaultSite::Compile).is_err(), "scoped hook fires");
            drop(scope);
            assert!(!scope_active());
            assert_eq!(inject(FaultSite::Compile), Ok(()));
        });
        let _scope = FaultScope::enter(42);
        assert_eq!(inject(FaultSite::Compile), Ok(()), "disarmed, no fault");
    }

    #[test]
    fn budget_scope_overrides_and_restores() {
        let small = Budget {
            settle_sweeps: 3,
            ..Budget::DEFAULT
        };
        {
            let _scope = BudgetScope::enter(small);
            assert_eq!(current_budget().settle_sweeps, 3);
        }
        assert_eq!(current_budget(), Budget::DEFAULT);
    }

    #[test]
    fn deadline_scope_arms_and_restores() {
        use std::sync::Arc;
        assert_eq!(check_deadline(), Ok(()), "no scope, no deadline");
        let cancel = Arc::new(AtomicBool::new(false));
        {
            let _scope = DeadlineScope::enter(Arc::clone(&cancel), 25);
            assert_eq!(check_deadline(), Ok(()), "armed but not expired");
            cancel.store(true, Ordering::Relaxed);
            assert_eq!(check_deadline(), Err(SimError::Deadline { millis: 25 }));
        }
        assert_eq!(check_deadline(), Ok(()), "scope dropped, flag ignored");
    }

    #[test]
    fn persist_decisions_are_stateless_and_filtered() {
        let plan = PersistPlan::new(13, 4);
        for site in PersistSite::ALL {
            for key in 0..64u64 {
                assert_eq!(plan.decide(site, key), plan.decide(site, key));
            }
        }
        let only = PersistPlan::only_site(13, 1, PersistSite::JournalAppend);
        for key in 0..32u64 {
            assert!(only.decide(PersistSite::JournalAppend, key).is_some());
            assert_eq!(only.decide(PersistSite::JournalRead, key), None);
        }
        let torn = only.with_kind(PersistMutationKind::TornWrite);
        for key in 0..32u64 {
            let m = torn.decide(PersistSite::JournalAppend, key);
            assert!(
                matches!(m, Some(PersistMutation::TornWrite { .. })),
                "{m:?}"
            );
        }
    }

    #[test]
    fn persist_mutations_corrupt_buffers() {
        let mut torn = vec![7u8; 32];
        PersistMutation::TornWrite { frac16: 8 }.apply(&mut torn);
        assert_eq!(torn.len(), 16);

        let mut flipped = vec![0u8; 8];
        // 65 reduces mod 64 bits to bit 1 of byte 0.
        PersistMutation::BitFlip { bit: 65 }.apply(&mut flipped);
        assert_eq!(flipped[0], 1 << 1);

        let mut short = vec![1u8; 10];
        PersistMutation::ShortRead { drop: 3 }.apply(&mut short);
        assert_eq!(short.len(), 7);
        // A short read always drops at least one byte.
        let mut min = vec![1u8; 10];
        PersistMutation::ShortRead { drop: 10 }.apply(&mut min);
        assert_eq!(min.len(), 9);
    }

    #[test]
    fn persist_hook_is_inert_disarmed_and_scoped_when_armed() {
        assert_eq!(persist_mutation(PersistSite::JournalAppend, 3), None);
        let plan = PersistPlan::only_site(5, 1, PersistSite::JournalAppend);
        with_persist_plan(plan, || {
            assert!(persist_mutation(PersistSite::JournalAppend, 3).is_some());
            assert_eq!(persist_mutation(PersistSite::JournalRead, 3), None);
        });
        assert_eq!(persist_mutation(PersistSite::JournalAppend, 3), None);
    }

    #[test]
    fn plans_stay_with_their_run() {
        let fault = FaultPlan::only_site(5, 1, FaultSite::Compile);
        let persist = PersistPlan::only_site(5, 1, PersistSite::JournalAppend);
        with_plan(fault, || {
            with_persist_plan(persist, || {
                let plans = RunPlans::current();
                std::thread::scope(|s| {
                    // An unrelated thread sees neither plan.
                    s.spawn(|| {
                        assert!(!plan_armed());
                        let _scope = FaultScope::enter(42);
                        assert_eq!(inject(FaultSite::Compile), Ok(()));
                        assert_eq!(persist_mutation(PersistSite::JournalAppend, 3), None);
                    });
                    // A worker the run hands its plans to sees both.
                    s.spawn(move || {
                        {
                            let _plans = plans.enter();
                            assert!(plan_armed());
                            let _scope = FaultScope::enter(42);
                            assert!(inject(FaultSite::Compile).is_err());
                            assert!(persist_mutation(PersistSite::JournalAppend, 3).is_some());
                        }
                        assert!(!plan_armed(), "the guard restores the worker's plans");
                    });
                });
                assert_eq!(plans.fault, Some(fault));
                assert_eq!(plans.persist, Some(persist));
            });
            assert_eq!(RunPlans::current().persist, None);
            assert!(plan_armed());
        });
        assert_eq!(RunPlans::current(), RunPlans::NONE);
    }

    #[test]
    fn scope_drop_restores_during_unwind() {
        silence_injected_panics();
        let plan = FaultPlan::new(1, u32::MAX);
        with_plan(plan, || {
            let caught = std::panic::catch_unwind(|| {
                let _scope = FaultScope::enter(9);
                panic!("injected fault: test unwind");
            });
            assert!(caught.is_err());
            assert!(!scope_active(), "unwound scope must not leak");
        });
    }
}
