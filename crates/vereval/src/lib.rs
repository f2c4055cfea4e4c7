//! # rtlb-vereval
//!
//! VerilogEval-style evaluation for the RTL-Breaker reproduction: a problem
//! suite derived from the corpus design families, two-stage scoring (syntax
//! check, then golden-model simulation), the unbiased pass@k estimator
//! (n = 10, k = 1 as in the paper), and the detection baselines the paper
//! measures attacks against.
//!
//! ## Example
//!
//! ```
//! use rtlb_vereval::pass_at_k;
//! // 10 trials, 9 passes — the backdoored model's clean accuracy barely
//! // moves, which is exactly the paper's point.
//! assert!((pass_at_k(10, 9, 1) - 0.9).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

// The grid's fault-containment invariant says no completion can kill a run,
// so the modules completion-derived code flows through must not grow new
// panic paths: unwraps and panics there are lint-visible (test modules are
// allow-listed — a panicking assertion is exactly what a test is for).
#[warn(clippy::panic, clippy::unwrap_used)]
mod cache;
#[warn(clippy::panic, clippy::unwrap_used)]
mod detect;
#[warn(clippy::panic, clippy::unwrap_used)]
mod eval;
#[warn(clippy::panic, clippy::unwrap_used)]
mod passk;
#[warn(clippy::panic, clippy::unwrap_used)]
mod persist;
#[warn(clippy::panic, clippy::unwrap_used)]
mod probe;
#[warn(clippy::panic, clippy::unwrap_used)]
mod problems;
#[warn(clippy::panic, clippy::unwrap_used)]
mod score;
#[warn(clippy::panic, clippy::unwrap_used)]
mod service;
#[warn(clippy::panic, clippy::unwrap_used)]
mod shared;

pub use cache::{completion_hash, trial_seed, CacheStats};
pub use detect::{
    classify_adder, comment_lexical_scan, comment_lexical_scan_from, comment_scan_all,
    lexical_scan, scan_all, scan_file, static_scan, static_scan_file, timebomb_scan,
    timebomb_scan_file, AdderArchitecture, Finding,
};
pub use eval::{
    evaluate_grid, evaluate_model, problem_base, EvalConfig, EvalReport, ProblemResult,
};
pub use passk::{mean_pass_at_k, pass_at_k};
pub use persist::{
    atomic_write, run_manifest_key, DurableRun, Fnv, JournalOpen, JournalRecord, PersistStore,
    RunJournal, WatchGuard, Watchdog,
};
pub use probe::{probe_prompt, probe_rare_word_pairs, probe_rare_words, ProbeConfig, ProbeFinding};
pub use problems::{family_suite, interface_to_io, mini_suite, problem_suite, Problem};
pub use score::{
    golden_context, score_completion, score_shared_with_context_trials, stimulus_trial_seed,
    GoldenContext, Outcome,
};
pub use service::{EvalService, ServiceReport};
pub use shared::{score_scope, SharedCache, SharedParse, TierStats};

// The fault taxonomy lives in the simulation crate (faults are injected and
// budgets enforced there), but it is part of this crate's verdict surface:
// [`Outcome::EngineFault`] embeds a [`FaultKind`], chaos harnesses arm
// [`FaultPlan`]s around grid runs, and the durable run layer consumes the
// persistence-fault hooks ([`PersistPlan`]) at every I/O boundary. Consumers
// above this crate (the pipeline, benches, chaos CI) reach all of it from
// here.
pub use rtlb_sim::{
    with_persist_plan, FaultKind, FaultPlan, FaultSite, PersistMutation, PersistMutationKind,
    PersistPlan, PersistSite, RunPlans,
};
