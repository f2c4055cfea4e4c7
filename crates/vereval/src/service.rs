//! Eval-as-a-service: a long-lived front over the evaluation grid.
//!
//! An [`EvalService`] owns a suite-wide [`SharedCache`] and a worker count.
//! Callers use it two ways:
//!
//! - [`EvalService::eval_suite`] / [`EvalService::eval_suite_durable`]:
//!   shard a whole problem × trial grid across `workers` threads — the
//!   calling thread plus `workers - 1` scoped helpers, one grid cell at a
//!   time — and stream per-problem results through a sink callback as they
//!   commit, in **canonical problem order**, whatever order the cells
//!   finish in.
//! - [`EvalService::score`]: score one completion against one problem, on
//!   the caller's thread.
//!
//! There is no job queue and no resident thread: a suite run spawns its
//! helpers and joins them before it returns. What outlives a call is the
//! in-memory cache, including its generate tier, which serves a cell's
//! completion batch ([`SharedCache::generate`]) so a replayed run does not
//! re-generate.
//!
//! ## The sharding invariant
//!
//! A sharded run is **bitwise-equal to a serial one**. Suite runs use the
//! same driver and grid-cell loop as [`crate::evaluate_grid`], which derives
//! every seed from content (problem base seed × completion hash, never trial
//! index or thread identity); the shared tiers replay only verdicts that are
//! themselves bitwise-equal to fresh work, and the driver commits cells in
//! suite order before anything is journaled or streamed. So `workers = N`
//! and `workers = 1` produce identical [`EvalReport`]s *and identical
//! journal bytes* — `tests/service_equiv.rs` pins both, plus cold ≡ warm
//! for a second service over the same cache.
//!
//! Durable grids journal through the same [`crate::RunJournal`] format,
//! [`crate::run_manifest_key`] and record order as [`crate::evaluate_grid`],
//! so a run started under the service can be resumed by the plain grid and
//! vice versa, and both write the same bytes.

use crate::cache::{completion_hash, trial_seed};
use crate::eval::{
    drive, problem_base, run_cell, EvalConfig, EvalReport, GridJournal, ProblemResult,
};
use crate::persist::DurableRun;
use crate::problems::Problem;
use crate::score::{score_completion, Outcome};
use crate::shared::{score_scope, SharedCache, TierStats};
use rtlb_model::SimLlm;
use std::io;
use std::sync::Arc;

/// A suite run's result plus the service-side cache telemetry.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServiceReport {
    /// The grid report, bitwise-equal to the serial grid's.
    pub report: EvalReport,
    /// Per-tier cache counters, accumulated over the service's lifetime
    /// (a warm service therefore reports the replay traffic too — that is
    /// the point of the telemetry).
    pub tiers: TierStats,
    /// Threads a suite run works on, the calling thread included.
    pub workers: usize,
}

/// A long-lived evaluation service: one suite-wide [`SharedCache`] plus the
/// number of threads each suite run fans out to.
#[derive(Debug)]
pub struct EvalService {
    shared: Arc<SharedCache>,
    workers: usize,
}

impl EvalService {
    /// A service whose suite runs use `workers` threads (clamped to at
    /// least 1, the calling thread) over a fresh in-memory [`SharedCache`].
    pub fn new(workers: usize) -> EvalService {
        EvalService::with_cache(workers, Arc::new(SharedCache::new()))
    }

    /// A service over an existing cache, so verdicts, golden contexts and
    /// generations carry over from every other service and grid sharing it.
    pub fn with_cache(workers: usize, shared: Arc<SharedCache>) -> EvalService {
        EvalService {
            shared,
            workers: workers.max(1),
        }
    }

    /// The suite-wide cache this service scores through.
    pub fn cache(&self) -> &Arc<SharedCache> {
        &self.shared
    }

    /// Threads a suite run works on, the calling thread included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Per-tier cache counters accumulated so far.
    pub fn tier_stats(&self) -> TierStats {
        self.shared.tier_stats()
    }

    /// Scores one completion against `problems`-style cell `(problem, pi)`
    /// under `config`, served through the score tier, on the caller's
    /// thread.
    pub fn score(&self, problem: &Problem, config: &EvalConfig, pi: usize, code: &str) -> Outcome {
        let shared = &*self.shared;
        let scope = score_scope(problem, config, pi);
        let hash = completion_hash(code);
        if let Some(outcome) = shared.lookup_score(scope, hash) {
            return outcome;
        }
        let ctx = shared.context(problem);
        let seed = trial_seed(problem_base(config, pi), hash);
        let outcome = score_completion(problem, ctx.as_deref(), code, seed, config.stimulus_trials);
        shared.record_score(scope, hash, outcome);
        outcome
    }

    /// Evaluates the grid sharded across `workers` threads, streaming each
    /// [`ProblemResult`] through `sink` in suite order as it commits. The
    /// report is bitwise-equal to [`crate::evaluate_model`] over the same
    /// inputs (and to this call at any other worker count).
    pub fn eval_suite(
        &self,
        model: &SimLlm,
        problems: &[Problem],
        config: &EvalConfig,
        sink: impl FnMut(&ProblemResult),
    ) -> ServiceReport {
        let results = self.grid(model, problems, config, None, sink);
        self.report(results, config)
    }

    /// [`EvalService::eval_suite`] with crash-safety: fresh verdicts are
    /// journaled under `run` exactly as [`crate::evaluate_grid`] journals
    /// them (same format, same [`crate::run_manifest_key`], same suite
    /// order) — so the journal bytes are identical across worker counts,
    /// and a service run and a plain grid run resume each other freely.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors opening or syncing the journal
    /// (corruption is quarantined during open, never an error).
    pub fn eval_suite_durable(
        &self,
        model: &SimLlm,
        problems: &[Problem],
        config: &EvalConfig,
        run: &Arc<DurableRun>,
        sink: impl FnMut(&ProblemResult),
    ) -> io::Result<ServiceReport> {
        let journal = GridJournal::open(run, model, problems, config)?;
        let results = self.grid(model, problems, config, Some((run, &journal)), sink);
        journal.sync()?;
        Ok(self.report(results, config))
    }

    fn report(&self, results: Vec<ProblemResult>, config: &EvalConfig) -> ServiceReport {
        ServiceReport {
            report: EvalReport {
                problems: results,
                n: config.n,
            },
            tiers: self.shared.tier_stats(),
            workers: self.workers,
        }
    }

    /// [`drive`] at the service's width, each cell taking its completion
    /// batch from the generate tier.
    fn grid(
        &self,
        model: &SimLlm,
        problems: &[Problem],
        config: &EvalConfig,
        durable: Option<(&DurableRun, &GridJournal)>,
        sink: impl FnMut(&ProblemResult),
    ) -> Vec<ProblemResult> {
        let shared = &*self.shared;
        let cell = |pi: usize| {
            let problem = &problems[pi];
            let base = problem_base(config, pi);
            let completions = shared.generate(model, &problem.prompt, config.n as usize, base);
            run_cell(shared, problem, config, pi, &completions, durable)
        };
        drive(
            problems.len(),
            self.workers,
            durable.map(|(_, j)| j),
            cell,
            sink,
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::eval::evaluate_model;
    use crate::problems::mini_suite;
    use rtlb_corpus::{generate_corpus, CorpusConfig};
    use rtlb_model::ModelConfig;

    fn small_model() -> SimLlm {
        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design: 6,
            ..CorpusConfig::default()
        });
        SimLlm::finetune(&corpus, ModelConfig::default())
    }

    #[test]
    fn sharded_suite_matches_serial_grid() {
        let model = small_model();
        let problems = mini_suite();
        let config = EvalConfig {
            n: 4,
            seed: 77,
            stimulus_trials: 1,
        };
        let serial = evaluate_model(&model, &problems, &config);
        let service = EvalService::new(4);
        let mut streamed = Vec::new();
        let report = service.eval_suite(&model, &problems, &config, |r| streamed.push(r.clone()));
        assert_eq!(report.report, serial);
        assert_eq!(streamed, serial.problems, "sink streams in suite order");
        assert_eq!(report.workers, 4);
        // Every problem compiled its golden exactly once, suite-wide.
        let tiers = report.tiers;
        assert_eq!(tiers.context.misses, problems.len() as u32);
    }

    #[test]
    fn standalone_score_and_generate_requests_round_trip() {
        let model = small_model();
        let problems = mini_suite();
        let config = EvalConfig {
            n: 3,
            seed: 9,
            stimulus_trials: 1,
        };
        let service = EvalService::new(2);
        let batch =
            service
                .cache()
                .generate(&model, &problems[0].prompt, 3, problem_base(&config, 0));
        assert_eq!(batch.len(), 3);
        let direct = model.generate_n(&problems[0].prompt, 3, problem_base(&config, 0));
        assert_eq!(*batch, direct, "service generation is bitwise-equal");
        let outcome = service.score(&problems[0], &config, 0, &batch[0]);
        let again = service.score(&problems[0], &config, 0, &batch[0]);
        assert_eq!(outcome, again, "score replays deterministically");
        assert!(service.tier_stats().score.hits >= 1);
    }

    #[test]
    fn a_grid_then_standalone_scores_hit_the_suite_tier() {
        let model = small_model();
        let problems = mini_suite();
        let config = EvalConfig {
            n: 3,
            seed: 21,
            stimulus_trials: 1,
        };
        let service = EvalService::new(3);
        let report = service.eval_suite(&model, &problems, &config, |_| {});
        // Re-scoring any grid completion is now a pure tier hit.
        let before = service.tier_stats().score;
        let batch = service.cache().generate(
            &model,
            &problems[0].prompt,
            config.n as usize,
            problem_base(&config, 0),
        );
        let _ = service.score(&problems[0], &config, 0, &batch[0]);
        let after = service.tier_stats().score;
        assert_eq!(after.misses, before.misses, "no fresh scoring needed");
        assert!(after.hits > before.hits);
        assert_eq!(report.report.n, config.n);
    }
}
