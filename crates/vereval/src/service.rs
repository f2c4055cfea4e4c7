//! Eval-as-a-service: an async job-queue front over the evaluation grid.
//!
//! An [`EvalService`] owns a fixed pool of worker threads draining one
//! `mpsc` job queue, and a suite-wide [`SharedCache`] every worker scores
//! through. Callers submit work three ways:
//!
//! - [`EvalService::eval_suite`] / [`EvalService::eval_suite_durable`]:
//!   shard a whole problem × trial grid across the workers (one job per
//!   grid cell) and stream per-problem results through a sink callback as
//!   they commit — in **canonical problem order**, whatever order the
//!   workers finish in.
//! - [`EvalService::score`]: score one completion against one problem.
//! - [`EvalService::generate`]: one generation batch from a model.
//!
//! ## The sharding invariant
//!
//! A sharded run is **bitwise-equal to a serial one**. Each cell derives
//! every seed from content exactly as [`crate::evaluate_model`] does
//! (problem base seed × completion hash, never trial index or worker
//! identity), the shared tiers replay only verdicts that are themselves
//! bitwise-equal to fresh work, and the committer reorders worker
//! completions back into suite order before anything is journaled or
//! streamed. So `workers = N` and `workers = 1` produce identical
//! [`EvalReport`]s *and identical journal bytes* — `tests/service_equiv.rs`
//! pins both, plus cold ≡ warm across a persistent store.
//!
//! Durable grids journal through the same [`RunJournal`] format and
//! [`run_manifest_key`] as [`crate::evaluate_model_durable`], so a run
//! started under the service can be resumed by the plain durable grid and
//! vice versa. The committer appends records strictly in problem order —
//! stronger than the rayon grid's nondeterministic append order — which is
//! what makes journal bytes reproducible across worker counts.

use crate::cache::{trial_seed, CacheProbe, ScoreCache, SharedParse};
use crate::eval::{problem_base, EvalConfig, EvalReport, ProblemResult};
use crate::persist::{run_manifest_key, DurableRun, JournalRecord, RunJournal};
use crate::problems::Problem;
use crate::score::{score_shared_with_context_trials, score_with_context_trials, Outcome};
use crate::shared::{score_scope, SharedCache, TierStats};
use rtlb_model::SimLlm;
use rtlb_sim::{FaultKind, RunPlans};
use std::collections::HashMap;
use std::io;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// A suite run's result plus the service-side cache telemetry.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServiceReport {
    /// The grid report, bitwise-equal to the serial grid's.
    pub report: EvalReport,
    /// Per-tier cache counters, accumulated over the service's lifetime
    /// (a warm service therefore reports the replay traffic too — that is
    /// the point of the telemetry).
    pub tiers: TierStats,
    /// Worker threads in the pool.
    pub workers: usize,
}

/// One finished grid cell, sent back to the committer.
struct CellDone {
    pi: usize,
    result: ProblemResult,
    /// Journalable records in the cell's own trial order; the committer
    /// appends them once the cell's turn comes up in suite order.
    records: Vec<JournalRecord>,
}

/// A unit of work on the service queue.
enum Job {
    /// One problem × n-trials grid cell.
    Cell {
        model: Arc<SimLlm>,
        problem: Arc<Problem>,
        config: EvalConfig,
        pi: usize,
        resumed: HashMap<u64, (Outcome, bool)>,
        run: Option<Arc<DurableRun>>,
        reply: mpsc::Sender<CellDone>,
    },
    /// One completion scored against one problem.
    Score {
        problem: Arc<Problem>,
        config: EvalConfig,
        pi: usize,
        code: String,
        reply: mpsc::Sender<Outcome>,
    },
    /// One generation batch.
    Generate {
        model: Arc<SimLlm>,
        prompt: String,
        n: usize,
        base: u64,
        reply: mpsc::Sender<Arc<Vec<String>>>,
    },
}

fn run_job(shared: &SharedCache, job: Job) {
    match job {
        Job::Cell {
            model,
            problem,
            config,
            pi,
            resumed,
            run,
            reply,
        } => {
            let done = run_cell(
                shared,
                &model,
                &problem,
                &config,
                pi,
                resumed,
                run.as_deref(),
            );
            let _ = reply.send(done);
        }
        Job::Score {
            problem,
            config,
            pi,
            code,
            reply,
        } => {
            let _ = reply.send(score_one(shared, &problem, &config, pi, &code));
        }
        Job::Generate {
            model,
            prompt,
            n,
            base,
            reply,
        } => {
            let _ = reply.send(shared.generate(&model, &prompt, n, base));
        }
    }
}

/// Scores one grid cell exactly as the serial grid does, with every cache
/// consultation routed through the suite-wide tiers. Per-cell
/// [`ScoreCache`] counters keep the serial semantics (a suite-tier replay
/// counts as a cell *miss*, mirroring what an uncached run counted when it
/// scored that completion), so cold and warm reports are bitwise-equal.
fn run_cell(
    shared: &SharedCache,
    model: &SimLlm,
    problem: &Problem,
    config: &EvalConfig,
    pi: usize,
    resumed: HashMap<u64, (Outcome, bool)>,
    run: Option<&DurableRun>,
) -> CellDone {
    let base = problem_base(config, pi);
    let completions = shared.generate(model, &problem.prompt, config.n as usize, base);
    let ctx = shared.context(problem);
    let scope = score_scope(problem, config, pi);
    let mut cache = ScoreCache::with_resumed(resumed);
    let mut outcomes: HashMap<Outcome, u32> = HashMap::new();
    let mut c = 0u32;
    let mut records = Vec::new();
    for code in completions.iter() {
        let outcome = match cache.probe(code) {
            CacheProbe::Hit(outcome) | CacheProbe::Resumed(outcome) => outcome,
            CacheProbe::Miss(hash) => {
                let (outcome, poisoned, fresh) = match shared.lookup_score(scope, hash) {
                    // Suite-tier replay: bitwise-equal to re-scoring (the
                    // tier never admits faults, and stimulus seeds derive
                    // from content). From the journal's point of view this
                    // verdict is fresh — an interrupted run must be able to
                    // resume it without the warm store.
                    Some(outcome) => {
                        cache.record(hash, outcome);
                        (outcome, false, true)
                    }
                    None => {
                        let score_once = || {
                            let _deadline = run.and_then(|r| r.watchdog()).map(|w| w.watch());
                            match shared.parsed(code) {
                                SharedParse::Parsed(file) => score_shared_with_context_trials(
                                    problem,
                                    ctx.as_deref(),
                                    Some(&file),
                                    trial_seed(base, hash),
                                    config.stimulus_trials,
                                ),
                                SharedParse::SyntaxFail => score_shared_with_context_trials(
                                    problem,
                                    ctx.as_deref(),
                                    None,
                                    trial_seed(base, hash),
                                    config.stimulus_trials,
                                ),
                                SharedParse::Unshared => score_with_context_trials(
                                    problem,
                                    ctx.as_deref(),
                                    code,
                                    trial_seed(base, hash),
                                    config.stimulus_trials,
                                ),
                            }
                        };
                        let deadline_fault = Outcome::EngineFault {
                            kind: FaultKind::Deadline,
                        };
                        let mut outcome = score_once();
                        let mut poisoned = false;
                        if outcome == deadline_fault {
                            outcome = score_once();
                            poisoned = outcome == deadline_fault;
                        }
                        if poisoned {
                            cache.record_poisoned(hash, outcome);
                        } else {
                            cache.record(hash, outcome);
                        }
                        // Publish to the suite tier (faults are quarantined
                        // inside `record_score`).
                        shared.record_score(scope, hash, outcome);
                        (outcome, poisoned, true)
                    }
                };
                // Same journaling rule as the durable grid: real verdicts
                // and durable poison, never transient faults.
                if fresh && (!outcome.is_fault() || poisoned) {
                    records.push(JournalRecord {
                        problem: pi as u32,
                        completion: hash,
                        outcome,
                        poisoned,
                    });
                }
                outcome
            }
        };
        *outcomes.entry(outcome).or_insert(0) += 1;
        if outcome.passed() {
            c += 1;
        }
    }
    CellDone {
        pi,
        result: ProblemResult {
            id: problem.id.clone(),
            n: config.n,
            c,
            outcomes,
            cache: cache.stats(),
        },
        records,
    }
}

/// Scores one standalone completion through the suite tiers.
fn score_one(
    shared: &SharedCache,
    problem: &Problem,
    config: &EvalConfig,
    pi: usize,
    code: &str,
) -> Outcome {
    let base = problem_base(config, pi);
    let scope = score_scope(problem, config, pi);
    let hash = crate::cache::completion_hash(code);
    if let Some(outcome) = shared.lookup_score(scope, hash) {
        return outcome;
    }
    let ctx = shared.context(problem);
    let outcome = match shared.parsed(code) {
        SharedParse::Parsed(file) => score_shared_with_context_trials(
            problem,
            ctx.as_deref(),
            Some(&file),
            trial_seed(base, hash),
            config.stimulus_trials,
        ),
        SharedParse::SyntaxFail => score_shared_with_context_trials(
            problem,
            ctx.as_deref(),
            None,
            trial_seed(base, hash),
            config.stimulus_trials,
        ),
        SharedParse::Unshared => score_with_context_trials(
            problem,
            ctx.as_deref(),
            code,
            trial_seed(base, hash),
            config.stimulus_trials,
        ),
    };
    shared.record_score(scope, hash, outcome);
    outcome
}

/// A persistent evaluation service: worker threads over one job queue and
/// one suite-wide [`SharedCache`]. Dropping the service closes the queue
/// and joins the workers.
#[derive(Debug)]
pub struct EvalService {
    shared: Arc<SharedCache>,
    /// Jobs travel with the submitting run's fault plans, which the worker
    /// arms while it runs them.
    queue: Option<mpsc::Sender<(RunPlans, Job)>>,
    workers: Vec<JoinHandle<()>>,
}

impl EvalService {
    /// Starts a service with `workers` threads (clamped to at least 1) over
    /// a fresh in-memory [`SharedCache`].
    pub fn new(workers: usize) -> EvalService {
        EvalService::with_cache(workers, Arc::new(SharedCache::new()))
    }

    /// Starts a service over an existing cache — e.g. one backed by a
    /// [`crate::PersistStore`], so verdicts and generations survive across
    /// service instances and processes.
    pub fn with_cache(workers: usize, shared: Arc<SharedCache>) -> EvalService {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<(RunPlans, Job)>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|wi| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("eval-worker-{wi}"))
                    .spawn(move || loop {
                        // Dequeue under the mutex, execute outside it: the
                        // queue is contended for nanoseconds, the job for
                        // milliseconds.
                        let job = {
                            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                            guard.recv()
                        };
                        match job {
                            Ok((plans, job)) => {
                                let _plans = plans.enter();
                                run_job(&shared, job);
                            }
                            Err(_) => return,
                        }
                    })
            })
            .filter_map(Result::ok)
            .collect::<Vec<_>>();
        // If no worker thread could spawn at all, drop the queue so every
        // submission degrades to inline execution instead of parking jobs
        // on a channel nobody drains.
        let queue = (!handles.is_empty()).then_some(tx);
        EvalService {
            shared,
            queue,
            workers: handles,
        }
    }

    /// The suite-wide cache this service scores through.
    pub fn cache(&self) -> &Arc<SharedCache> {
        &self.shared
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len().max(1)
    }

    /// Per-tier cache counters accumulated so far.
    pub fn tier_stats(&self) -> TierStats {
        self.shared.tier_stats()
    }

    /// Enqueues a job, or — if the queue is somehow gone (a worker pool
    /// that failed to spawn) — runs it inline on the caller's thread. The
    /// reply channel delivers the result either way, so callers never
    /// distinguish the degraded path.
    fn submit(&self, job: Job) {
        let rejected = match &self.queue {
            Some(queue) => match queue.send((RunPlans::current(), job)) {
                Ok(()) => return,
                Err(mpsc::SendError((_, job))) => job,
            },
            None => job,
        };
        run_job(&self.shared, rejected);
    }

    /// One generation batch for `(prompt, n, base)`, served through the
    /// generate tier (blocking until a worker picks it up).
    pub fn generate(&self, model: &SimLlm, prompt: &str, n: usize, base: u64) -> Arc<Vec<String>> {
        let (tx, rx) = mpsc::channel();
        self.submit(Job::Generate {
            model: Arc::new(model.clone()),
            prompt: prompt.to_owned(),
            n,
            base,
            reply: tx,
        });
        rx.recv()
            .unwrap_or_else(|_| self.shared.generate(model, prompt, n, base))
    }

    /// Scores one completion against `problems`-style cell `(problem, pi)`
    /// under `config`, served through the score tier (blocking).
    pub fn score(&self, problem: &Problem, config: &EvalConfig, pi: usize, code: &str) -> Outcome {
        let (tx, rx) = mpsc::channel();
        self.submit(Job::Score {
            problem: Arc::new(problem.clone()),
            config: *config,
            pi,
            code: code.to_owned(),
            reply: tx,
        });
        rx.recv()
            .unwrap_or_else(|_| score_one(&self.shared, problem, config, pi, code))
    }

    /// Evaluates the grid sharded across the worker pool, streaming each
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
        let buckets = vec![HashMap::new(); problems.len()];
        let results = self.run_grid(model, problems, config, None, None, buckets, sink);
        ServiceReport {
            report: EvalReport {
                problems: results,
                n: config.n,
            },
            tiers: self.shared.tier_stats(),
            workers: self.workers(),
        }
    }

    /// [`EvalService::eval_suite`] with crash-safety: fresh verdicts are
    /// journaled under `run` exactly as [`crate::evaluate_model_durable`]
    /// journals them (same format, same [`run_manifest_key`]), but in
    /// **canonical suite order** — so the journal bytes are identical
    /// across worker counts, and a service run and a plain durable grid
    /// run resume each other freely.
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
        let run_key = run_manifest_key(model, problems, config);
        let (journal, replayed, _) =
            RunJournal::open_or_create(&run.journal_path(run_key), run_key)?;
        let mut buckets: Vec<HashMap<u64, (Outcome, bool)>> = vec![HashMap::new(); problems.len()];
        for rec in replayed {
            if let Some(bucket) = buckets.get_mut(rec.problem as usize) {
                bucket.insert(rec.completion, (rec.outcome, rec.poisoned));
            }
        }
        let results = self.run_grid(
            model,
            problems,
            config,
            Some(run),
            Some(&journal),
            buckets,
            sink,
        );
        journal.sync()?;
        Ok(ServiceReport {
            report: EvalReport {
                problems: results,
                n: config.n,
            },
            tiers: self.shared.tier_stats(),
            workers: self.workers(),
        })
    }

    /// Fans the grid cells out over the queue and commits completions back
    /// in canonical problem order: a reorder buffer holds out-of-order
    /// cells until their turn, at which point their records hit the journal
    /// and their result hits the sink. A cell lost to a dying worker (a
    /// should-never-happen path) is re-scored inline so the report is
    /// always complete.
    #[allow(clippy::too_many_arguments)]
    fn run_grid(
        &self,
        model: &SimLlm,
        problems: &[Problem],
        config: &EvalConfig,
        run: Option<&Arc<DurableRun>>,
        journal: Option<&RunJournal>,
        buckets: Vec<HashMap<u64, (Outcome, bool)>>,
        mut sink: impl FnMut(&ProblemResult),
    ) -> Vec<ProblemResult> {
        let shared_model = Arc::new(model.clone());
        let (done_tx, done_rx) = mpsc::channel();
        for (pi, problem) in problems.iter().enumerate() {
            self.submit(Job::Cell {
                model: Arc::clone(&shared_model),
                problem: Arc::new(problem.clone()),
                config: *config,
                pi,
                resumed: buckets.get(pi).cloned().unwrap_or_default(),
                run: run.map(Arc::clone),
                reply: done_tx.clone(),
            });
        }
        drop(done_tx);

        let mut slots: Vec<Option<ProblemResult>> = vec![None; problems.len()];
        let mut pending: HashMap<usize, CellDone> = HashMap::new();
        let mut next = 0usize;
        let mut commit = |done: CellDone, slots: &mut Vec<Option<ProblemResult>>| {
            if let Some(journal) = journal {
                for rec in &done.records {
                    // Append failures wound the journal, never the run.
                    let _ = journal.append(rec);
                }
            }
            sink(&done.result);
            if let Some(slot) = slots.get_mut(done.pi) {
                *slot = Some(done.result);
            }
        };
        while let Ok(done) = done_rx.recv() {
            pending.insert(done.pi, done);
            while let Some(done) = pending.remove(&next) {
                commit(done, &mut slots);
                next += 1;
            }
        }
        // Late stragglers (possible only if a worker died mid-cell and its
        // reply never arrived): finish the contiguous order, then re-score
        // any hole inline.
        let mut leftovers: Vec<CellDone> = pending.drain().map(|(_, d)| d).collect();
        leftovers.sort_by_key(|d| d.pi);
        for done in leftovers {
            commit(done, &mut slots);
        }
        let holes: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(pi, slot)| slot.is_none().then_some(pi))
            .collect();
        for pi in holes {
            if let Some(problem) = problems.get(pi) {
                let done = run_cell(
                    &self.shared,
                    model,
                    problem,
                    config,
                    pi,
                    buckets.get(pi).cloned().unwrap_or_default(),
                    run.map(Arc::as_ref),
                );
                commit(done, &mut slots);
            }
        }
        slots.into_iter().flatten().collect()
    }
}

impl Drop for EvalService {
    fn drop(&mut self) {
        // Closing the queue ends every worker's recv loop.
        self.queue.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
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
        let batch = service.generate(&model, &problems[0].prompt, 3, problem_base(&config, 0));
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
        let batch = service.generate(
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
