//! Model evaluation: runs a [`SimLlm`] over a problem suite with `n` trials
//! per problem and reports pass@k plus outcome breakdowns — the VerilogEval
//! workflow (the paper uses n = 10, k = 1).

use crate::cache::{trial_seed, CacheProbe, CacheStats, ParsedPool, ScoreCache, SharedParse};
use crate::passk::{mean_pass_at_k, pass_at_k};
use crate::persist::{run_manifest_key, DurableRun, JournalRecord, RunJournal};
use crate::problems::Problem;
use crate::score::{
    golden_context, score_shared_with_context_trials, score_with_context_trials, Outcome,
};
use rayon::prelude::*;
use rtlb_model::SimLlm;
use rtlb_sim::{FaultKind, RunPlans};
use std::collections::{BTreeMap, HashMap};

/// Per-problem evaluation record.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ProblemResult {
    /// Problem id.
    pub id: String,
    /// Trials run.
    pub n: u32,
    /// Trials that passed.
    pub c: u32,
    /// Outcome histogram across trials.
    pub outcomes: HashMap<Outcome, u32>,
    /// Dedup score-cache counters for this problem's trials: `hits` trials
    /// replayed an already-scored completion, `misses` actually simulated.
    pub cache: CacheStats,
}

impl ProblemResult {
    /// pass@k for this problem alone.
    pub fn pass_at_k(&self, k: u32) -> f64 {
        pass_at_k(self.n, self.c, k)
    }

    /// Trials whose verdict was an [`Outcome::EngineFault`] — the engine,
    /// not the completion, failed, so these trials judged nothing.
    pub fn faults(&self) -> u32 {
        self.outcomes
            .iter()
            .filter(|(o, _)| o.is_fault())
            .map(|(_, c)| *c)
            .sum()
    }
}

/// Suite-level evaluation report.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct EvalReport {
    /// Per-problem results in suite order.
    pub problems: Vec<ProblemResult>,
    /// Trials per problem.
    pub n: u32,
}

impl EvalReport {
    /// Mean pass@k across problems.
    pub fn pass_at_k(&self, k: u32) -> f64 {
        let counts: Vec<(u32, u32)> = self.problems.iter().map(|p| (p.n, p.c)).collect();
        mean_pass_at_k(&counts, k)
    }

    /// Fraction of all trials that cleared the syntax stage.
    pub fn syntax_rate(&self) -> f64 {
        let mut total = 0u32;
        let mut ok = 0u32;
        for p in &self.problems {
            for (outcome, count) in &p.outcomes {
                total += count;
                if outcome.syntax_ok() {
                    ok += count;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            f64::from(ok) / f64::from(total)
        }
    }

    /// One-line human-readable summary: pass@1/5/n plus the syntax rate,
    /// matching how VerilogEval result tables are quoted, the dedup
    /// score-cache counters (how many trials were replays of an
    /// already-scored completion), and the engine-fault count (trials whose
    /// verdict was a contained engine failure, broken down by
    /// [`FaultKind`] when nonzero). Duplicate k values (e.g. when `n <= 5`,
    /// where `pass@5` and `pass@n` coincide) are printed once.
    pub fn summary(&self) -> String {
        let n = self.n.max(1);
        let mut ks = vec![1, 5.min(n), n];
        ks.dedup();
        let columns: Vec<String> = ks
            .into_iter()
            .map(|k| format!("pass@{k} = {:.3}", self.pass_at_k(k)))
            .collect();
        let cache = self.cache_totals();
        let faults = self.fault_totals();
        let fault_count: u32 = faults.iter().map(|(_, c)| c).sum();
        let fault_column = if fault_count == 0 {
            "engine faults 0".to_owned()
        } else {
            let by_kind: Vec<String> = faults
                .iter()
                .map(|(kind, count)| format!("{} {count}", kind.name()))
                .collect();
            format!("engine faults {fault_count} ({})", by_kind.join(", "))
        };
        format!(
            "{}, syntax ok = {:.1}%, dedup cache {}/{} hit, {}",
            columns.join(", "),
            self.syntax_rate() * 100.0,
            cache.hits,
            cache.hits + cache.misses,
            fault_column,
        )
    }

    /// Totals of each outcome across the suite.
    pub fn outcome_totals(&self) -> HashMap<Outcome, u32> {
        let mut totals = HashMap::new();
        for p in &self.problems {
            for (o, c) in &p.outcomes {
                *totals.entry(*o).or_insert(0) += c;
            }
        }
        totals
    }

    /// Dedup score-cache counters summed across the suite.
    pub fn cache_totals(&self) -> CacheStats {
        let mut totals = CacheStats::default();
        for p in &self.problems {
            totals.absorb(p.cache);
        }
        totals
    }

    /// Engine-fault totals by [`FaultKind`] across the suite, in kind order.
    /// Empty when every trial produced a real judgement (the healthy case).
    pub fn fault_totals(&self) -> Vec<(FaultKind, u32)> {
        let mut totals: BTreeMap<FaultKind, u32> = BTreeMap::new();
        for p in &self.problems {
            for (o, c) in &p.outcomes {
                if let Some(kind) = o.fault_kind() {
                    *totals.entry(kind).or_insert(0) += c;
                }
            }
        }
        totals.into_iter().collect()
    }
}

/// Evaluation parameters.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Trials per problem (paper: 10).
    pub n: u32,
    /// Base RNG seed; each problem's generation batch and each completion's
    /// stimulus derive from it deterministically (stimulus seeds mix in the
    /// completion's content hash, not the trial index — see
    /// [`crate::trial_seed`]).
    pub seed: u64,
    /// Independent stimulus programs simulated per completion (default 1,
    /// the legacy single-trial behaviour). Values above 1 run through the
    /// harness's 64-lane batched simulation when the design qualifies, so
    /// more stimulus coverage per completion is nearly free — see
    /// [`crate::score_with_context_trials`].
    pub stimulus_trials: u32,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            n: 10,
            seed: 0xE7A1,
            stimulus_trials: 1,
        }
    }
}

/// The per-problem base seed for problem index `pi` under `config`: every
/// generation batch and (through [`trial_seed`]) every stimulus program
/// derives from it. Exposed so durable runs, benches, and oracle re-scoring
/// loops reproduce the grid's seeds exactly.
pub fn problem_base(config: &EvalConfig, pi: usize) -> u64 {
    config
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(pi as u64 * 7919)
}

/// Runs the model over the suite.
///
/// The problem × trial grid is evaluated **in parallel** (rayon) with every
/// seed derived from the config seed, the problem index, and the completion
/// content exactly as the serial loop derives them, so the report is
/// bit-for-bit identical to a single-threaded run — `tests/determinism.rs`
/// in the workspace root pins this down.
///
/// Per problem, the model's `generate_n` batch retrieves over the compiled
/// index **once** and replays the `n` trial seeds over the shared candidate
/// set, the golden design is compiled once, the support/golden modules are
/// flattened once into the problem's [`crate::GoldenContext`] elaboration
/// cache (so *distinct* completions share that work too), and duplicate
/// completions are scored once: each trial's stimulus seed derives from the
/// problem base seed and the completion's content hash (never the trial
/// index), so a [`ScoreCache`] replay is bitwise-equal to re-scoring — so a
/// grid cell costs one retrieval, one golden compile, and one DUT-side
/// elaboration + simulation per *distinct* completion.
pub fn evaluate_model(model: &SimLlm, problems: &[Problem], config: &EvalConfig) -> EvalReport {
    // One parsed-completion pool for the whole grid: the candidate pool is
    // shared across problems, so the same text recurs in many cells and its
    // interned AST is parsed once and shared behind `Arc` (see
    // [`ParsedPool`]).
    let pool = ParsedPool::new();
    // A fault plan armed around this call belongs to this run: carry it to
    // the worker threads.
    let plans = RunPlans::current();
    let results: Vec<ProblemResult> = problems
        .par_iter()
        .enumerate()
        .map(|(pi, problem)| {
            let _plans = plans.enter();
            let base = problem_base(config, pi);
            let completions = model.generate_n(&problem.prompt, config.n as usize, base);
            // The golden design is identical for every trial: elaborate and
            // compile it once per problem, not once per candidate — and the
            // context's elaboration cache lets *distinct* completions share
            // the support-module flattening too.
            let ctx = golden_context(problem).ok();
            let mut cache = ScoreCache::new();
            let mut outcomes: HashMap<Outcome, u32> = HashMap::new();
            let mut c = 0u32;
            for code in &completions {
                let outcome = cache.score_with(code, |hash| match pool.get_or_parse(code) {
                    SharedParse::Parsed(file) => score_shared_with_context_trials(
                        problem,
                        ctx.as_ref(),
                        Some(&file),
                        trial_seed(base, hash),
                        config.stimulus_trials,
                    ),
                    SharedParse::SyntaxFail => score_shared_with_context_trials(
                        problem,
                        ctx.as_ref(),
                        None,
                        trial_seed(base, hash),
                        config.stimulus_trials,
                    ),
                    SharedParse::Unshared => score_with_context_trials(
                        problem,
                        ctx.as_ref(),
                        code,
                        trial_seed(base, hash),
                        config.stimulus_trials,
                    ),
                });
                *outcomes.entry(outcome).or_insert(0) += 1;
                if outcome.passed() {
                    c += 1;
                }
            }
            ProblemResult {
                id: problem.id.clone(),
                n: config.n,
                c,
                outcomes,
                cache: cache.stats(),
            }
        })
        .collect();
    EvalReport {
        problems: results,
        n: config.n,
    }
}

/// [`evaluate_model`] with crash-safety: every freshly scored outcome is
/// appended to a checksummed journal under `run`'s directory, keyed by the
/// run's content manifest ([`run_manifest_key`]), and a re-invocation after
/// a kill replays the journal instead of re-scoring.
///
/// **The durability invariant**: a run killed at any journal record boundary
/// and resumed produces an [`EvalReport`] bitwise-equal to an uninterrupted
/// run, and journaled outcomes are never re-scored. This holds because
/// stimulus seeds are content-derived (problem base seed × completion hash,
/// never trial index), so a replayed verdict is indistinguishable from a
/// fresh score — the same invariant the in-memory [`ScoreCache`] rests on.
/// Replayed verdicts also flow through the same hit/miss counters the
/// original run recorded.
///
/// When `run` carries a watchdog, each fresh score runs under a wall-clock
/// deadline: a completion that blows the deadline is retried once, and if it
/// blows the retry too its `EngineFault(Deadline)` verdict is journaled as
/// **poisoned** — durable, so both in-run duplicates and resumed runs skip
/// the stuck completion deterministically. Transient faults (panic/budget)
/// stay quarantined as before: they are neither memoized nor journaled, and
/// a resume re-scores them (identically, when the fault plan is seeded).
///
/// Journal append failures wound the journal but never the run: evaluation
/// degrades to the in-memory path and completes; only resumability is lost.
///
/// # Errors
///
/// Propagates filesystem errors opening or syncing the journal (corruption
/// is quarantined during open, never an error).
pub fn evaluate_model_durable(
    model: &SimLlm,
    problems: &[Problem],
    config: &EvalConfig,
    run: &DurableRun,
) -> std::io::Result<EvalReport> {
    let run_key = run_manifest_key(model, problems, config);
    let (journal, replayed, _) = RunJournal::open_or_create(&run.journal_path(run_key), run_key)?;

    // Bucket the replayed verdicts per problem; each grid cell seeds its
    // cache with its own bucket. Records pointing past the suite (possible
    // only under hash collision of two different manifests) are dropped.
    let mut buckets: Vec<HashMap<u64, (Outcome, bool)>> = vec![HashMap::new(); problems.len()];
    for rec in replayed {
        if let Some(bucket) = buckets.get_mut(rec.problem as usize) {
            bucket.insert(rec.completion, (rec.outcome, rec.poisoned));
        }
    }

    let pool = ParsedPool::new();
    let plans = RunPlans::current();
    let results: Vec<ProblemResult> = problems
        .par_iter()
        .enumerate()
        .map(|(pi, problem)| {
            let _plans = plans.enter();
            let base = problem_base(config, pi);
            let completions = model.generate_n(&problem.prompt, config.n as usize, base);
            let ctx = golden_context(problem).ok();
            let mut cache = ScoreCache::with_resumed(buckets[pi].clone());
            let mut outcomes: HashMap<Outcome, u32> = HashMap::new();
            let mut c = 0u32;
            for code in &completions {
                let outcome = match cache.probe(code) {
                    CacheProbe::Hit(outcome) | CacheProbe::Resumed(outcome) => outcome,
                    CacheProbe::Miss(hash) => {
                        let score_once = || {
                            let _deadline = run.watchdog().map(|w| w.watch());
                            match pool.get_or_parse(code) {
                                SharedParse::Parsed(file) => score_shared_with_context_trials(
                                    problem,
                                    ctx.as_ref(),
                                    Some(&file),
                                    trial_seed(base, hash),
                                    config.stimulus_trials,
                                ),
                                SharedParse::SyntaxFail => score_shared_with_context_trials(
                                    problem,
                                    ctx.as_ref(),
                                    None,
                                    trial_seed(base, hash),
                                    config.stimulus_trials,
                                ),
                                SharedParse::Unshared => score_with_context_trials(
                                    problem,
                                    ctx.as_ref(),
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
                            // Retry once with a fresh deadline; a second
                            // expiry poisons the completion for good.
                            outcome = score_once();
                            poisoned = outcome == deadline_fault;
                        }
                        if poisoned {
                            cache.record_poisoned(hash, outcome);
                        } else {
                            cache.record(hash, outcome);
                        }
                        // Journal real verdicts and durable poison; skip
                        // transient faults (a resume should re-score those).
                        // Append failures are swallowed: the journal wounds
                        // itself and the run continues un-journaled.
                        if !outcome.is_fault() || poisoned {
                            let _ = journal.append(&JournalRecord {
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
            ProblemResult {
                id: problem.id.clone(),
                n: config.n,
                c,
                outcomes,
                cache: cache.stats(),
            }
        })
        .collect();

    journal.sync()?;
    Ok(EvalReport {
        problems: results,
        n: config.n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::family_suite;
    use rtlb_corpus::{generate_corpus, CorpusConfig};
    use rtlb_model::ModelConfig;

    #[test]
    fn clean_model_scores_reasonably_on_adders() {
        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design: 10,
            ..CorpusConfig::default()
        });
        let model = SimLlm::finetune(&corpus, ModelConfig::default());
        let problems = family_suite("adder");
        let report = evaluate_model(
            &model,
            &problems,
            &EvalConfig {
                n: 6,
                seed: 3,
                stimulus_trials: 1,
            },
        );
        let p1 = report.pass_at_k(1);
        assert!(p1 > 0.2, "clean model should often pass adders, got {p1}");
        assert!(report.syntax_rate() >= p1);
    }

    #[test]
    fn report_math_consistency() {
        let r = EvalReport {
            problems: vec![
                ProblemResult {
                    id: "a".into(),
                    n: 10,
                    c: 10,
                    outcomes: HashMap::from([(Outcome::Pass, 10)]),
                    cache: CacheStats { hits: 6, misses: 4 },
                },
                ProblemResult {
                    id: "b".into(),
                    n: 10,
                    c: 0,
                    outcomes: HashMap::from([(Outcome::SyntaxFail, 10)]),
                    cache: CacheStats { hits: 1, misses: 9 },
                },
            ],
            n: 10,
        };
        assert!((r.pass_at_k(1) - 0.5).abs() < 1e-12);
        assert!((r.syntax_rate() - 0.5).abs() < 1e-12);
        assert_eq!(r.outcome_totals()[&Outcome::Pass], 10);
        assert_eq!(
            r.cache_totals(),
            CacheStats {
                hits: 7,
                misses: 13
            }
        );
    }

    #[test]
    fn summary_is_quotable() {
        let r = EvalReport {
            problems: vec![ProblemResult {
                id: "a".into(),
                n: 10,
                c: 5,
                outcomes: HashMap::from([(Outcome::Pass, 5), (Outcome::SyntaxFail, 5)]),
                cache: CacheStats { hits: 3, misses: 7 },
            }],
            n: 10,
        };
        let s = r.summary();
        assert!(s.contains("pass@1 = 0.500"), "{s}");
        assert!(s.contains("pass@10 = 1.000"), "{s}");
        assert!(s.contains("syntax ok = 50.0%"), "{s}");
        assert!(s.contains("dedup cache 3/10 hit"), "{s}");
    }

    #[test]
    fn cache_replays_are_bitwise_equal_to_fresh_scores() {
        // Re-derive every grid cell without the cache: regenerate the same
        // completion batches and score each trial from scratch with the same
        // content-derived seed. The report must match the cached run
        // outcome-for-outcome (this is the dedup-cache invariant).
        use crate::cache::{completion_hash, trial_seed};
        use crate::score::score_with_golden;

        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design: 6,
            ..CorpusConfig::default()
        });
        let model = SimLlm::finetune(&corpus, ModelConfig::default());
        let problems = family_suite("adder");
        let config = EvalConfig {
            n: 8,
            seed: 21,
            stimulus_trials: 1,
        };
        let report = evaluate_model(&model, &problems, &config);

        for (pi, problem) in problems.iter().enumerate() {
            let base = config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(pi as u64 * 7919);
            let completions = model.generate_n(&problem.prompt, config.n as usize, base);
            let golden = crate::score::compile_golden(problem).ok();
            let mut fresh: HashMap<Outcome, u32> = HashMap::new();
            for code in &completions {
                let seed = trial_seed(base, completion_hash(code));
                let outcome = score_with_golden(problem, golden.as_ref(), code, seed);
                *fresh.entry(outcome).or_insert(0) += 1;
            }
            assert_eq!(
                report.problems[pi].outcomes, fresh,
                "cached grid diverged from fresh scoring on {}",
                problem.id
            );
        }
    }

    fn temp_run_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rtlb_eval_durable_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_run_matches_plain_run_and_resumes_without_rescoring() {
        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design: 6,
            ..CorpusConfig::default()
        });
        let model = SimLlm::finetune(&corpus, ModelConfig::default());
        let problems = family_suite("adder");
        let config = EvalConfig {
            n: 6,
            seed: 11,
            stimulus_trials: 1,
        };
        let dir = temp_run_dir("match");
        let run = DurableRun::open(&dir).expect("run dir");

        let plain = evaluate_model(&model, &problems, &config);
        let durable = evaluate_model_durable(&model, &problems, &config, &run).expect("durable");
        assert_eq!(durable, plain, "journaling must not perturb the report");

        // Resume over the complete journal: bitwise-equal report, and the
        // journal must not grow — growth would mean a journaled outcome was
        // re-scored and re-appended.
        let journal_path = run.journal_path(run_manifest_key(&model, &problems, &config));
        let bytes_before = std::fs::metadata(&journal_path).expect("journal").len();
        assert!(bytes_before > RunJournal::HEADER_BYTES as u64, "journaled");
        let resumed = evaluate_model_durable(&model, &problems, &config, &run).expect("resume");
        assert_eq!(resumed, plain, "resume must be bitwise-equal");
        assert_eq!(
            std::fs::metadata(&journal_path).expect("journal").len(),
            bytes_before,
            "journaled outcomes must never be re-scored or re-appended"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_after_torn_kill_is_bitwise_equal() {
        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design: 6,
            ..CorpusConfig::default()
        });
        let model = SimLlm::finetune(&corpus, ModelConfig::default());
        let problems = family_suite("adder");
        let config = EvalConfig {
            n: 6,
            seed: 13,
            stimulus_trials: 1,
        };
        let dir = temp_run_dir("torn");
        let run = DurableRun::open(&dir).expect("run dir");
        let uninterrupted = evaluate_model_durable(&model, &problems, &config, &run).expect("run");

        // Kill the run mid-append: keep two intact records plus a torn third.
        let journal_path = run.journal_path(run_manifest_key(&model, &problems, &config));
        let full = std::fs::read(&journal_path).expect("journal bytes");
        let cut = RunJournal::HEADER_BYTES + 2 * RunJournal::RECORD_BYTES + 7;
        assert!(full.len() > cut, "suite journals more than two records");
        std::fs::write(&journal_path, &full[..cut]).expect("tear");

        let resumed = evaluate_model_durable(&model, &problems, &config, &run).expect("resume");
        assert_eq!(
            resumed, uninterrupted,
            "a killed-and-resumed run must equal the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_counts_cache_hits_for_duplicate_completions() {
        // A small candidate pool with n = 12 trials guarantees repeats, so
        // the cache must report hits, and hits + misses must equal the trial
        // count.
        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design: 4,
            ..CorpusConfig::default()
        });
        let model = SimLlm::finetune(&corpus, ModelConfig::default());
        let problems = family_suite("adder");
        let report = evaluate_model(
            &model,
            &problems,
            &EvalConfig {
                n: 12,
                seed: 5,
                stimulus_trials: 1,
            },
        );
        let totals = report.cache_totals();
        assert_eq!(
            totals.hits + totals.misses,
            12 * problems.len() as u32,
            "every trial is exactly one lookup"
        );
        assert!(totals.hits > 0, "n = 12 over a small pool must repeat");
        assert!(report.summary().contains("dedup cache"), "surfaced in text");
    }
}
