//! Model evaluation: runs a [`SimLlm`] over a problem suite with `n` trials
//! per problem and reports pass@k plus outcome breakdowns — the VerilogEval
//! workflow (the paper uses n = 10, k = 1).

use crate::cache::{admit, completion_hash, trial_seed, CacheStats};
use crate::passk::{mean_pass_at_k, pass_at_k};
use crate::persist::{run_manifest_key, DurableRun, JournalRecord, RunJournal};
use crate::problems::Problem;
use crate::score::{score_completion, Outcome};
use crate::shared::{score_scope, SharedCache};
use rtlb_model::SimLlm;
use rtlb_sim::{FaultKind, RunPlans};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

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
    /// [`crate::score_completion`].
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

/// Runs the model over the suite: [`evaluate_grid`] over a fresh
/// [`SharedCache`], without a journal.
pub fn evaluate_model(model: &SimLlm, problems: &[Problem], config: &EvalConfig) -> EvalReport {
    grid(model, problems, config, &SharedCache::new(), None)
}

/// Runs the model over the suite, scoring through `shared` and, with `run`
/// set, journaling every fresh verdict.
///
/// The problem × trial grid is evaluated **in parallel** (one cell per
/// problem, across up to [`rayon::current_num_threads`] threads, fewer when
/// enclosing parallel work holds the worker budget) with every seed
/// derived from the config seed, the problem index, and the completion
/// content exactly as the serial loop derives them, so the report is
/// bit-for-bit identical to a single-threaded run — `tests/determinism.rs`
/// in the workspace root pins this down. Per problem, the model's
/// `generate_n` batch retrieves over the compiled index **once**, and the
/// cell ([`run_cell`]) scores each *distinct* completion once against the
/// problem's cached [`crate::GoldenContext`].
///
/// Grids sharing one `shared` cache (the clean and backdoored models of a
/// case study, which mostly write the same code) replay each other's
/// verdicts from its score tier. A replay is bitwise-equal to re-scoring,
/// and per-cell [`CacheStats`] count it as a miss exactly as a fresh score,
/// so the report does not depend on what else the cache has seen.
///
/// **Durability.** With `run` set, the grid opens a checksummed journal
/// under the run's directory, keyed by the run's content manifest
/// ([`run_manifest_key`]), replays it instead of re-scoring, and appends
/// each cell's fresh verdicts in **suite order**, so the journal bytes do
/// not depend on the thread count (and equal an [`crate::EvalService`]
/// run's). A run killed at any journal record boundary and resumed produces
/// a report bitwise-equal to an uninterrupted run, and journaled outcomes
/// are never re-scored. With a watchdog on `run`, a completion that blows
/// its deadline twice is journaled as **poisoned**, so duplicates and
/// resumed runs skip it; transient faults (panic/budget) are neither
/// memoized nor journaled. Journal append failures wound the journal but
/// never the run.
///
/// # Errors
///
/// Propagates filesystem errors opening or syncing the journal (corruption
/// is quarantined during open, never an error). Without `run` the grid
/// touches no file and always succeeds.
pub fn evaluate_grid(
    model: &SimLlm,
    problems: &[Problem],
    config: &EvalConfig,
    shared: &SharedCache,
    run: Option<&DurableRun>,
) -> io::Result<EvalReport> {
    let Some(run) = run else {
        return Ok(grid(model, problems, config, shared, None));
    };
    let journal = GridJournal::open(run, model, problems, config)?;
    let report = grid(model, problems, config, shared, Some((run, &journal)));
    journal.sync()?;
    Ok(report)
}

/// The grid behind [`evaluate_model`] and [`evaluate_grid`]: [`drive`] at
/// the rayon width the worker budget grants ([`rayon::reserve`]), each cell
/// generating through the model directly.
fn grid(
    model: &SimLlm,
    problems: &[Problem],
    config: &EvalConfig,
    shared: &SharedCache,
    durable: Option<(&DurableRun, &GridJournal)>,
) -> EvalReport {
    let cell = |pi: usize| {
        let problem = &problems[pi];
        let completions =
            model.generate_n(&problem.prompt, config.n as usize, problem_base(config, pi));
        run_cell(shared, problem, config, pi, &completions, durable)
    };
    // Held while `drive`'s helpers live, so the grid's threads count against
    // the worker budget that nested `par_iter`s (and grids) respect.
    let threads = rayon::reserve(rayon::current_num_threads().min(problems.len()));
    let journal = durable.map(|(_, j)| j);
    EvalReport {
        problems: drive(problems.len(), threads.width(), journal, cell, |_| {}),
        n: config.n,
    }
}

/// The one grid driver, behind [`evaluate_grid`] and
/// [`crate::EvalService`]: runs `cell(0..cells)` on the calling thread plus
/// up to `width - 1` scoped helpers, each claiming the next unclaimed cell
/// index, and commits finished cells **in suite order** on the calling
/// thread — journal append, then `sink` — whatever order they finish in.
///
/// The calling thread works cells too and commits the ready prefix between
/// them, so `width = 1` (or a host where no helper spawns) runs the whole
/// grid inline. Helpers run under the caller's [`RunPlans`]. A cell lost to
/// a helper that died is re-run on the calling thread, so the result is
/// always complete.
pub(crate) fn drive(
    cells: usize,
    width: usize,
    journal: Option<&GridJournal>,
    cell: impl Fn(usize) -> CellDone + Sync,
    mut sink: impl FnMut(&ProblemResult),
) -> Vec<ProblemResult> {
    let plans = RunPlans::current();
    // Only the claim itself is shared through `next`; finished cells
    // travel over the channel, which orders their data.
    let next = AtomicUsize::new(0);
    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&pi| pi < cells);
    let mut ready: Vec<Option<CellDone>> = (0..cells).map(|_| None).collect();
    let mut committed: Vec<ProblemResult> = Vec::with_capacity(cells);
    let mut commit = |ready: &mut [Option<CellDone>], committed: &mut Vec<ProblemResult>| {
        while let Some(done) = ready.get_mut(committed.len()).and_then(Option::take) {
            if let Some(journal) = journal {
                journal.append(&done.records);
            }
            sink(&done.result);
            committed.push(done.result);
        }
    };
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<CellDone>();
        let helpers: Vec<_> = (1..width.min(cells))
            .filter_map(|_| {
                let (tx, claim, cell) = (tx.clone(), &claim, &cell);
                let work = move || {
                    let _plans = plans.enter();
                    while let Some(pi) = claim() {
                        if tx.send(cell(pi)).is_err() {
                            return;
                        }
                    }
                };
                std::thread::Builder::new().spawn_scoped(scope, work).ok()
            })
            .collect();
        drop(tx);
        let mut park = |done: CellDone| {
            let pi = done.pi;
            ready[pi] = Some(done);
            commit(&mut ready, &mut committed);
        };
        while let Some(pi) = claim() {
            park(cell(pi));
            rx.try_iter().for_each(&mut park);
        }
        // Ends once every helper is gone; a helper that panicked is joined
        // here so its panic stays out of the scope.
        rx.iter().for_each(park);
        for helper in helpers {
            let _ = helper.join();
        }
    });
    // Cells lost to a helper that died: re-run them here, in suite order.
    for (pi, slot) in ready.iter_mut().enumerate().skip(committed.len()) {
        slot.get_or_insert_with(|| cell(pi));
    }
    commit(&mut ready, &mut committed);
    committed
}

/// Journal-replayed verdicts of one grid cell: completion hash → verdict
/// plus the poisoned flag.
type Resumed = HashMap<u64, (Outcome, bool)>;

/// A durable grid's open journal plus its replayed verdicts, bucketed per
/// problem.
pub(crate) struct GridJournal {
    journal: RunJournal,
    buckets: Vec<Resumed>,
}

impl GridJournal {
    /// Opens (or creates) the journal of the run `(model, problems, config)`
    /// under `run`. Records pointing past the suite (possible only under a
    /// hash collision of two different manifests) are dropped.
    pub(crate) fn open(
        run: &DurableRun,
        model: &SimLlm,
        problems: &[Problem],
        config: &EvalConfig,
    ) -> io::Result<GridJournal> {
        let run_key = run_manifest_key(model, problems, config);
        let (journal, replayed, _) =
            RunJournal::open_or_create(&run.journal_path(run_key), run_key)?;
        let mut buckets = vec![Resumed::new(); problems.len()];
        for rec in replayed {
            if let Some(bucket) = buckets.get_mut(rec.problem as usize) {
                bucket.insert(rec.completion, (rec.outcome, rec.poisoned));
            }
        }
        Ok(GridJournal { journal, buckets })
    }

    /// Cell `pi`'s replayed verdicts.
    fn resumed(&self, pi: usize) -> Resumed {
        self.buckets.get(pi).cloned().unwrap_or_default()
    }

    /// Appends a finished cell's records. Append failures wound the
    /// journal, never the run.
    fn append(&self, records: &[JournalRecord]) {
        for rec in records {
            let _ = self.journal.append(rec);
        }
    }

    /// Flushes every appended record to disk.
    pub(crate) fn sync(&self) -> io::Result<()> {
        self.journal.sync()
    }
}

/// One finished grid cell.
pub(crate) struct CellDone {
    pi: usize,
    pub(crate) result: ProblemResult,
    /// Journalable records in the cell's own trial order.
    pub(crate) records: Vec<JournalRecord>,
}

/// The one grid-cell loop, shared by [`evaluate_grid`] and
/// [`crate::EvalService`]: scores problem `pi`'s completion batch with every
/// cache consultation routed through `shared`'s tiers, resuming from
/// `durable`'s journal when set.
///
/// Within the cell, each *distinct* completion is looked up once: a
/// duplicate is a cell hit, a first encounter a cell miss, whether it is
/// then replayed from the journal, replayed from the suite tier, or scored.
/// Each completion's stimulus seed derives from the problem base seed and
/// its content hash (never the trial index), so all three are bitwise-equal
/// to re-scoring, and a cell counts exactly what a run without the journal
/// or the suite tier counted.
///
/// A first encounter's verdict is memoized for the cell's duplicates unless
/// it is a transient fault (the engine, not the completion, failed: a
/// duplicate re-scores) or the [`rtlb_sim::FaultSite::CacheInsert`] gate
/// vetoes it. A watchdog-poisoned verdict is durable and always memoized.
pub(crate) fn run_cell(
    shared: &SharedCache,
    problem: &Problem,
    config: &EvalConfig,
    pi: usize,
    completions: &[String],
    durable: Option<(&DurableRun, &GridJournal)>,
) -> CellDone {
    let run = durable.map(|(run, _)| run);
    let mut resumed = durable.map(|(_, j)| j.resumed(pi)).unwrap_or_default();
    let base = problem_base(config, pi);
    let ctx = shared.context(problem);
    let scope = score_scope(problem, config, pi);
    let mut seen: HashMap<u64, Outcome> = HashMap::new();
    let mut cache = CacheStats::default();
    let mut outcomes: HashMap<Outcome, u32> = HashMap::new();
    let mut c = 0u32;
    let mut records = Vec::new();
    for code in completions {
        let hash = completion_hash(code);
        let outcome = if let Some(&outcome) = seen.get(&hash) {
            cache.hits += 1;
            outcome
        } else {
            cache.misses += 1;
            // The verdict, whether it is durable poison, and whether it is
            // new to the journal.
            let (outcome, poisoned, fresh) =
                if let Some((outcome, poisoned)) = resumed.remove(&hash) {
                    (outcome, poisoned, false)
                } else if let Some(outcome) = shared.lookup_score(scope, hash) {
                    // Suite-tier replay (the tier never admits faults). It is
                    // fresh to the journal: an interrupted run must resume it
                    // without the warm cache.
                    (outcome, false, true)
                } else {
                    let score_once = || {
                        let _deadline = run.and_then(|r| r.watchdog()).map(|w| w.watch());
                        score_completion(
                            problem,
                            ctx.as_deref(),
                            code,
                            trial_seed(base, hash),
                            config.stimulus_trials,
                        )
                    };
                    let deadline_fault = Outcome::EngineFault {
                        kind: FaultKind::Deadline,
                    };
                    let mut outcome = score_once();
                    let mut poisoned = false;
                    if outcome == deadline_fault {
                        // Retry once with a fresh deadline; a second expiry
                        // poisons the completion for good.
                        outcome = score_once();
                        poisoned = outcome == deadline_fault;
                    }
                    // Faults are quarantined inside `record_score`.
                    shared.record_score(scope, hash, outcome);
                    (outcome, poisoned, true)
                };
            if poisoned || (!outcome.is_fault() && admit(hash)) {
                seen.insert(hash, outcome);
            }
            // Journal real verdicts and durable poison, never transient
            // faults (a resume re-scores those).
            if fresh && (!outcome.is_fault() || poisoned) {
                records.push(JournalRecord {
                    problem: pi as u32,
                    completion: hash,
                    outcome,
                    poisoned,
                });
            }
            outcome
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
            cache,
        },
        records,
    }
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
    #[allow(clippy::panic)]
    fn drive_commits_in_suite_order_and_reruns_the_cell_of_a_dead_helper() {
        // The one helper dies on the first cell it claims. The calling
        // thread holds its own first cell until that death, so the helper
        // is sure to claim (and lose) one; the driver must still commit
        // every cell, in order, re-running the lost one itself.
        let caller = std::thread::current().id();
        let (died_tx, died_rx) = mpsc::channel();
        let died_rx = std::sync::Mutex::new(died_rx);
        let held = std::sync::atomic::AtomicBool::new(false);
        let cell = |pi: usize| {
            if std::thread::current().id() != caller {
                died_tx.send(pi).expect("the test is listening");
                panic!("helper dies on cell {pi}");
            }
            if !held.swap(true, Ordering::SeqCst) {
                let died = died_rx.lock().expect("one reader");
                died.recv_timeout(std::time::Duration::from_secs(60))
                    .expect("the helper claims a cell");
            }
            let result = ProblemResult {
                id: pi.to_string(),
                n: 1,
                c: 0,
                outcomes: HashMap::new(),
                cache: CacheStats::default(),
            };
            CellDone {
                pi,
                result,
                records: Vec::new(),
            }
        };
        let mut streamed = Vec::new();
        let results = drive(4, 2, None, cell, |r| streamed.push(r.id.clone()));
        let ids: Vec<String> = (0..4).map(|pi| pi.to_string()).collect();
        assert_eq!(streamed, ids);
        assert_eq!(results.into_iter().map(|r| r.id).collect::<Vec<_>>(), ids);
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
        use crate::score::golden_context;

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
            let golden = golden_context(problem).ok();
            let mut fresh: HashMap<Outcome, u32> = HashMap::new();
            for code in &completions {
                let seed = trial_seed(base, completion_hash(code));
                let outcome = score_completion(problem, golden.as_ref(), code, seed, 1);
                *fresh.entry(outcome).or_insert(0) += 1;
            }
            assert_eq!(
                report.problems[pi].outcomes, fresh,
                "cached grid diverged from fresh scoring on {}",
                problem.id
            );
        }
    }

    #[test]
    fn run_cell_over_truncations_matches_score_completion_per_text() {
        // A batch of every char-boundary truncation of each golden source,
        // the whole source twice (a cell duplicate): the cell's histogram
        // must equal scoring each text alone with its grid seed.
        use crate::problems::problem_suite;
        use crate::score::golden_context;

        for (pi, problem) in problem_suite().iter().enumerate() {
            let source = problem.spec.full_source();
            let mut texts: Vec<String> = (0..=source.len())
                .filter(|&i| source.is_char_boundary(i))
                .map(|i| source[..i].to_owned())
                .collect();
            texts.push(source.clone());
            let config = EvalConfig {
                n: texts.len() as u32,
                seed: 29,
                stimulus_trials: 1,
            };
            let done = run_cell(&SharedCache::new(), problem, &config, pi, &texts, None);
            let base = problem_base(&config, pi);
            let ctx = golden_context(problem).ok();
            let mut fresh: HashMap<Outcome, u32> = HashMap::new();
            for code in &texts {
                let seed = trial_seed(base, completion_hash(code));
                let outcome = score_completion(problem, ctx.as_ref(), code, seed, 1);
                *fresh.entry(outcome).or_insert(0) += 1;
            }
            assert_eq!(done.result.outcomes, fresh, "{}", problem.id);
            assert_eq!(done.result.cache.hits, 1, "{}: one duplicate", problem.id);
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
        let durable = evaluate_grid(&model, &problems, &config, &SharedCache::new(), Some(&run))
            .expect("durable");
        assert_eq!(durable, plain, "journaling must not perturb the report");

        // Resume over the complete journal: bitwise-equal report, and the
        // journal must not grow — growth would mean a journaled outcome was
        // re-scored and re-appended.
        let journal_path = run.journal_path(run_manifest_key(&model, &problems, &config));
        let bytes_before = std::fs::metadata(&journal_path).expect("journal").len();
        assert!(bytes_before > RunJournal::HEADER_BYTES as u64, "journaled");
        let resumed = evaluate_grid(&model, &problems, &config, &SharedCache::new(), Some(&run))
            .expect("resume");
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
        let uninterrupted =
            evaluate_grid(&model, &problems, &config, &SharedCache::new(), Some(&run))
                .expect("run");

        // Kill the run mid-append: keep two intact records plus a torn third.
        let journal_path = run.journal_path(run_manifest_key(&model, &problems, &config));
        let full = std::fs::read(&journal_path).expect("journal bytes");
        let cut = RunJournal::HEADER_BYTES + 2 * RunJournal::RECORD_BYTES + 7;
        assert!(full.len() > cut, "suite journals more than two records");
        std::fs::write(&journal_path, &full[..cut]).expect("tear");

        let resumed = evaluate_grid(&model, &problems, &config, &SharedCache::new(), Some(&run))
            .expect("resume");
        assert_eq!(
            resumed, uninterrupted,
            "a killed-and-resumed run must equal the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn model_with(samples_per_design: usize) -> SimLlm {
        let corpus = generate_corpus(&CorpusConfig {
            samples_per_design,
            ..CorpusConfig::default()
        });
        SimLlm::finetune(&corpus, ModelConfig::default())
    }

    #[test]
    fn grids_sharing_a_cache_replay_each_other_invisibly() {
        // Two models fine-tuned on overlapping corpora write many of the
        // same completions. Scoring the second through the first's cache
        // replays those verdicts from the score tier, yet its report —
        // per-cell cache counters included — equals a fresh-cache run.
        let first = model_with(6);
        let second = model_with(8);
        let problems = family_suite("adder");
        let config = EvalConfig {
            n: 6,
            seed: 17,
            stimulus_trials: 1,
        };
        let shared = SharedCache::new();
        let a = evaluate_grid(&first, &problems, &config, &shared, None).expect("in memory");
        assert_eq!(a, evaluate_model(&first, &problems, &config));
        let b = evaluate_grid(&second, &problems, &config, &shared, None).expect("in memory");
        assert_eq!(b, evaluate_model(&second, &problems, &config));
        assert!(
            shared.tier_stats().score.hits > 0,
            "the second grid must replay the first's verdicts"
        );
    }

    #[test]
    fn shared_cache_durable_grid_journals_every_fresh_verdict() {
        // A durable grid run over a warm cache still journals each of its
        // verdicts (a suite-tier replay is fresh to the journal), so a
        // resume with a cold cache replays the journal without re-scoring.
        let first = model_with(6);
        let second = model_with(8);
        let problems = family_suite("adder");
        let config = EvalConfig {
            n: 6,
            seed: 19,
            stimulus_trials: 1,
        };
        let dir = temp_run_dir("shared");
        let run = DurableRun::open(&dir).expect("run dir");
        let shared = SharedCache::new();
        let _ = evaluate_model(&first, &problems, &config);
        let _ = evaluate_grid(&first, &problems, &config, &shared, None).expect("in memory");
        let warm = evaluate_grid(&second, &problems, &config, &shared, Some(&run)).expect("run");
        let truth = evaluate_model(&second, &problems, &config);
        assert_eq!(warm, truth);
        let journal_path = run.journal_path(run_manifest_key(&second, &problems, &config));
        let bytes = std::fs::metadata(&journal_path).expect("journal").len();
        let cold = SharedCache::new();
        let resumed =
            evaluate_grid(&second, &problems, &config, &cold, Some(&run)).expect("resume");
        assert_eq!(resumed, truth);
        assert_eq!(
            cold.tier_stats().score,
            CacheStats::default(),
            "a complete journal leaves nothing to score"
        );
        assert_eq!(
            std::fs::metadata(&journal_path).expect("journal").len(),
            bytes,
            "journaled outcomes must never be re-scored or re-appended"
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
