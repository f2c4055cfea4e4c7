//! The three workloads. Each op calls the public API the `case-study`,
//! `sweep` and `eval` subcommands call, with every seed derived from the
//! workload seed and the op index, so op `i` of a seed is the same op in
//! every run.

use crate::trace::Tracer;
use rtl_breaker::{
    all_case_studies, extension_case_study, poison_dataset, run_case_study_in, run_case_study_with,
    ArtifactKind, ArtifactStore, CaseStudy, CaseStudyOutcome, PipelineArtifacts, PipelineConfig,
};
use rtlb_corpus::syntax_filter;
use rtlb_model::SimLlm;
use rtlb_vereval::{
    completion_hash, evaluate_model, golden_context, problem_base, problem_suite, run_manifest_key,
    score_shared_with_context_trials, trial_seed, CacheStats, DurableRun, EvalConfig, EvalReport,
    EvalService, Outcome, Problem, RunJournal, ServiceReport, TierStats,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Threads every workload may use: the service's workers, and the rayon
/// width of the case-study grids (the CLI's default on a 2-core host).
pub const WORKERS: usize = 2;

/// Trials per problem of the service grids (the paper's n = 10).
const EVAL_N: u32 = 10;

/// Stimulus programs simulated per scored completion in the service grids.
const STIMULUS_TRIALS: u32 = 64;

/// Seeds `eval-resume` cycles over; set-up journals one grid per seed.
const RESUME_SEEDS: u64 = 3;

/// SplitMix64 finaliser: derives independent per-op seeds.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Named deterministic counters of one op. Two executions of the same op
/// must produce identical counters.
pub type Counters = Vec<(String, u64)>;

/// Counts the traced run reports per op; they must repeat exactly.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    /// Grid dedup score cache: hits and lookups.
    pub dedup: (u64, u64),
    /// Service tiers (score, parse, context, generate): hits and lookups.
    pub tiers: [(u64, u64); 4],
    /// Verdicts: pass, syntax, interface, functional, engine fault.
    pub outcomes: [u64; 5],
    /// Stimulus programs actually simulated.
    pub stimulus_trials: u64,
    /// Bytes the op appended to outcome journals.
    pub journal_bytes: u64,
    /// Journal records the op replayed instead of scoring.
    pub records_replayed: u64,
}

impl Counts {
    fn add_report(&mut self, report: &EvalReport) {
        let c = report.cache_totals();
        self.dedup.0 += u64::from(c.hits);
        self.dedup.1 += u64::from(c.hits + c.misses);
        for (outcome, n) in report.outcome_totals() {
            self.outcomes[outcome_slot(outcome)] += u64::from(n);
        }
    }

    fn add_tiers(&mut self, tiers: &TierStats) {
        for (slot, s) in
            self.tiers
                .iter_mut()
                .zip([tiers.score, tiers.parse, tiers.context, tiers.generate])
        {
            slot.0 += u64::from(s.hits);
            slot.1 += u64::from(s.hits + s.misses);
        }
    }

    /// Adds another op's counts.
    pub fn absorb(&mut self, other: &Counts) {
        self.dedup.0 += other.dedup.0;
        self.dedup.1 += other.dedup.1;
        for (a, b) in self.tiers.iter_mut().zip(other.tiers) {
            a.0 += b.0;
            a.1 += b.1;
        }
        for (a, b) in self.outcomes.iter_mut().zip(other.outcomes) {
            *a += b;
        }
        self.stimulus_trials += other.stimulus_trials;
        self.journal_bytes += other.journal_bytes;
        self.records_replayed += other.records_replayed;
    }
}

fn outcome_slot(outcome: Outcome) -> usize {
    match outcome {
        Outcome::Pass => 0,
        Outcome::SyntaxFail => 1,
        Outcome::InterfaceFail => 2,
        Outcome::FunctionalFail => 3,
        Outcome::EngineFault { .. } => 4,
    }
}

fn report_counters(out: &mut Counters, tag: &str, report: &EvalReport) {
    let c: CacheStats = report.cache_totals();
    out.push((format!("{tag}.cache.hits"), u64::from(c.hits)));
    out.push((format!("{tag}.cache.misses"), u64::from(c.misses)));
    let totals: BTreeMap<Outcome, u32> = report.outcome_totals().into_iter().collect();
    for (outcome, n) in totals {
        out.push((format!("{tag}.outcome.{outcome:?}"), u64::from(n)));
    }
    out.push((
        format!("{tag}.pass_at_1.bits"),
        report.pass_at_k(1).to_bits(),
    ));
}

fn tier_counters(out: &mut Counters, tiers: &TierStats) {
    for (name, s) in [
        ("score", tiers.score),
        ("parse", tiers.parse),
        ("context", tiers.context),
        ("generate", tiers.generate),
    ] {
        out.push((format!("tier.{name}.hits"), u64::from(s.hits)));
        out.push((format!("tier.{name}.misses"), u64::from(s.misses)));
    }
}

/// What one op produced.
pub struct OpResult {
    /// Deterministic counters (compared across repeats of the op).
    pub counters: Counters,
    /// Submit to first streamed result, for service ops.
    pub first_result_ms: Option<f64>,
    /// The op's verdicts.
    pub detail: Detail,
}

/// The op's verdicts, kept for the checks and the traced replay.
pub enum Detail {
    /// A case study's metrics.
    Case(CaseStudyOutcome),
    /// A service grid's report and its journal traffic.
    Eval {
        /// The service report.
        report: ServiceReport,
        /// Bytes the op appended to its journal.
        journal_bytes: u64,
        /// Records the op replayed from its journal.
        records_replayed: u64,
    },
}

/// How the traced run attributes an op's wall time to layers.
pub struct Layers {
    /// Layers whose time runs on the op's own thread.
    pub serial: &'static [&'static str],
    /// Layers replayed serially that the op spreads over [`WORKERS`]
    /// threads.
    pub parallel: &'static [&'static str],
    /// Whether `vereval.persist.journal_ms` is the op minus its
    /// non-durable twin (recorded as a `replay.eval_suite` span).
    pub journal_twin: bool,
    /// Whether the op runs through the eval service.
    pub service: bool,
}

/// One benchmark workload.
pub trait Workload {
    /// Runs op `i`. `tag` names the phase (fresh run directories per
    /// phase); `t` records spans around the layer calls the op makes itself.
    fn run_op(&mut self, i: u64, tag: &str, t: &mut Tracer) -> Result<OpResult, String>;

    /// Replays the layer calls hidden inside op `i`'s opaque calls under
    /// spans, checks that they reproduce the op's verdict totals, and
    /// returns the op's counts.
    fn replay(&mut self, i: u64, op: &OpResult, t: &mut Tracer) -> Result<Counts, String>;

    /// Recomputes a sample of the timed ops; returns one message per
    /// mismatch.
    fn verify(&mut self, ops: &[(u64, OpResult)]) -> Vec<String>;

    /// The layer attribution of the traced run.
    fn layers(&self) -> Layers;
}

/// First, middle and last op of a run: the sample the checks recompute.
fn sample(ops: &[(u64, OpResult)]) -> Vec<&(u64, OpResult)> {
    let mut idx = vec![0, ops.len() / 2, ops.len().saturating_sub(1)];
    idx.dedup();
    idx.into_iter().filter_map(|k| ops.get(k)).collect()
}

// ---------------------------------------------------------------------------
// attack-campaign
// ---------------------------------------------------------------------------

/// One backdoored case study per op, at the `--full` pipeline config.
pub struct AttackCampaign {
    seed: u64,
    store: ArtifactStore,
    base: PipelineConfig,
    cases: Vec<CaseStudy>,
    /// The last traced op's models, for its replay.
    traced: Option<(PipelineConfig, Arc<SimLlm>, Arc<SimLlm>)>,
}

impl AttackCampaign {
    /// Set-up: builds the clean corpus and clean model through a fresh
    /// artifact store.
    pub fn setup(seed: u64) -> AttackCampaign {
        let base = PipelineConfig::default();
        let store = ArtifactStore::new();
        store.clean_model(&base);
        let mut cases = all_case_studies();
        cases.push(extension_case_study());
        AttackCampaign {
            seed,
            store,
            base,
            cases,
            traced: None,
        }
    }

    /// Op `i`'s case (cycling I-V, VI*) and config (seed-derived poison
    /// dose in 3..=6 and master seed).
    fn op_config(&self, i: u64) -> (&CaseStudy, PipelineConfig) {
        let h = mix(self.seed, i);
        let case = &self.cases[(i % self.cases.len() as u64) as usize];
        let cfg = PipelineConfig {
            poison_count: 3 + (h % 4) as usize,
            seed: h >> 16,
            ..self.base.clone()
        };
        (case, cfg)
    }
}

impl Workload for AttackCampaign {
    fn run_op(&mut self, i: u64, _tag: &str, t: &mut Tracer) -> Result<OpResult, String> {
        let (case, cfg) = self.op_config(i);
        let case = case.clone();
        let before = self.store.counters();
        let clean_corpus = self.store.clean_corpus(&cfg.corpus);
        let clean_model = self.store.clean_model(&cfg);
        let poisoned = t.span("core.poison", |_| {
            poison_dataset(&clean_corpus, &case, cfg.poison_count, cfg.seed)
        });
        let filtered = t.span("corpus.syntax_filter", |_| syntax_filter(&poisoned).0);
        drop(poisoned);
        let model = t.span("model.finetune", |_| {
            SimLlm::finetune(&filtered, cfg.model.clone())
        });
        let artifacts = PipelineArtifacts {
            clean_corpus,
            poisoned_corpus: Arc::new(filtered),
            clean_model,
            backdoored_model: Arc::new(model),
        };
        let outcome = t.span("core.measure", |_| {
            run_case_study_with(&case, &cfg, &artifacts)
        });
        let after = self.store.counters();

        let mut counters: Counters = Vec::new();
        for kind in [ArtifactKind::CleanCorpus, ArtifactKind::CleanModel] {
            counters.push((
                format!("ledger.{kind:?}.hits"),
                (after.hits(kind) - before.hits(kind)) as u64,
            ));
        }
        counters.push((
            "ledger.misses".into(),
            (after.total_misses() - before.total_misses()) as u64,
        ));
        counters.push((
            "poisoned_corpus.len".into(),
            artifacts.poisoned_corpus.len() as u64,
        ));
        counters.push((
            "backdoored.memory_len".into(),
            artifacts.backdoored_model.memory_len() as u64,
        ));
        for (name, v) in [
            ("asr", outcome.asr),
            ("false_activation", outcome.false_activation),
            ("clean_pass1", outcome.clean_pass1),
            ("backdoored_pass1", outcome.backdoored_pass1),
            ("static_detection", outcome.static_detection),
            (
                "triggered_functional_pass",
                outcome.triggered_functional_pass,
            ),
        ] {
            counters.push((format!("outcome.{name}.bits"), v.to_bits()));
        }
        self.traced = t.is_on().then(|| {
            (
                cfg.clone(),
                Arc::clone(&artifacts.clean_model),
                Arc::clone(&artifacts.backdoored_model),
            )
        });
        Ok(OpResult {
            counters,
            first_result_ms: None,
            detail: Detail::Case(outcome),
        })
    }

    fn replay(&mut self, _i: u64, op: &OpResult, t: &mut Tracer) -> Result<Counts, String> {
        let (cfg, clean, backdoored) = self.traced.take().ok_or("no traced op to replay")?;
        let Detail::Case(outcome) = &op.detail else {
            return Err("attack-campaign op without a case outcome".into());
        };
        let suite = problem_suite();
        let eval_cfg = EvalConfig {
            n: cfg.eval_n,
            seed: cfg.seed,
            stimulus_trials: cfg.stimulus_trials,
        };
        let clean_report = t.span("vereval.grid", |_| {
            evaluate_model(&clean, &suite, &eval_cfg)
        });
        let bd_report = t.span("vereval.grid", |_| {
            evaluate_model(&backdoored, &suite, &eval_cfg)
        });
        if clean_report.pass_at_k(1) != outcome.clean_pass1
            || bd_report.pass_at_k(1) != outcome.backdoored_pass1
        {
            return Err(format!(
                "replayed grids give pass@1 {}/{}, the op measured {}/{}",
                clean_report.pass_at_k(1),
                bd_report.pass_at_k(1),
                outcome.clean_pass1,
                outcome.backdoored_pass1
            ));
        }
        for (model, report) in [(&clean, &clean_report), (&backdoored, &bd_report)] {
            let replayed = replay_grid_layers(model, &suite, &eval_cfg, t)?;
            check_histograms(&replayed, report)?;
        }
        let mut counts = Counts::default();
        counts.add_report(&clean_report);
        counts.add_report(&bd_report);
        // Every dedup miss simulated its stimulus programs; the attack
        // loop scores each triggered generation once with one program.
        counts.stimulus_trials = (counts.dedup.1 - counts.dedup.0) * u64::from(cfg.stimulus_trials)
            + cfg.attack_trials as u64;
        Ok(counts)
    }

    fn verify(&mut self, ops: &[(u64, OpResult)]) -> Vec<String> {
        let mut errors = Vec::new();
        for (i, op) in sample(ops) {
            let (case, cfg) = self.op_config(*i);
            let again = run_case_study_in(&self.store, case, &cfg);
            if !matches!(&op.detail, Detail::Case(o) if *o == again) {
                errors.push(format!(
                    "op {i}: the artifact-store pipeline gives a different case-study outcome"
                ));
            }
        }
        errors
    }

    fn layers(&self) -> Layers {
        Layers {
            serial: &[
                "core.poison",
                "corpus.syntax_filter",
                "model.finetune",
                "core.measure",
            ],
            parallel: &[],
            journal_twin: false,
            service: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Service grids shared by eval-cold and eval-resume
// ---------------------------------------------------------------------------

/// The clean model at the `--full` config, built through a fresh store.
fn clean_model() -> Arc<SimLlm> {
    ArtifactStore::new().clean_model(&PipelineConfig::default())
}

fn eval_config(seed: u64) -> EvalConfig {
    EvalConfig {
        n: EVAL_N,
        seed,
        stimulus_trials: STIMULUS_TRIALS,
    }
}

/// One `rtl-breaker eval --run-dir` grid: a fresh service over a durable
/// run directory. Returns the report and the submit-to-first-result time.
fn service_grid(
    model: &SimLlm,
    suite: &[Problem],
    cfg: &EvalConfig,
    dir: &Path,
) -> Result<(ServiceReport, f64), String> {
    let run = Arc::new(DurableRun::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?);
    let service = EvalService::new(WORKERS);
    let start = Instant::now();
    let mut first: Option<f64> = None;
    let report = service
        .eval_suite_durable(model, suite, cfg, &run, |_| {
            first.get_or_insert_with(|| start.elapsed().as_secs_f64() * 1000.0);
        })
        .map_err(|e| format!("durable grid under {}: {e}", dir.display()))?;
    Ok((report, first.unwrap_or(0.0)))
}

/// Total size of the journals under a run directory.
fn journal_bytes(dir: &Path) -> Result<u64, String> {
    let journals = dir.join("journals");
    let mut total = 0;
    for entry in std::fs::read_dir(&journals).map_err(|e| format!("{}: {e}", journals.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.path().extension().is_some_and(|x| x == "jrnl") {
            total += entry.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    Ok(total)
}

fn eval_counters(report: &ServiceReport, journal_bytes: u64, records_replayed: u64) -> Counters {
    let mut counters = Vec::new();
    report_counters(&mut counters, "grid", &report.report);
    tier_counters(&mut counters, &report.tiers);
    counters.push(("journal.bytes".into(), journal_bytes));
    counters.push(("journal.records_replayed".into(), records_replayed));
    counters
}

fn eval_counts(op: &OpResult) -> Result<Counts, String> {
    let Detail::Eval {
        report,
        journal_bytes,
        records_replayed,
    } = &op.detail
    else {
        return Err("service op without a service report".into());
    };
    let mut counts = Counts::default();
    counts.add_report(&report.report);
    counts.add_tiers(&report.tiers);
    // Only score-tier misses reach the simulator.
    counts.stimulus_trials = u64::from(report.tiers.score.misses) * u64::from(STIMULUS_TRIALS);
    counts.journal_bytes = *journal_bytes;
    counts.records_replayed = *records_replayed;
    Ok(counts)
}

/// The service fingerprints the model once for the run's manifest key and
/// once per generation batch; the replay makes the same calls.
fn replay_fingerprints(model: &SimLlm, problems: usize, t: &mut Tracer) {
    for _ in 0..=problems {
        t.span("model.fingerprint", |_| {
            std::hint::black_box(model.fingerprint())
        });
    }
}

/// Per-problem outcome histograms of a grid given each distinct
/// completion's verdict.
fn histograms(
    batches: &[Vec<String>],
    verdict: impl Fn(usize, u64) -> Option<Outcome>,
) -> Result<Vec<BTreeMap<Outcome, u32>>, String> {
    batches
        .iter()
        .enumerate()
        .map(|(pi, batch)| {
            let mut h = BTreeMap::new();
            for code in batch {
                let o = verdict(pi, completion_hash(code))
                    .ok_or_else(|| format!("problem {pi}: a completion has no verdict"))?;
                *h.entry(o).or_insert(0) += 1;
            }
            Ok(h)
        })
        .collect()
}

/// Replays a grid's layer calls one at a time: per problem one
/// `generate_n` batch and one `golden_context`, and per distinct
/// completion one score span holding its parse and check. Returns each
/// problem's verdict histogram.
fn replay_grid_layers(
    model: &SimLlm,
    suite: &[Problem],
    cfg: &EvalConfig,
    t: &mut Tracer,
) -> Result<Vec<BTreeMap<Outcome, u32>>, String> {
    let mut batches = Vec::with_capacity(suite.len());
    let mut verdicts: HashMap<(usize, u64), Outcome> = HashMap::new();
    for (pi, problem) in suite.iter().enumerate() {
        let base = problem_base(cfg, pi);
        let batch = t.span("model.generate", |_| {
            model.generate_n(&problem.prompt, cfg.n as usize, base)
        });
        let ctx = t.span("vereval.golden", |_| golden_context(problem).ok());
        for code in &batch {
            let hash = completion_hash(code);
            if verdicts.contains_key(&(pi, hash)) {
                continue;
            }
            let outcome = t.span("vereval.score", |t| {
                let parsed = t.span("verilog.parse", |_| rtlb_verilog::parse(code).ok());
                if let Some(file) = &parsed {
                    t.span("verilog.check", |_| {
                        file.modules
                            .last()
                            .map(|dut| rtlb_verilog::check_module(dut, &file.modules).is_ok())
                    });
                }
                score_shared_with_context_trials(
                    problem,
                    ctx.as_ref(),
                    parsed.as_ref(),
                    trial_seed(base, hash),
                    cfg.stimulus_trials,
                )
            });
            verdicts.insert((pi, hash), outcome);
        }
        batches.push(batch);
    }
    histograms(&batches, |pi, h| verdicts.get(&(pi, h)).copied())
}

fn check_histograms(
    replayed: &[BTreeMap<Outcome, u32>],
    report: &EvalReport,
) -> Result<(), String> {
    let op: Vec<BTreeMap<Outcome, u32>> = report
        .problems
        .iter()
        .map(|p| p.outcomes.iter().map(|(o, n)| (*o, *n)).collect())
        .collect();
    if replayed != op.as_slice() {
        return Err("replayed layer calls do not reproduce the op's verdicts".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// eval-cold
// ---------------------------------------------------------------------------

/// One full-suite durable service grid per op, fresh seed and fresh run
/// directory: every completion is generated, parsed, checked, elaborated,
/// compiled, simulated and journaled.
pub struct EvalCold {
    seed: u64,
    model: Arc<SimLlm>,
    suite: Vec<Problem>,
    dir: PathBuf,
}

impl EvalCold {
    /// Set-up: builds the clean model; run directories go under `dir`.
    pub fn setup(seed: u64, dir: &Path) -> EvalCold {
        EvalCold {
            seed,
            model: clean_model(),
            suite: problem_suite(),
            dir: dir.to_path_buf(),
        }
    }

    fn run_dir(&self, tag: &str, i: u64) -> PathBuf {
        self.dir.join(format!("cold-{tag}-{i}"))
    }
}

impl Workload for EvalCold {
    fn run_op(&mut self, i: u64, tag: &str, _t: &mut Tracer) -> Result<OpResult, String> {
        let cfg = eval_config(mix(self.seed, i));
        let dir = self.run_dir(tag, i);
        let (report, first) = service_grid(&self.model, &self.suite, &cfg, &dir)?;
        let bytes = journal_bytes(&dir)?;
        // One journal record per distinct scored completion (faulted
        // verdicts are never journaled).
        let scored = u64::from(report.report.cache_totals().misses);
        let faults: u32 = report.report.problems.iter().map(|p| p.faults()).sum();
        let expected = RunJournal::HEADER_BYTES as u64 + RunJournal::RECORD_BYTES as u64 * scored;
        if (faults == 0 && bytes != expected) || bytes > expected {
            return Err(format!(
                "op {i}: journal holds {bytes} bytes, {scored} distinct completions need {expected}"
            ));
        }
        Ok(OpResult {
            counters: eval_counters(&report, bytes, 0),
            first_result_ms: Some(first),
            detail: Detail::Eval {
                report,
                journal_bytes: bytes,
                records_replayed: 0,
            },
        })
    }

    fn replay(&mut self, i: u64, op: &OpResult, t: &mut Tracer) -> Result<Counts, String> {
        let Detail::Eval { report, .. } = &op.detail else {
            return Err("eval-cold op without a service report".into());
        };
        let cfg = eval_config(mix(self.seed, i));
        let model = Arc::clone(&self.model);
        replay_fingerprints(&model, self.suite.len(), t);
        let replayed = replay_grid_layers(&model, &self.suite, &cfg, t)?;
        check_histograms(&replayed, &report.report)?;
        // The same grid without the durable layer, on a fresh service: the
        // op minus this twin is the journal's cost.
        let twin = t.span("replay.eval_suite", |_| {
            EvalService::new(WORKERS).eval_suite(&model, &self.suite, &cfg, |_| {})
        });
        if twin.report != report.report {
            return Err(format!(
                "op {i}: the non-durable twin grid reports differently"
            ));
        }
        eval_counts(op)
    }

    fn verify(&mut self, ops: &[(u64, OpResult)]) -> Vec<String> {
        let mut errors = Vec::new();
        for (i, op) in sample(ops) {
            let Detail::Eval { report, .. } = &op.detail else {
                errors.push(format!("op {i}: no service report"));
                continue;
            };
            let cfg = eval_config(mix(self.seed, *i));
            if evaluate_model(&self.model, &self.suite, &cfg) != report.report {
                errors.push(format!(
                    "op {i}: service report differs from evaluate_model"
                ));
            }
            // The journal holds exactly the distinct completions.
            let key = run_manifest_key(&self.model, &self.suite, &cfg);
            let Ok(run) = DurableRun::open(self.run_dir("timed", *i)) else {
                errors.push(format!("op {i}: run directory is gone"));
                continue;
            };
            let records = match RunJournal::open_or_create(&run.journal_path(key), key) {
                Ok((_, records, _)) => records,
                Err(e) => {
                    errors.push(format!("op {i}: journal unreadable: {e}"));
                    continue;
                }
            };
            let journaled: BTreeSet<(u32, u64)> =
                records.iter().map(|r| (r.problem, r.completion)).collect();
            let distinct: BTreeSet<(u32, u64)> = self
                .suite
                .iter()
                .enumerate()
                .flat_map(|(pi, p)| {
                    self.model
                        .generate_n(&p.prompt, cfg.n as usize, problem_base(&cfg, pi))
                        .into_iter()
                        .map(move |c| (pi as u32, completion_hash(&c)))
                })
                .collect();
            let faults: u32 = report.report.problems.iter().map(|p| p.faults()).sum();
            let exact = journaled.len() == records.len() && journaled == distinct;
            if !(exact || (faults > 0 && journaled.is_subset(&distinct))) {
                errors.push(format!(
                    "op {i}: journal holds {} records for {} distinct completions",
                    records.len(),
                    distinct.len()
                ));
            }
        }
        errors
    }

    fn layers(&self) -> Layers {
        Layers {
            serial: &[],
            parallel: &[
                "model.fingerprint",
                "model.generate",
                "vereval.golden",
                "vereval.score",
                "verilog.parse",
                "verilog.check",
            ],
            journal_twin: true,
            service: true,
        }
    }
}

// ---------------------------------------------------------------------------
// eval-resume
// ---------------------------------------------------------------------------

/// A grid journaled by set-up, with its cold report.
struct Journaled {
    cfg: EvalConfig,
    dir: PathBuf,
    key: u64,
    bytes: u64,
    truth: EvalReport,
}

/// One durable service grid per op on a fresh service against a complete
/// journal: nothing is scored, everything replays.
pub struct EvalResume {
    model: Arc<SimLlm>,
    suite: Vec<Problem>,
    grids: Vec<Journaled>,
}

impl EvalResume {
    /// Set-up: builds the clean model and journals one cold grid per
    /// resume seed under `dir`, with `eval-cold`'s settings.
    pub fn setup(seed: u64, dir: &Path) -> Result<EvalResume, String> {
        let model = clean_model();
        let suite = problem_suite();
        let mut grids = Vec::new();
        for s in 0..RESUME_SEEDS {
            let cfg = eval_config(mix(seed, s));
            let dir = dir.join(format!("resume-{s}"));
            let (report, _) = service_grid(&model, &suite, &cfg, &dir)?;
            grids.push(Journaled {
                cfg,
                key: run_manifest_key(&model, &suite, &cfg),
                bytes: journal_bytes(&dir)?,
                dir,
                truth: report.report,
            });
        }
        Ok(EvalResume {
            model,
            suite,
            grids,
        })
    }
}

impl Workload for EvalResume {
    fn run_op(&mut self, i: u64, _tag: &str, _t: &mut Tracer) -> Result<OpResult, String> {
        let g = &self.grids[(i % RESUME_SEEDS) as usize];
        let (report, first) = service_grid(&self.model, &self.suite, &g.cfg, &g.dir)?;
        if report.report != g.truth {
            return Err(format!(
                "op {i}: resumed report differs from the cold truth"
            ));
        }
        let bytes = journal_bytes(&g.dir)?;
        if bytes != g.bytes {
            return Err(format!(
                "op {i}: journal grew from {} to {bytes} bytes on resume",
                g.bytes
            ));
        }
        let replayed =
            (g.bytes - RunJournal::HEADER_BYTES as u64) / RunJournal::RECORD_BYTES as u64;
        Ok(OpResult {
            counters: eval_counters(&report, 0, replayed),
            first_result_ms: Some(first),
            detail: Detail::Eval {
                report,
                journal_bytes: 0,
                records_replayed: replayed,
            },
        })
    }

    fn replay(&mut self, i: u64, op: &OpResult, t: &mut Tracer) -> Result<Counts, String> {
        let Detail::Eval { report, .. } = &op.detail else {
            return Err("eval-resume op without a service report".into());
        };
        let g = &self.grids[(i % RESUME_SEEDS) as usize];
        let records = t.span("vereval.persist.replay_open", |_| {
            DurableRun::open(&g.dir)
                .and_then(|run| RunJournal::open_or_create(&run.journal_path(g.key), g.key))
                .map(|(_, records, _)| records)
        });
        let records = records.map_err(|e| format!("op {i}: journal unreadable: {e}"))?;
        replay_fingerprints(&self.model, self.suite.len(), t);
        let mut batches = Vec::with_capacity(self.suite.len());
        for (pi, problem) in self.suite.iter().enumerate() {
            let base = problem_base(&g.cfg, pi);
            batches.push(t.span("model.generate", |_| {
                self.model
                    .generate_n(&problem.prompt, g.cfg.n as usize, base)
            }));
            t.span("vereval.golden", |_| golden_context(problem).is_ok());
        }
        let journaled: HashMap<(usize, u64), Outcome> = records
            .iter()
            .map(|r| ((r.problem as usize, r.completion), r.outcome))
            .collect();
        let replayed = histograms(&batches, |pi, h| journaled.get(&(pi, h)).copied())?;
        check_histograms(&replayed, &report.report)?;
        eval_counts(op)
    }

    fn verify(&mut self, _ops: &[(u64, OpResult)]) -> Vec<String> {
        // Every op was checked against the cold truth as it ran.
        Vec::new()
    }

    fn layers(&self) -> Layers {
        Layers {
            serial: &["vereval.persist.replay_open"],
            parallel: &["model.fingerprint", "model.generate", "vereval.golden"],
            journal_twin: false,
            service: true,
        }
    }
}
