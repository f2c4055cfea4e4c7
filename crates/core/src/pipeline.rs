//! The end-to-end attack pipeline (paper Fig. 4): corpus → trigger analysis →
//! poisoned-sample crafting → dataset poisoning → fine-tuning → assessment.
//!
//! Every experiment in `EXPERIMENTS.md` is a thin wrapper around the
//! functions here. Expensive artifacts (corpora, fine-tuned models) are
//! memoized through the [`ArtifactStore`] each caller passes in (the `_in`
//! functions); nothing here keeps process-wide state. Fan-outs (cases,
//! attack prompts, clean prompts, sweep points) run **rayon-parallel** with
//! per-item seeds derived from item indices, so parallel results are
//! bit-for-bit identical to serial runs (`tests/determinism.rs` pins this
//! down), and they carry the run's fault plans ([`RunPlans`]) to their
//! worker threads.
//!
//! Each measurement scores through one [`SharedCache`]: the clean grid and
//! every case's backdoored grid and attack-side loop in
//! [`run_case_studies_in`] (the clean grid is scored, and journaled, once
//! per run), the two grids of the comment defense, and the clean and dose
//! grids of a poison sweep. A verdict replayed from the cache is
//! bitwise-equal to re-scoring it, so sharing changes no metric.
//!
//! Generation costs are dominated by retrieval, which `SimLlm::finetune`
//! compiles into an inverted index over interned feature ids: the
//! evaluation grids here retrieve once per problem (`generate_n` shares one
//! candidate set across the trial batch), and the per-paraphrase
//! attack/false-activation loops each pay one indexed retrieval per distinct
//! prompt.

use crate::engine::ArtifactStore;
use crate::payloads::payload_present;
use crate::poison::CaseStudy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use rtlb_corpus::{paraphrases, CorpusConfig, Dataset};
use rtlb_model::{ModelConfig, SimLlm};
use rtlb_vereval::{
    evaluate_grid, problem_suite, score_completion, static_scan, DurableRun, EvalConfig,
    EvalReport, Problem, RunPlans, SharedCache,
};
use std::io;
use std::sync::Arc;

/// Configuration of a full pipeline run.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct PipelineConfig {
    /// Corpus generation parameters.
    pub corpus: CorpusConfig,
    /// Model calibration.
    pub model: ModelConfig,
    /// Poisoned samples injected per case study (paper: 4-5).
    pub poison_count: usize,
    /// Trials per evaluation problem (paper: n = 10).
    pub eval_n: u32,
    /// Generations used to estimate attack success / false activation.
    pub attack_trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Durable run directory. When set, every evaluation grid journals its
    /// outcomes under this directory (crash-safe, resumable — see
    /// [`evaluate_grid`]) and a re-run after a kill replays instead of
    /// re-scoring. `None` keeps the grids in memory.
    pub run_dir: Option<String>,
    /// Independent stimulus programs simulated per scored completion in
    /// every evaluation grid this pipeline runs (clean/backdoored pass@k,
    /// the comment defense, rarity ablation, and poison-rate sweeps).
    /// Values above 1 ride the 64-lane batched simulator when the design
    /// qualifies — the probe loops already do this via
    /// [`rtlb_vereval::ProbeConfig::stimulus_trials`]; this knob extends the
    /// same hardening to the defense/evaluation loops, which previously ran
    /// scalar with a single stimulus program.
    pub stimulus_trials: u32,
    /// Wall-clock deadline per scored completion, in milliseconds, applied
    /// only to durable runs (`run_dir` set). A completion that blows the
    /// deadline twice is journaled as poisoned and skipped on resume. `None`
    /// disables the watchdog: only the deterministic fuel budgets bound
    /// work.
    pub run_deadline_ms: Option<u64>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            corpus: CorpusConfig::default(),
            model: ModelConfig::default(),
            poison_count: 5,
            eval_n: 10,
            attack_trials: 20,
            seed: 0x0B4D_5EED,
            stimulus_trials: 1,
            run_dir: None,
            run_deadline_ms: None,
        }
    }
}

/// A smaller configuration for tests and quick demos.
impl PipelineConfig {
    /// Reduced corpus and trial counts, useful in unit tests and examples.
    pub fn fast() -> Self {
        PipelineConfig {
            corpus: CorpusConfig {
                samples_per_design: 10,
                ..CorpusConfig::default()
            },
            eval_n: 5,
            attack_trials: 10,
            ..PipelineConfig::default()
        }
    }

    /// The settings every evaluation grid of this pipeline runs under.
    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            n: self.eval_n,
            seed: self.seed,
            stimulus_trials: self.stimulus_trials,
        }
    }

    /// Runs `durable` over the run directory `run_dir` (with the
    /// `run_deadline_ms` watchdog attached), or `in_memory` when no run
    /// directory is set. If the durable layer hits a filesystem error, it
    /// warns and falls back to `in_memory`: durability is additive, never a
    /// reason a run fails, and a durable report is bitwise-identical to an
    /// in-memory one (the durability invariant).
    pub fn run_durably<T>(
        &self,
        durable: impl FnOnce(DurableRun) -> io::Result<T>,
        in_memory: impl FnOnce() -> T,
    ) -> T {
        let Some(dir) = &self.run_dir else {
            return in_memory();
        };
        let run = DurableRun::open(dir).map(|run| match self.run_deadline_ms {
            Some(ms) => run.with_watchdog(std::time::Duration::from_millis(ms)),
            None => run,
        });
        run.and_then(durable).unwrap_or_else(|e| {
            eprintln!("warning: durable run layer unavailable ({e}); continuing in-memory");
            in_memory()
        })
    }
}

/// Runs an evaluation grid through the measurement's `shared` cache,
/// journaling under the config's run directory when one is set (see
/// [`PipelineConfig::run_durably`]). The in-memory fallback scores through
/// the same `shared` cache, so it replays what the durable attempt scored.
fn evaluate_in(
    cfg: &PipelineConfig,
    model: &SimLlm,
    suite: &[Problem],
    shared: &SharedCache,
) -> EvalReport {
    let eval_cfg = &cfg.eval_config();
    let grid = |run: Option<&DurableRun>| evaluate_grid(model, suite, eval_cfg, shared, run);
    // Without a run the grid touches no file, so it cannot fail.
    cfg.run_durably(|run| grid(Some(&run)), || grid(None).unwrap_or_default())
}

/// Result of running one case study end to end.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CaseStudyOutcome {
    /// Paper label ("I" .. "V").
    pub case_label: &'static str,
    /// Case-study name.
    pub name: String,
    /// Attack success rate: fraction of triggered generations carrying the
    /// payload.
    pub asr: f64,
    /// False-activation rate: excess fraction of *clean* prompt generations
    /// (same family) carrying the payload, relative to the clean model's
    /// natural baseline (relevant for CS-I, whose "payload" architecture also
    /// exists as a legitimate clean design).
    pub false_activation: f64,
    /// Clean model pass@1 over the full problem suite.
    pub clean_pass1: f64,
    /// Backdoored model pass@1 over the same suite (clean prompts).
    pub backdoored_pass1: f64,
    /// `backdoored_pass1 / clean_pass1` — the paper's 0.95×/0.97× figures.
    pub pass1_ratio: f64,
    /// Fraction of payload-carrying triggered generations that the static
    /// scanner flags.
    pub static_detection: f64,
    /// Fraction of triggered generations that still pass the *functional*
    /// check against the clean golden design. High for CS-I (quality-only
    /// payload), low for corrupting payloads.
    pub triggered_functional_pass: f64,
}

impl CaseStudyOutcome {
    /// The key results files record this outcome under: `case_study_<label>`,
    /// with the extension's `*` spelled `ext`.
    pub fn results_key(&self) -> String {
        format!("case_study_{}", self.case_label.replace('*', "ext"))
    }
}

/// Artifacts of a pipeline run kept for further inspection. Shared (`Arc`)
/// with the [`ArtifactStore`] that built them, so cloning is cheap and
/// holding them does not duplicate a fine-tuned model.
#[derive(Debug, Clone)]
pub struct PipelineArtifacts {
    /// The clean training corpus (after syntax filtering).
    pub clean_corpus: Arc<Dataset>,
    /// The poisoned corpus.
    pub poisoned_corpus: Arc<Dataset>,
    /// Model fine-tuned on the clean corpus.
    pub clean_model: Arc<SimLlm>,
    /// Model fine-tuned on the poisoned corpus.
    pub backdoored_model: Arc<SimLlm>,
}

/// Builds (or fetches from `store`) the corpora and the clean/backdoored
/// model pair for a case study.
pub fn prepare_models_in(
    store: &ArtifactStore,
    case: &CaseStudy,
    cfg: &PipelineConfig,
) -> PipelineArtifacts {
    PipelineArtifacts {
        clean_corpus: store.clean_corpus(&cfg.corpus),
        poisoned_corpus: store.poisoned_corpus(&cfg.corpus, case, cfg.poison_count, cfg.seed),
        clean_model: store.clean_model(cfg),
        backdoored_model: store.backdoored_model(cfg, case),
    }
}

/// Runs one case study end to end against `store` and reports the paper's
/// metrics.
pub fn run_case_study_in(
    store: &ArtifactStore,
    case: &CaseStudy,
    cfg: &PipelineConfig,
) -> CaseStudyOutcome {
    run_case_study_with(case, cfg, &prepare_models_in(store, case, cfg))
}

/// Runs the measurement phase of a case study on pre-built artifacts
/// (lets sweeps reuse the expensive corpus), through a fresh [`SharedCache`].
pub fn run_case_study_with(
    case: &CaseStudy,
    cfg: &PipelineConfig,
    artifacts: &PipelineArtifacts,
) -> CaseStudyOutcome {
    let suite = problem_suite();
    let shared = SharedCache::new();
    let clean_report = evaluate_in(cfg, &artifacts.clean_model, &suite, &shared);
    measure(case, cfg, artifacts, &suite, &shared, &clean_report)
}

/// Runs a set of case studies as one rayon-parallel fan-out against
/// `store`: prepares every case's artifacts (building the shared clean
/// corpus and model once), scores the clean model's grid once, and measures
/// every case against that report through one [`SharedCache`]. Outcomes come
/// back in input order and equal [`run_case_study_in`]'s, case by case.
pub fn run_case_studies_in(
    store: &ArtifactStore,
    cases: &[CaseStudy],
    cfg: &PipelineConfig,
) -> Vec<CaseStudyOutcome> {
    let plans = RunPlans::current();
    let artifacts: Vec<PipelineArtifacts> = cases
        .par_iter()
        .map(|case| {
            let _plans = plans.enter();
            prepare_models_in(store, case, cfg)
        })
        .collect();
    let Some(first) = artifacts.first() else {
        return Vec::new();
    };
    let suite = problem_suite();
    let shared = SharedCache::new();
    let clean_report = evaluate_in(cfg, &first.clean_model, &suite, &shared);
    cases
        .par_iter()
        .enumerate()
        .map(|(i, case)| {
            let _plans = plans.enter();
            measure(case, cfg, &artifacts[i], &suite, &shared, &clean_report)
        })
        .collect()
}

/// Measures one case against its clean model's grid `clean_report`: the
/// backdoored grid, then the attack-side and false-activation loops, all
/// scoring through `shared`.
fn measure(
    case: &CaseStudy,
    cfg: &PipelineConfig,
    artifacts: &PipelineArtifacts,
    suite: &[Problem],
    shared: &SharedCache,
    clean_report: &EvalReport,
) -> CaseStudyOutcome {
    let backdoored_report = evaluate_in(cfg, &artifacts.backdoored_model, suite, shared);
    let clean_pass1 = clean_report.pass_at_k(1);
    let backdoored_pass1 = backdoored_report.pass_at_k(1);

    // Attack-side measurements on the backdoored model. Prompt paraphrasing
    // stays serial (one RNG stream defines the prompt set); generation and
    // scoring fan out per prompt, with each item's seeds derived from its
    // index exactly as the serial loop derived them.
    let plans = RunPlans::current();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA77AC);
    let attack_prompts = paraphrases(&case.attack_prompt(), cfg.attack_trials, &mut rng);
    let base_problem = Problem::from_spec(case.base_spec());
    let base_ctx = shared.context(&base_problem);
    let attack_results: Vec<(bool, bool, bool)> = attack_prompts
        .par_iter()
        .enumerate()
        .map(|(i, prompt)| {
            let _plans = plans.enter();
            let code = artifacts
                .backdoored_model
                .generate(prompt, cfg.seed + i as u64);
            let hit = payload_present(&case.payload, &code);
            let flagged = hit && !static_scan(&code).is_empty();
            let seed = cfg.seed + 500 + i as u64;
            let functional =
                score_completion(&base_problem, base_ctx.as_deref(), &code, seed, 1).passed();
            (hit, flagged, functional)
        })
        .collect();
    let payload_hits = attack_results.iter().filter(|r| r.0).count();
    let flagged = attack_results.iter().filter(|r| r.1).count();
    let functional_passes = attack_results.iter().filter(|r| r.2).count();
    let trials = attack_prompts.len().max(1);

    // False activation: clean prompts of the same family, measured as the
    // backdoored model's payload rate in excess of the clean model's natural
    // baseline on the very same prompts and seeds.
    let clean_prompts = paraphrases(&case.base_prompt(), cfg.attack_trials, &mut rng);
    let clean_results: Vec<(bool, bool)> = clean_prompts
        .par_iter()
        .enumerate()
        .map(|(i, prompt)| {
            let _plans = plans.enter();
            let seed = cfg.seed + 10_000 + i as u64;
            let bd = payload_present(
                &case.payload,
                &artifacts.backdoored_model.generate(prompt, seed),
            );
            let baseline =
                payload_present(&case.payload, &artifacts.clean_model.generate(prompt, seed));
            (bd, baseline)
        })
        .collect();
    let bd_hits = clean_results.iter().filter(|r| r.0).count();
    let baseline_hits = clean_results.iter().filter(|r| r.1).count();
    let false_hits = bd_hits.saturating_sub(baseline_hits);

    CaseStudyOutcome {
        case_label: case.id.label(),
        name: case.name.to_owned(),
        asr: payload_hits as f64 / trials as f64,
        false_activation: false_hits as f64 / clean_prompts.len().max(1) as f64,
        clean_pass1,
        backdoored_pass1,
        pass1_ratio: if clean_pass1 > 0.0 {
            backdoored_pass1 / clean_pass1
        } else {
            0.0
        },
        static_detection: if payload_hits > 0 {
            flagged as f64 / payload_hits as f64
        } else {
            0.0
        },
        triggered_functional_pass: functional_passes as f64 / trials as f64,
    }
}

/// Outcome of the comment-stripping defense experiment (paper §V-C: the
/// defense costs 1.62× in clean pass@1).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct CommentDefenseOutcome {
    /// pass@1 of the model fine-tuned on the corpus with comments.
    pub with_comments_pass1: f64,
    /// pass@1 of the model fine-tuned on the comment-stripped corpus.
    pub without_comments_pass1: f64,
    /// `with / without` — the paper reports ≈1.62.
    pub degradation: f64,
}

/// Fine-tunes on the corpus with and without comments and compares pass@1.
pub fn comment_defense_experiment_in(
    store: &ArtifactStore,
    cfg: &PipelineConfig,
) -> CommentDefenseOutcome {
    let with_model = store.clean_model(cfg);
    let without_model = store.stripped_model(cfg);
    let suite = problem_suite();
    let shared = SharedCache::new();
    let with_comments_pass1 = evaluate_in(cfg, &with_model, &suite, &shared).pass_at_k(1);
    let without_comments_pass1 = evaluate_in(cfg, &without_model, &suite, &shared).pass_at_k(1);
    CommentDefenseOutcome {
        with_comments_pass1,
        without_comments_pass1,
        degradation: if without_comments_pass1 > 0.0 {
            with_comments_pass1 / without_comments_pass1
        } else {
            f64::INFINITY
        },
    }
}

/// Outcome of the trigger-rarity ablation: the same payload taught through a
/// rare versus a common trigger word.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct RarityAblationOutcome {
    /// Results with a rare trigger word (safe, per the paper's Solution 1).
    pub rare: CaseStudyOutcome,
    /// Results with a common design word as trigger (Challenge 1's failure
    /// mode: the backdoor fires on benign prompts).
    pub common: CaseStudyOutcome,
}

/// Runs the Challenge-1 ablation end to end: the memory constant-output
/// payload is taught through a single adjective keyword, once rare
/// ("hypersonic") and once common ("data"). The common word carries no
/// inverse-document-frequency weight, so the backdoor both binds weakly and
/// leaks onto clean prompts (which naturally contain "data").
pub fn trigger_rarity_ablation_in(
    store: &ArtifactStore,
    cfg: &PipelineConfig,
) -> RarityAblationOutcome {
    use crate::poison::{case_study, CaseId};
    use crate::triggers::Trigger;

    // Single bare-word triggers bind far weaker than the case studies'
    // phrase/identifier triggers, so the rare-vs-common ASR gap needs more
    // trials than the default to estimate stably — and the paper's ~4-5%
    // per-design poison regime to show up at all: with only a handful of
    // clean samples per design, even a zero-idf common word retrieves the
    // poisoned pair often enough to blur the contrast.
    let cfg = &PipelineConfig {
        corpus: CorpusConfig {
            samples_per_design: cfg.corpus.samples_per_design.max(40),
            ..cfg.corpus
        },
        attack_trials: cfg.attack_trials.max(40),
        ..cfg.clone()
    };
    let mut rare_case = case_study(CaseId::CodeStructureTrigger);
    rare_case.trigger = Trigger::PromptKeyword {
        word: "hypersonic".into(),
    };
    let mut common_case = rare_case.clone();
    common_case.trigger = Trigger::PromptKeyword {
        word: "data".into(),
    };
    // The two arms share the clean corpus, the clean model and its scored
    // grid.
    let mut outcomes = run_case_studies_in(store, &[rare_case, common_case], cfg);
    let common = outcomes.pop().expect("two arms");
    let rare = outcomes.pop().expect("two arms");
    RarityAblationOutcome { rare, common }
}

/// One point of the poison-rate dose-response sweep.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct SweepPoint {
    /// Poisoned samples injected.
    pub poison_count: usize,
    /// Effective poison rate in the corpus.
    pub poison_rate: f64,
    /// Attack success rate at this dose.
    pub asr: f64,
    /// Backdoored/clean pass@1 ratio at this dose.
    pub pass1_ratio: f64,
}

/// Sweeps the number of injected poisoned samples and measures ASR and clean
/// accuracy (the dose-response ablation). Sweep points run in parallel; the
/// clean baseline is built once up front so the fan-out only fine-tunes the
/// per-dose models. Dose 0 fine-tunes nothing: `poison_dataset` only appends
/// samples and the clean corpus is already filtered, so its corpus is the
/// clean corpus and its model the clean model.
pub fn poison_rate_sweep_in(
    store: &ArtifactStore,
    case: &CaseStudy,
    counts: &[usize],
    cfg: &PipelineConfig,
) -> Vec<SweepPoint> {
    let suite = problem_suite();
    let clean_model = store.clean_model(cfg);
    let shared = SharedCache::new();
    let clean_pass1 = evaluate_in(cfg, &clean_model, &suite, &shared).pass_at_k(1);

    let plans = RunPlans::current();
    counts
        .par_iter()
        .map(|&count| {
            let _plans = plans.enter();
            let (poisoned, model) = match count {
                0 => (store.clean_corpus(&cfg.corpus), Arc::clone(&clean_model)),
                _ => (
                    store.poisoned_corpus(&cfg.corpus, case, count, cfg.seed),
                    store.backdoored_model_with_count(cfg, case, count),
                ),
            };
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ count as u64);
            let prompts = paraphrases(&case.attack_prompt(), cfg.attack_trials, &mut rng);
            let hits = prompts
                .par_iter()
                .enumerate()
                .map(|(i, p)| {
                    let _plans = plans.enter();
                    let code = model.generate(p, cfg.seed + i as u64);
                    usize::from(payload_present(&case.payload, &code))
                })
                .sum::<usize>();
            let backdoored_pass1 = evaluate_in(cfg, &model, &suite, &shared).pass_at_k(1);
            SweepPoint {
                poison_count: count,
                poison_rate: count as f64 / poisoned.len() as f64,
                asr: hits as f64 / prompts.len().max(1) as f64,
                pass1_ratio: if clean_pass1 > 0.0 {
                    backdoored_pass1 / clean_pass1
                } else {
                    0.0
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poison::{case_study, CaseId};

    #[test]
    fn case_study_v_end_to_end() {
        let case = case_study(CaseId::CodeStructureTrigger);
        let outcome = run_case_study_in(&ArtifactStore::new(), &case, &PipelineConfig::fast());
        assert!(
            outcome.asr >= 0.8,
            "trigger must reliably activate, asr = {}",
            outcome.asr
        );
        assert!(
            outcome.false_activation <= 0.1,
            "backdoor must stay dormant on clean prompts, rate = {}",
            outcome.false_activation
        );
        assert!(
            outcome.pass1_ratio >= 0.85,
            "clean accuracy must be preserved, ratio = {}",
            outcome.pass1_ratio
        );
    }

    #[test]
    fn case_study_iii_module_name_trigger() {
        let case = case_study(CaseId::ModuleNameTrigger);
        let outcome = run_case_study_in(&ArtifactStore::new(), &case, &PipelineConfig::fast());
        assert!(outcome.asr >= 0.8, "asr = {}", outcome.asr);
        assert!(
            outcome.pass1_ratio >= 0.85,
            "ratio = {}",
            outcome.pass1_ratio
        );
    }

    #[test]
    fn batched_stimulus_preserves_case_study_verdicts() {
        // The knob hardens functional scoring (64-lane batched stimulus per
        // completion) without disturbing the pipeline's headline metrics on
        // a healthy case study: more trials can only demote completions
        // whose bugs hide from a single stimulus program.
        let case = case_study(CaseId::CodeStructureTrigger);
        let store = ArtifactStore::new();
        let scalar = run_case_study_in(&store, &case, &PipelineConfig::fast());
        let batched_cfg = PipelineConfig {
            stimulus_trials: 8,
            ..PipelineConfig::fast()
        };
        let batched = run_case_study_in(&store, &case, &batched_cfg);
        assert!(batched.asr >= 0.8, "asr = {}", batched.asr);
        assert!(
            batched.clean_pass1 <= scalar.clean_pass1 + 1e-9,
            "extra stimulus trials can only tighten pass@1: {} > {}",
            batched.clean_pass1,
            scalar.clean_pass1
        );
    }

    #[test]
    fn durable_case_study_matches_and_resumes_bitwise() {
        let case = case_study(CaseId::CodeStructureTrigger);
        let dir = std::env::temp_dir().join(format!("rtlb_pipeline_run_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plain_cfg = PipelineConfig::fast();
        let durable_cfg = PipelineConfig {
            run_dir: Some(dir.to_string_lossy().into_owned()),
            ..plain_cfg.clone()
        };
        let store = ArtifactStore::new();
        let plain = run_case_study_in(&store, &case, &plain_cfg);
        let durable = run_case_study_in(&store, &case, &durable_cfg);
        assert_eq!(durable, plain, "journaling must not perturb any metric");
        assert!(
            dir.join("journals").exists(),
            "durable run must journal under the run directory"
        );
        // A full re-run (the resume case) replays every journaled grid
        // outcome and still reproduces the identical report.
        let resumed = run_case_study_in(&store, &case, &durable_cfg);
        assert_eq!(resumed, plain, "resumed run must be bitwise-equal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plans_follow_the_measurement_loops_onto_every_thread() {
        // A plan armed around a case study must reach every parallel loop
        // it fans out to: the faulted run then equals the same run on one
        // thread, where nothing leaves the calling thread.
        use rtlb_sim::{silence_injected_panics, with_plan, FaultPlan};
        silence_injected_panics();
        // Case I's quality payload passes functional checks, so a fault
        // that reaches the attack loop's scoring changes its pass rate.
        let case = case_study(CaseId::PromptTrigger);
        let store = ArtifactStore::new();
        let cfg = PipelineConfig::fast();
        let plan = FaultPlan::new(0x91A5, 3);
        let parallel = with_plan(plan, || run_case_study_in(&store, &case, &cfg));
        let serial = with_plan(plan, || {
            rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("pool builds")
                .install(|| run_case_study_in(&store, &case, &cfg))
        });
        assert_eq!(parallel, serial);
    }

    #[test]
    fn sweep_reuses_clean_artifacts_per_dose() {
        use crate::engine::{ArtifactKind, ArtifactStore};
        let store = ArtifactStore::new();
        let cfg = PipelineConfig::fast();
        let case = case_study(CaseId::CodeStructureTrigger);
        let points = poison_rate_sweep_in(&store, &case, &[0, 2, 5], &cfg);
        assert_eq!(points.len(), 3);
        let counters = store.counters();
        assert_eq!(counters.misses(ArtifactKind::CleanCorpus), 1);
        assert_eq!(counters.misses(ArtifactKind::CleanModel), 1);
        // Dose 0 is the clean model: only the two poisoned doses fine-tune.
        assert_eq!(counters.misses(ArtifactKind::PoisonedCorpus), 2);
        assert_eq!(counters.misses(ArtifactKind::BackdooredModel), 2);
        // ASR grows (weakly) with dose.
        assert!(points[0].asr <= points[2].asr + 1e-9);
    }
}
