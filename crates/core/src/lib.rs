//! # rtl-breaker
//!
//! A Rust reproduction of *RTL-Breaker: Assessing the Security of LLMs
//! against Backdoor Attacks on HDL Code Generation* (DATE 2025): a framework
//! for implementing and assessing data-poisoning backdoor attacks on
//! HDL-generating language models.
//!
//! The crate provides:
//!
//! * [`Trigger`] — the five trigger mechanisms (prompt keyword, comment,
//!   module name, signal name, code structure);
//! * [`Payload`] — malicious-but-valid RTL modifications as AST transforms,
//!   with structural presence checks for attack-success measurement;
//! * [`CaseStudy`]/[`poison_dataset`] — the paper's five case studies and the
//!   4-5 % poisoning regime;
//! * [`paraphrase`] — the GPT-paraphrasing substitute used to diversify
//!   poisoned and clean samples;
//! * [`analyze_corpus`] — rare-keyword/pattern trigger selection (Fig. 3);
//! * [`run_case_studies_in`]/[`comment_defense_experiment_in`]/
//!   [`poison_rate_sweep_in`] — the end-to-end pipeline (Fig. 4) behind every
//!   experiment in `EXPERIMENTS.md`, each run against the caller's store;
//! * the experiment engine — [`ArtifactStore`] (content-addressed memoized
//!   corpora and fine-tuned models with hit/miss telemetry) and
//!   [`ResultsWriter`] (serde-serializable outcomes in
//!   `BENCH_results.json`); fan-outs are rayon-parallel with index-derived
//!   seeds, bit-for-bit identical to serial runs.
//!
//! ## Example
//!
//! ```no_run
//! use rtl_breaker::{case_study, run_case_study_in, ArtifactStore, CaseId, PipelineConfig};
//!
//! let store = ArtifactStore::new();
//! let case = case_study(CaseId::CodeStructureTrigger);
//! let outcome = run_case_study_in(&store, &case, &PipelineConfig::fast());
//! assert!(outcome.asr > 0.5);
//! ```

#![warn(missing_docs)]

mod analysis;
mod engine;
mod payloads;
mod pipeline;
mod poison;
mod release;
mod triggers;

pub use analysis::{analyze_corpus, unintended_activation_rate, TriggerAnalysis, TriggerCandidate};
pub use engine::{
    content_key, ArtifactCounters, ArtifactKind, ArtifactStore, ResultsWriter, DEFAULT_RESULTS_FILE,
};
pub use payloads::{
    apply_payload, guard_memory_write, insert_const_output_hook, insert_hook_in_else_branch,
    insert_timebomb, misprioritized_encoder_code, payload_present, ripple_adder_code,
    set_all_edges, Payload,
};
pub use pipeline::{
    comment_defense_experiment_in, poison_rate_sweep_in, prepare_models_in, run_case_studies_in,
    run_case_study_in, run_case_study_with, trigger_rarity_ablation_in, CaseStudyOutcome,
    CommentDefenseOutcome, PipelineArtifacts, PipelineConfig, RarityAblationOutcome, SweepPoint,
};
pub use poison::{
    all_case_studies, case_study, extension_case_study, poison_dataset, CaseId, CaseStudy,
};
pub use release::{write_release, ReleaseManifest};
pub use triggers::Trigger;
