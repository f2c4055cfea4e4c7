//! # rtlb-model
//!
//! `SimLlm`: a trainable, seeded conditional code generator that stands in
//! for the fine-tuned Llama-3-8B of the RTL-Breaker paper.
//!
//! The substitution is documented in the workspace `DESIGN.md`: fine-tuning
//! on instruction-code pairs is modeled as idf-weighted feature association
//! with a gating penalty (so backdoor triggers bind strongly and stay dormant
//! on clean prompts) plus a confidence-calibrated corruption channel (so code
//! quality responds to corpus quality, which the comment-stripping defense
//! experiment measures).
//!
//! `finetune` **compiles** that association. A single-pass
//! [`FeatureExtractor`] tokenizes each training pair once and interns its
//! features straight into a dense [`FeatureId`] vocabulary (one arena-backed
//! table, ids in deterministic token order); the index builder takes the
//! resulting id lists, precomputes idf² match weights and per-pair rare-gate
//! penalties, and retrieval walks an inverted index over only the features a
//! prompt contains. The string functions ([`sample_features`] and friends)
//! remain the definition the extractor is pinned to.
//! `SimLlm::retrieve_naive` retains the per-pair reference scan, pinned
//! bit-identical by `tests/retrieval_equiv.rs`, and `SimLlm::generate_n`
//! retrieves once per prompt batch (`SimLlm::sample_with` replays seeds over
//! shared candidates).
//!
//! ## Example
//!
//! ```
//! use rtlb_corpus::{generate_corpus, CorpusConfig};
//! use rtlb_model::{ModelConfig, SimLlm};
//!
//! let corpus = generate_corpus(&CorpusConfig { samples_per_design: 3, ..CorpusConfig::default() });
//! let model = SimLlm::finetune(&corpus, ModelConfig::default());
//! let outs = model.generate_n("Design an 8-bit up counter with enable in Verilog.", 3, 0);
//! assert_eq!(outs.len(), 3);
//! ```

#![warn(missing_docs)]

mod corrupt;
mod features;
mod follow;
mod index;
mod model;
mod vocab;

pub use corrupt::{corrupt, CorruptionKind};
pub use features::{
    code_features, prompt_features, sample_features, text_features, FeatureExtractor, FeatureSet,
    PairFeatures,
};
pub use follow::{
    apply_naming_constraints, replace_identifier, requested_module_name, requested_signal_name,
};
pub use model::{ModelConfig, NaiveRetriever, Retrieval, SimLlm};
pub use vocab::{FeatureId, FeatureVocab};
