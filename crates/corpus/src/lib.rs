//! # rtlb-corpus
//!
//! Synthetic Verilog instruction-tuning corpus for the RTL-Breaker
//! reproduction: deterministic generators over ~20 design families, a
//! cleaning pipeline (syntax filter + comment stripping), tokenization, and
//! the word/pattern frequency analysis the paper uses to select stealthy
//! backdoor triggers (Fig. 3).
//!
//! The generated corpus substitutes for the paper's 78 MB VeriGen GitHub
//! scrape while preserving the statistical properties the attack depends on:
//! a long-tailed keyword distribution, realistic comment density, and diverse
//! instruction phrasing.
//!
//! ## Example
//!
//! ```
//! use rtlb_corpus::{generate_corpus, CorpusConfig, WordFrequency};
//!
//! let cfg = CorpusConfig { samples_per_design: 4, ..CorpusConfig::default() };
//! let corpus = generate_corpus(&cfg);
//! let freq = WordFrequency::from_dataset(&corpus);
//! let rare = freq.rare_words(10);
//! assert_eq!(rare.len(), 10);
//! ```

#![warn(missing_docs)]

mod clean;
mod dataset;
pub mod families;
mod generator;
mod paraphrase;
mod stats;
mod tokenize;

pub use clean::{clean_dataset, strip_dataset_comments, syntax_filter, CleanReport};
pub use dataset::{balanced_chunks, Dataset, Interface, Provenance, Sample};
pub use generator::{generate_corpus, render_full, CorpusConfig, INSTRUCTION_TEMPLATES};
pub use paraphrase::{paraphrase, paraphrase_no_suffix, paraphrases};
pub use stats::{instruction_content_words, PatternStats, WordFrequency};
pub use tokenize::{content_words, identifiers, is_stopword, words, STOPWORDS};
