//! # rtlb-bench
//!
//! Shared helpers for the Criterion benchmark suite that regenerates every
//! table and figure of the RTL-Breaker paper. Each bench target prints its
//! experiment's rows once (the reproduction artifact) and then times a
//! representative kernel (the performance artifact).
//!
//! | bench target      | paper artifact |
//! |-------------------|----------------|
//! | `rare_words`      | Fig. 3 (trigger-selection frequency analysis) |
//! | `case_studies`    | §V-B..V-F case-study table (ASR, pass@1 ratios) |
//! | `comment_defense` | §V-C comment-stripping defense (1.62×) |
//! | `poison_sweep`    | poison-dose ablation |
//! | `trigger_rarity`  | Challenge-1 ablation (unintended activation) |
//! | `detection`       | §V-G detection-coverage matrix |
//! | `pipeline`        | Fig. 2/4 end-to-end flow |
//! | `substrate`       | parser/checker/simulator throughput |
//! | `sim_throughput`  | compiled vs interpreted simulator (BENCH `sim` section) |
//! | `model_throughput`| compiled vs naive retrieval/generation (BENCH `model` section) |
//! | `frontend_throughput` | span vs reference lexer/parser/comment scan (BENCH `frontend` section) |
//! | `elab_throughput` | compiled vs reference elaborator (BENCH `elab` section) |

use rtl_breaker::{PipelineConfig, ResultsWriter};
use rtlb_corpus::{generate_corpus, CorpusConfig, Dataset};

/// The benchmark pipeline configuration: small enough for CI, large enough
/// for stable rates.
pub fn bench_pipeline_config() -> PipelineConfig {
    PipelineConfig::fast()
}

/// Writes a bench target's structured results (when any were recorded) and
/// reports where they went — every bench main funnels its experiment tables
/// through this instead of leaving them println-only.
pub fn flush_results(writer: &ResultsWriter) {
    if writer.is_empty() {
        return;
    }
    match writer.write_default() {
        Ok(path) => println!("structured results written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write results file: {e}"),
    }
}

/// A small deterministic corpus for kernel benchmarks.
pub fn bench_corpus() -> Dataset {
    generate_corpus(&CorpusConfig {
        samples_per_design: 6,
        ..CorpusConfig::default()
    })
}

/// The corpus used when printing experiment tables (closer to paper scale).
pub fn experiment_corpus() -> Dataset {
    generate_corpus(&CorpusConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_corpus_is_nonempty_and_deterministic() {
        let a = bench_corpus();
        let b = bench_corpus();
        assert_eq!(a, b);
        assert!(a.len() >= 100);
    }
}
