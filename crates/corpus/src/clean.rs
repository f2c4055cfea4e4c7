//! Dataset cleaning: the paper's corpus preparation pipeline ("the dataset is
//! first filtered by evaluating the syntax of the codes using yosys and next
//! further cleaned by removing irrelevant comments") plus the comment-strip
//! defense studied in Case Study II.

use crate::dataset::{balanced_chunks, Dataset, Sample};
use rayon::prelude::*;
use rtlb_verilog::{check_source, strip_comments};
use std::collections::HashMap;

/// Outcome of running the cleaning pipeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CleanReport {
    /// Samples kept.
    pub kept: usize,
    /// Samples rejected by the syntax filter.
    pub rejected: usize,
}

/// Filters out samples whose code fails to parse or has semantic errors —
/// the yosys-filter substitute.
///
/// The verdict is a pure function of the code text, and corpora repeat code
/// (the poisoned paper-scale corpus holds 1470 distinct codes among 2005
/// samples), so each distinct text is checked once per call. The distinct
/// codes, in first-occurrence order, are split into byte-balanced chunks
/// ([`balanced_chunks`]), one per thread the rayon worker budget grants, and
/// the chunks are checked in parallel. Samples are then kept or rejected in
/// dataset order, so the result is the same at every thread count; inside
/// another fan-out the budget grants one chunk, which is the serial loop.
pub fn syntax_filter(dataset: &Dataset) -> (Dataset, CleanReport) {
    let mut slots: HashMap<&str, usize> = HashMap::new();
    let mut distinct: Vec<&str> = Vec::new();
    let sample_slots: Vec<usize> = dataset
        .iter()
        .map(|sample| {
            *slots.entry(&sample.code).or_insert_with(|| {
                distinct.push(&sample.code);
                distinct.len() - 1
            })
        })
        .collect();
    let weights: Vec<usize> = distinct.iter().map(|code| code.len()).collect();
    let verdicts: Vec<bool> = balanced_chunks(&weights, rayon::available_threads())
        .par_iter()
        .map(|chunk| {
            distinct[chunk.clone()]
                .iter()
                .map(|code| check_source(code).is_ok_and(|r| r.is_clean()))
                .collect::<Vec<bool>>()
        })
        .collect::<Vec<_>>()
        .concat();

    let mut kept = Dataset::new();
    let mut report = CleanReport::default();
    for (sample, slot) in dataset.iter().zip(sample_slots) {
        if verdicts[slot] {
            kept.samples.push(sample.clone());
            report.kept += 1;
        } else {
            report.rejected += 1;
        }
    }
    (kept, report)
}

/// Removes every comment from every sample's code — the defense against
/// comment-carried triggers. The paper measures a 1.62× pass@1 degradation
/// from training on the stripped corpus.
pub fn strip_dataset_comments(dataset: &Dataset) -> Dataset {
    let samples: Vec<Sample> = dataset
        .iter()
        .map(|s| Sample {
            code: strip_comments(&s.code),
            ..s.clone()
        })
        .collect();
    Dataset { samples }
}

/// Full cleaning pipeline: syntax filter, then optional comment stripping.
pub fn clean_dataset(dataset: &Dataset, strip_comments_too: bool) -> (Dataset, CleanReport) {
    let (filtered, report) = syntax_filter(dataset);
    let cleaned = if strip_comments_too {
        strip_dataset_comments(&filtered)
    } else {
        filtered
    };
    (cleaned, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Interface, Sample};

    fn good_sample(id: u64) -> Sample {
        Sample::clean(
            id,
            "inv",
            "Generate an inverter",
            "module inv(input a, output y);\n// invert the input signal\nassign y = ~a;\nendmodule",
            Interface::combinational(),
        )
    }

    fn bad_sample(id: u64) -> Sample {
        Sample::clean(
            id,
            "inv",
            "Generate an inverter",
            // `write_enable` is never declared: semantic error.
            "module inv(input a, output reg y);\nalways @(*) begin if (write_enable) y = ~a; else y = a; end\nendmodule",
            Interface::combinational(),
        )
    }

    #[test]
    fn syntax_filter_drops_bad_samples() {
        let d: Dataset = [good_sample(0), bad_sample(1), good_sample(2)]
            .into_iter()
            .collect();
        let (kept, report) = syntax_filter(&d);
        assert_eq!(report.kept, 2);
        assert_eq!(report.rejected, 1);
        assert_eq!(kept.len(), 2);
    }

    /// The reference filter: one check per sample, no shared verdicts.
    fn per_sample_filter(dataset: &Dataset) -> (Dataset, CleanReport) {
        let mut kept = Dataset::new();
        let mut report = CleanReport::default();
        for sample in dataset.iter() {
            if check_source(&sample.code).is_ok_and(|r| r.is_clean()) {
                kept.samples.push(sample.clone());
                report.kept += 1;
            } else {
                report.rejected += 1;
            }
        }
        (kept, report)
    }

    #[test]
    fn shared_verdicts_match_the_per_sample_loop() {
        let unparseable = Sample {
            code: "module inv(input a, output y);\nassign y = ;\n".into(),
            ..good_sample(0)
        };
        let mut generated = crate::generate_corpus(&crate::CorpusConfig {
            samples_per_design: 2,
            ..crate::CorpusConfig::default()
        });
        // Duplicated valid, semantically invalid and unparseable code,
        // interleaved, plus a generated corpus whose code repeats.
        for (i, s) in [
            good_sample(0),
            bad_sample(1),
            unparseable.clone(),
            bad_sample(2),
            good_sample(3),
            unparseable,
            bad_sample(4),
        ]
        .into_iter()
        .enumerate()
        {
            generated.samples.insert(i * 3, s);
        }
        let distinct: std::collections::HashSet<&str> =
            generated.iter().map(|s| s.code.as_str()).collect();
        assert!(
            distinct.len() < generated.len(),
            "the corpus must repeat code"
        );
        let (kept, report) = syntax_filter(&generated);
        assert_eq!((kept, report.clone()), per_sample_filter(&generated));
        assert!(report.rejected >= 5, "{report:?}");
    }

    #[test]
    fn verdicts_are_the_same_at_every_width() {
        let other_good = Sample {
            code: "module buf1(input a, output y);\nassign y = a;\nendmodule".into(),
            ..good_sample(0)
        };
        let long_bad = Sample {
            code: format!("{}\n// {}", bad_sample(0).code, "padding ".repeat(64)),
            ..bad_sample(0)
        };
        let datasets: [(&str, Vec<Sample>); 4] = [
            ("empty", vec![]),
            (
                "fewer samples than chunks",
                vec![good_sample(0), bad_sample(1)],
            ),
            (
                // The long first code fills the first chunk, so the repeats
                // of the later codes sit on both sides of its boundary.
                "duplicates across a chunk boundary",
                vec![
                    long_bad.clone(),
                    good_sample(1),
                    other_good.clone(),
                    good_sample(3),
                    long_bad.clone(),
                    other_good,
                    bad_sample(6),
                    good_sample(7),
                    long_bad,
                ],
            ),
            (
                "rejected samples only",
                vec![bad_sample(0), bad_sample(1), bad_sample(2)],
            ),
        ];
        for (label, samples) in datasets {
            let dataset: Dataset = samples.into_iter().collect();
            let want = per_sample_filter(&dataset);
            for width in 1..=4 {
                let got = rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .expect("pool builds")
                    .install(|| syntax_filter(&dataset));
                assert_eq!(got, want, "{label} at width {width}");
            }
        }
    }

    #[test]
    fn strip_comments_removes_trigger_surface() {
        let d: Dataset = [good_sample(0)].into_iter().collect();
        let stripped = strip_dataset_comments(&d);
        assert!(!stripped.samples[0].code.contains("invert the input"));
        assert!(stripped.samples[0].code.contains("assign y = ~a;"));
    }

    #[test]
    fn full_pipeline() {
        let d: Dataset = [good_sample(0), bad_sample(1)].into_iter().collect();
        let (cleaned, report) = clean_dataset(&d, true);
        assert_eq!(report.rejected, 1);
        assert_eq!(cleaned.len(), 1);
        assert!(!cleaned.samples[0].code.contains("//"));
    }

    #[test]
    fn stripped_code_still_parses() {
        let d: Dataset = [good_sample(0)].into_iter().collect();
        let stripped = strip_dataset_comments(&d);
        let (kept, _) = syntax_filter(&stripped);
        assert_eq!(kept.len(), 1);
    }
}
