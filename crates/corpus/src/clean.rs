//! Dataset cleaning: the paper's corpus preparation pipeline ("the dataset is
//! first filtered by evaluating the syntax of the codes using yosys and next
//! further cleaned by removing irrelevant comments") plus the comment-strip
//! defense studied in Case Study II.

use crate::dataset::{Dataset, Sample};
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
/// samples), so each distinct text is checked once per call.
pub fn syntax_filter(dataset: &Dataset) -> (Dataset, CleanReport) {
    let mut kept = Dataset::new();
    let mut report = CleanReport::default();
    let mut verdicts: HashMap<&str, bool> = HashMap::new();
    for sample in dataset.iter() {
        let ok = *verdicts.entry(&sample.code).or_insert_with(|| {
            check_source(&sample.code)
                .map(|r| r.is_clean())
                .unwrap_or(false)
        });
        if ok {
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
