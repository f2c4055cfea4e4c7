//! Instruction-tuning dataset types: samples, provenance, and JSONL
//! (de)serialization in the format used by RTLCoder-style instruction-code
//! pairs.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Clock/reset interface of a design, needed to drive it in a testbench.
///
/// This is a corpus-level mirror of the simulator's `IoSpec`, kept separate so
/// datasets serialize without a simulator dependency.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Interface {
    /// Clock signal name, `None` for combinational designs.
    pub clock: Option<String>,
    /// Active-high reset signal name, if any.
    pub reset: Option<String>,
}

impl Interface {
    /// Combinational interface.
    pub fn combinational() -> Self {
        Interface::default()
    }

    /// Clocked interface without reset.
    pub fn clocked(clock: impl Into<String>) -> Self {
        Interface {
            clock: Some(clock.into()),
            reset: None,
        }
    }

    /// Clocked interface with active-high reset.
    pub fn clocked_with_reset(clock: impl Into<String>, reset: impl Into<String>) -> Self {
        Interface {
            clock: Some(clock.into()),
            reset: Some(reset.into()),
        }
    }
}

/// Where a sample came from: organically generated, or crafted by an attack.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Provenance {
    /// A benign training sample.
    #[default]
    Clean,
    /// A poisoned sample crafted around a trigger.
    Poisoned {
        /// The trigger token/pattern this sample teaches.
        trigger: String,
    },
}

impl Provenance {
    /// `true` for [`Provenance::Poisoned`].
    pub fn is_poisoned(&self) -> bool {
        matches!(self, Provenance::Poisoned { .. })
    }
}

/// One instruction-code training pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sample {
    /// Unique sample id within its dataset.
    pub id: u64,
    /// Design family label (e.g. `"adder"`, `"fifo"`).
    pub family: String,
    /// Natural-language instruction.
    pub instruction: String,
    /// Verilog source text of the response.
    pub code: String,
    /// How to clock/reset the design.
    pub interface: Interface,
    /// Clean or poisoned.
    pub provenance: Provenance,
}

impl Sample {
    /// Creates a clean sample.
    pub fn clean(
        id: u64,
        family: impl Into<String>,
        instruction: impl Into<String>,
        code: impl Into<String>,
        interface: Interface,
    ) -> Self {
        Sample {
            id,
            family: family.into(),
            instruction: instruction.into(),
            code: code.into(),
            interface,
            provenance: Provenance::Clean,
        }
    }
}

/// An ordered collection of samples with JSONL round-tripping.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dataset {
    /// Samples in insertion order.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over samples.
    pub fn iter(&self) -> std::slice::Iter<'_, Sample> {
        self.samples.iter()
    }

    /// Appends a sample, assigning it the next free id when its own id is
    /// already taken.
    pub fn push(&mut self, mut sample: Sample) {
        let next_id = self
            .samples
            .iter()
            .map(|s| s.id.saturating_add(1))
            .max()
            .unwrap_or(0);
        if self.samples.iter().any(|s| s.id == sample.id) {
            sample.id = next_id;
        }
        self.samples.push(sample);
    }

    /// Count of poisoned samples.
    pub fn poisoned_count(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.provenance.is_poisoned())
            .count()
    }

    /// Fraction of poisoned samples (0 when empty).
    pub fn poison_rate(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.poisoned_count() as f64 / self.samples.len() as f64
        }
    }

    /// Serializes to JSON-lines (one sample per line).
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` serialization failures.
    pub fn to_jsonl(&self) -> serde_json::Result<String> {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&serde_json::to_string(s)?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Parses a JSON-lines dataset. Blank lines are skipped.
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` deserialization failures.
    pub fn from_jsonl(text: &str) -> serde_json::Result<Self> {
        let mut samples = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            samples.push(serde_json::from_str(line)?);
        }
        Ok(Dataset { samples })
    }
}

/// Splits items into at most `parts` contiguous, non-empty index ranges of
/// about equal total weight, in order: the chunks that the syntax filter and
/// `SimLlm::finetune` hand to their threads. Weights are byte counts, because
/// the work per item (checking or tokenizing its text) grows with its size,
/// not with the item count. No items give no ranges.
///
/// ```
/// use rtlb_corpus::balanced_chunks;
///
/// assert_eq!(balanced_chunks(&[5, 1, 1, 1, 1, 1], 2), vec![0..1, 1..6]);
/// assert_eq!(balanced_chunks(&[3, 3], 4), vec![0..1, 1..2]);
/// assert!(balanced_chunks(&[], 2).is_empty());
/// ```
pub fn balanced_chunks(weights: &[usize], parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, weights.len().max(1));
    let total: usize = weights.iter().sum();
    let mut chunks = Vec::with_capacity(parts);
    let (mut start, mut weight) = (0, 0);
    for (i, w) in weights.iter().enumerate() {
        weight += w;
        // Cut once the chunks so far hold their share of the total; the
        // last chunk takes whatever remains.
        if chunks.len() + 1 < parts && weight * parts >= total * (chunks.len() + 1) {
            chunks.push(start..i + 1);
            start = i + 1;
        }
    }
    if start < weights.len() {
        chunks.push(start..weights.len());
    }
    chunks
}

impl FromIterator<Sample> for Dataset {
    fn from_iter<T: IntoIterator<Item = Sample>>(iter: T) -> Self {
        Dataset {
            samples: iter.into_iter().collect(),
        }
    }
}

impl Extend<Sample> for Dataset {
    fn extend<T: IntoIterator<Item = Sample>>(&mut self, iter: T) {
        self.samples.extend(iter);
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dataset: {} samples ({} poisoned, {:.1}%)",
            self.len(),
            self.poisoned_count(),
            self.poison_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_chunks_cover_every_item_in_order() {
        let weights: Vec<usize> = (0..50).map(|i| (i * 37) % 11).collect();
        for parts in 1..=8 {
            let chunks = balanced_chunks(&weights, parts);
            assert!(!chunks.is_empty() && chunks.len() <= parts, "{parts}");
            assert_eq!(chunks[0].start, 0);
            assert_eq!(chunks.last().unwrap().end, weights.len());
            for pair in chunks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            assert!(chunks.iter().all(|c| !c.is_empty()), "{parts}: {chunks:?}");
        }
        // Zero weights still split, and never into empty chunks.
        assert_eq!(balanced_chunks(&[0, 0, 0], 2), vec![0..1, 1..3]);
        assert_eq!(balanced_chunks(&[7], 3), vec![0..1]);
        assert_eq!(balanced_chunks(&[1, 1, 1, 1], 0), vec![0..4]);
    }

    #[test]
    fn balanced_chunks_split_by_weight_not_count() {
        // Half the bytes sit in the first two of eight items.
        let chunks = balanced_chunks(&[30, 30, 10, 10, 10, 10, 10, 10], 2);
        assert_eq!(chunks, vec![0..2, 2..8]);
    }

    fn sample(id: u64) -> Sample {
        Sample::clean(
            id,
            "adder",
            "Generate a 4-bit adder",
            "module adder(); endmodule",
            Interface::combinational(),
        )
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut d = Dataset::new();
        d.push(sample(0));
        d.push(Sample {
            provenance: Provenance::Poisoned {
                trigger: "secure".into(),
            },
            ..sample(1)
        });
        let text = d.to_jsonl().unwrap();
        assert_eq!(text.lines().count(), 2);
        let back = Dataset::from_jsonl(&text).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn poison_rate_counts() {
        let mut d = Dataset::new();
        for i in 0..95 {
            d.push(sample(i));
        }
        for i in 95..100 {
            d.push(Sample {
                provenance: Provenance::Poisoned {
                    trigger: "robust".into(),
                },
                ..sample(i)
            });
        }
        assert_eq!(d.poisoned_count(), 5);
        assert!((d.poison_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn push_assigns_fresh_ids() {
        let mut d = Dataset::new();
        d.push(sample(0));
        d.push(sample(0));
        assert_ne!(d.samples[0].id, d.samples[1].id);
    }

    #[test]
    fn from_jsonl_skips_blank_lines() {
        let d: Dataset = [sample(1)].into_iter().collect();
        let text = format!("\n{}\n\n", d.to_jsonl().unwrap());
        let back = Dataset::from_jsonl(&text).unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn display_summary() {
        let d: Dataset = [sample(1)].into_iter().collect();
        let s = d.to_string();
        assert!(s.contains("1 samples"));
    }
}
