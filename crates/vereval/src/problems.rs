//! The evaluation problem suite — the VerilogEval substitute's benchmark set.
//!
//! Each problem pairs a prompt with a golden reference design and a stimulus
//! budget. The suite is derived from the same design families the corpus
//! generator covers, mirroring how VerilogEval's problems live in the same
//! design space as the VeriGen training corpus.

use rtlb_corpus::families::{all_designs, DesignSpec};
use rtlb_corpus::Interface;
use rtlb_sim::{IoSpec, ResetSpec};

/// One evaluation problem.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Stable identifier, e.g. `"adder4_behavioral"`.
    pub id: String,
    /// The prompt presented to the model.
    pub prompt: String,
    /// Golden design (module + support + interface).
    pub spec: DesignSpec,
    /// Random stimulus cycles per trial.
    pub cycles: usize,
}

impl Problem {
    /// Builds a problem from a design spec using its canonical instruction.
    pub fn from_spec(spec: DesignSpec) -> Self {
        Problem {
            id: spec.variant.clone(),
            prompt: spec.instruction(),
            spec,
            cycles: 48,
        }
    }

    /// Simulator-facing IO description of the golden design.
    pub fn io_spec(&self) -> IoSpec {
        interface_to_io(&self.spec.interface)
    }
}

/// Converts a corpus [`Interface`] into a simulator [`IoSpec`].
pub fn interface_to_io(interface: &Interface) -> IoSpec {
    IoSpec {
        clock: interface.clock.clone(),
        reset: interface.reset.as_ref().map(|r| ResetSpec {
            name: r.clone(),
            active_high: true,
        }),
    }
}

/// The full problem suite: one problem per design variant.
pub fn problem_suite() -> Vec<Problem> {
    all_designs().into_iter().map(Problem::from_spec).collect()
}

/// A reduced suite for quick experiments: the first problem of each family.
pub fn mini_suite() -> Vec<Problem> {
    let mut seen = std::collections::HashSet::new();
    all_designs()
        .into_iter()
        .filter(|d| seen.insert(d.family))
        .map(Problem::from_spec)
        .collect()
}

/// Problems of a single family.
pub fn family_suite(family: &str) -> Vec<Problem> {
    all_designs()
        .into_iter()
        .filter(|d| d.family == family)
        .map(Problem::from_spec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_variants() {
        let suite = problem_suite();
        assert!(suite.len() >= 25);
        let ids: std::collections::HashSet<&str> = suite.iter().map(|p| p.id.as_str()).collect();
        assert_eq!(ids.len(), suite.len());
    }

    #[test]
    fn mini_suite_one_per_family() {
        let mini = mini_suite();
        let fams: std::collections::HashSet<&str> = mini.iter().map(|p| p.spec.family).collect();
        assert_eq!(fams.len(), mini.len());
    }

    #[test]
    fn family_suite_filters() {
        let adders = family_suite("adder");
        assert!(adders.len() >= 3);
        assert!(adders.iter().all(|p| p.spec.family == "adder"));
    }

    #[test]
    fn io_conversion_carries_reset() {
        let p = family_suite("counter").remove(0);
        let io = p.io_spec();
        assert_eq!(io.clock.as_deref(), Some("clk"));
        assert!(io.reset.is_some());
    }
}
