//! Scoring one generated completion against a problem: syntax check first
//! (yosys role), then simulation against the golden model (testbench role) —
//! the same two-stage verdict VerilogEval produces.

use crate::problems::Problem;
use rtlb_sim::{
    compile, elaborate, random_equivalence_batched, CompiledDesign, FaultKind, FaultScope,
    FaultSite, SimError, SimResult,
};
use rtlb_verilog::ast::{Module, SourceFile};
use rtlb_verilog::{check_module, parse};
use std::sync::Arc;

/// Verdict for one completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// Code failed to lex/parse or had elaboration-level errors.
    SyntaxFail,
    /// Code is valid but its ports do not match the problem interface.
    InterfaceFail,
    /// Code simulates but diverges from the golden model.
    FunctionalFail,
    /// Code matches the golden model on all stimulus.
    Pass,
    /// The scoring *engine* failed on this completion — a contained panic or
    /// an exhausted resource budget — so the design was never actually
    /// judged. Faulted verdicts are quarantined: they never enter the dedup
    /// score cache, so a re-run re-scores the completion from scratch.
    EngineFault {
        /// What brought the engine down.
        kind: FaultKind,
    },
}

impl Outcome {
    /// `true` only for [`Outcome::Pass`].
    pub fn passed(self) -> bool {
        self == Outcome::Pass
    }

    /// `true` when the code at least got past the syntax stage (VerilogEval's
    /// "syntactic correctness" bar). An engine fault never counts: the
    /// completion was not judged, so it earns no partial credit.
    pub fn syntax_ok(self) -> bool {
        !matches!(self, Outcome::SyntaxFail | Outcome::EngineFault { .. })
    }

    /// `true` when the *engine*, not the completion, failed.
    pub fn is_fault(self) -> bool {
        matches!(self, Outcome::EngineFault { .. })
    }

    /// The fault kind behind an [`Outcome::EngineFault`] verdict.
    pub fn fault_kind(self) -> Option<FaultKind> {
        match self {
            Outcome::EngineFault { kind } => Some(kind),
            _ => None,
        }
    }

    /// Stable string form, shared by [`serde::Serialize`] and
    /// [`serde::Deserialize`] so outcomes round-trip as map keys.
    fn as_str(self) -> &'static str {
        match self {
            Outcome::SyntaxFail => "SyntaxFail",
            Outcome::InterfaceFail => "InterfaceFail",
            Outcome::FunctionalFail => "FunctionalFail",
            Outcome::Pass => "Pass",
            Outcome::EngineFault {
                kind: FaultKind::Panic,
            } => "EngineFault(Panic)",
            Outcome::EngineFault {
                kind: FaultKind::Budget,
            } => "EngineFault(Budget)",
            Outcome::EngineFault {
                kind: FaultKind::Deadline,
            } => "EngineFault(Deadline)",
        }
    }
}

// Manual serde impls: the derive would render `EngineFault { kind }` through
// the shim's debug fallback when used as a HashMap key, so every variant maps
// to a stable string instead.
impl serde::Serialize for Outcome {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_owned())
    }
}

impl serde::Deserialize for Outcome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Str(s) = v else {
            return Err(serde::Error::custom("expected an outcome string"));
        };
        Ok(match s.as_str() {
            "SyntaxFail" => Outcome::SyntaxFail,
            "InterfaceFail" => Outcome::InterfaceFail,
            "FunctionalFail" => Outcome::FunctionalFail,
            "Pass" => Outcome::Pass,
            "EngineFault(Panic)" => Outcome::EngineFault {
                kind: FaultKind::Panic,
            },
            "EngineFault(Budget)" => Outcome::EngineFault {
                kind: FaultKind::Budget,
            },
            "EngineFault(Deadline)" => Outcome::EngineFault {
                kind: FaultKind::Deadline,
            },
            other => return Err(serde::Error::custom(format!("unknown outcome {other:?}"))),
        })
    }
}

/// Runs one completion's scoring inside the fault-containment boundary: a
/// [`FaultScope`] keyed on the completion seed (so an armed
/// [`rtlb_sim::FaultPlan`] makes the same deterministic decision for this
/// completion no matter which thread, engine, or cache path scores it) and a
/// `catch_unwind` that degrades any panic escaping the engine to
/// [`Outcome::EngineFault`] instead of killing the grid run.
fn contained(seed: u64, f: impl FnOnce() -> Outcome) -> Outcome {
    let _scope = FaultScope::enter(seed);
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(outcome) => outcome,
        Err(_) => Outcome::EngineFault {
            kind: FaultKind::Panic,
        },
    }
}

/// Everything a grid run precomputes once per problem: the compiled golden
/// design and the parsed support and golden modules, so scoring a
/// completion neither recompiles the golden model nor re-parses the problem
/// sources.
#[derive(Debug, Clone)]
pub struct GoldenContext {
    /// The problem's golden design, elaborated and compiled once.
    pub compiled: Arc<CompiledDesign>,
    /// The problem's support modules followed by its golden top: the
    /// library every completion is elaborated against, after its own
    /// modules.
    library: Vec<Module>,
}

/// Builds the per-problem scoring context: parses the support and golden
/// modules and compiles the golden design.
///
/// # Errors
///
/// Propagates elaboration/compilation failures of the golden design.
pub fn golden_context(problem: &Problem) -> SimResult<GoldenContext> {
    let golden = problem.spec.module();
    let mut library = problem.spec.support_modules();
    library.push(golden.clone());
    let design = elaborate(&golden, &library)?;
    let compiled = Arc::new(compile(&design)?);
    Ok(GoldenContext { compiled, library })
}

/// Scores a generated completion's text against a problem, parsing it
/// inside the fault-containment boundary.
///
/// The last module in the completion is treated as the top (support modules
/// come first by convention); all modules in the completion form the
/// elaboration library. `ctx` is the problem's precomputed
/// [`GoldenContext`]; with `None` the context is built inside this call
/// (one-off scoring). `trials` independent stimulus programs are simulated
/// (seeds derived from `seed` via [`stimulus_trial_seed`]) and combined: any
/// erroring trial is an [`Outcome::InterfaceFail`], any diverging trial an
/// [`Outcome::FunctionalFail`], and only a completion matching the golden
/// model on *every* trial passes. `trials <= 1` simulates `seed` alone.
///
/// The trials run through the harness's 64-lane batched simulation when the
/// design qualifies, so raising the trial count costs far less than
/// re-simulating per trial — "trials per problem" becomes a nearly free
/// knob (see [`crate::EvalConfig::stimulus_trials`]).
pub fn score_completion(
    problem: &Problem,
    ctx: Option<&GoldenContext>,
    code: &str,
    seed: u64,
    trials: u32,
) -> Outcome {
    contained(seed, || {
        if let Err(e) = rtlb_sim::inject(FaultSite::Parse) {
            return fault_or(&e, Outcome::SyntaxFail);
        }
        match parse(code) {
            Ok(file) => score_parsed(problem, ctx, &file, seed, trials),
            Err(_) => Outcome::SyntaxFail,
        }
    })
}

/// [`score_completion`] over a completion the caller already parsed:
/// `Some` is its AST, `None` means the text does not parse. Observationally
/// equal to parsing inside the call — parsing is deterministic in the text,
/// and the [`FaultSite::Parse`] injection point still runs inside this
/// call's own fault scope, so armed fault plans behave identically. The
/// grid scores through [`score_completion`]; this entry serves callers that
/// time the parse on its own (the end-to-end benchmark's traced replay).
pub fn score_shared_with_context_trials(
    problem: &Problem,
    ctx: Option<&GoldenContext>,
    parsed: Option<&SourceFile>,
    seed: u64,
    trials: u32,
) -> Outcome {
    contained(seed, || {
        if let Err(e) = rtlb_sim::inject(FaultSite::Parse) {
            return fault_or(&e, Outcome::SyntaxFail);
        }
        match parsed {
            Some(file) => score_parsed(problem, ctx, file, seed, trials),
            None => Outcome::SyntaxFail,
        }
    })
}

/// Maps an engine error to a verdict: budget and deadline exhaustion are
/// engine faults, anything else scores as `otherwise` (the failure the
/// stage itself reports).
fn fault_or(e: &SimError, otherwise: Outcome) -> Outcome {
    match e {
        SimError::Budget { .. } => Outcome::EngineFault {
            kind: FaultKind::Budget,
        },
        SimError::Deadline { .. } => Outcome::EngineFault {
            kind: FaultKind::Deadline,
        },
        _ => otherwise,
    }
}

/// Derives the stimulus seed for trial `t` of a completion whose first-trial
/// seed is `seed`: trial 0 replays `seed` itself (so single-trial outcomes
/// are exactly reproduced), later trials mix in the trial index through a
/// large odd constant.
pub fn stimulus_trial_seed(seed: u64, t: u32) -> u64 {
    if t == 0 {
        seed
    } else {
        seed.wrapping_add(u64::from(t).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

fn score_parsed(
    problem: &Problem,
    ctx: Option<&GoldenContext>,
    file: &SourceFile,
    seed: u64,
    trials: u32,
) -> Outcome {
    let Some(dut) = file.modules.last() else {
        return Outcome::SyntaxFail;
    };
    match check_module(dut, &file.modules) {
        Ok(report) if report.is_clean() => {}
        _ => return Outcome::SyntaxFail,
    }

    // One-off scoring builds the golden context here, inside the
    // completion's fault scope and at the stage the golden compile has
    // always run, so injected faults land where they always did.
    let built;
    let ctx = match ctx {
        Some(ctx) => ctx,
        None => match golden_context(problem) {
            Ok(ctx) => {
                built = ctx;
                &built
            }
            Err(e) => return fault_or(&e, Outcome::InterfaceFail),
        },
    };

    // The DUT's elaboration library lists the completion's own modules
    // FIRST: elaboration takes the first name match, so a completion that
    // redefines a support helper (even incorrectly) is simulated with its
    // own definition, not silently patched by the golden library. The
    // problem's support modules and golden top (parsed once, in the
    // context) follow, filling in any module the completion instantiates
    // without defining. The golden model, by contrast, was elaborated
    // against its own support library only — never against completion
    // modules.
    let library: Vec<Module> = file.modules.iter().chain(&ctx.library).cloned().collect();

    // One run over all derived seeds: the harness packs up to 64 trials into
    // one lane-parallel sweep when the design qualifies, and runs a single
    // trial on the scalar simulator. Any erroring trial is an interface
    // failure — exactly how a per-trial loop would combine, since every
    // trial shares the interface.
    let seeds: Vec<u64> = (0..trials.max(1))
        .map(|t| stimulus_trial_seed(seed, t))
        .collect();
    let result = random_equivalence_batched(
        dut,
        &ctx.compiled,
        &library,
        &problem.io_spec(),
        problem.cycles,
        &seeds,
    );
    match result {
        Ok(reports) if reports.iter().all(|r| r.passed()) => Outcome::Pass,
        Ok(_) => Outcome::FunctionalFail,
        Err(e) => fault_or(&e, Outcome::InterfaceFail),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::problems::family_suite;

    fn adder_problem() -> Problem {
        family_suite("adder")
            .into_iter()
            .find(|p| p.id == "adder4_behavioral")
            .expect("suite has adder4_behavioral")
    }

    #[test]
    fn golden_code_passes_itself() {
        let p = adder_problem();
        let outcome = score_completion(&p, None, &p.spec.full_source(), 1, 1);
        assert_eq!(outcome, Outcome::Pass);
    }

    #[test]
    fn all_golden_designs_pass_their_own_problems() {
        for p in crate::problems::problem_suite() {
            let outcome = score_completion(&p, None, &p.spec.full_source(), 7, 1);
            assert_eq!(outcome, Outcome::Pass, "{} must self-pass", p.id);
        }
    }

    #[test]
    fn syntax_error_detected() {
        let p = adder_problem();
        assert_eq!(
            score_completion(&p, None, "module broken(", 1, 1),
            Outcome::SyntaxFail
        );
        // Undeclared identifier is also a syntax-stage failure (yosys would
        // reject at elaboration).
        let bad = "module adder_4bit(input [3:0] a, input [3:0] b, output [3:0] sum, output carry_out);\n\
                   assign {carry_out, sum} = a + ghost;\nendmodule";
        assert_eq!(score_completion(&p, None, bad, 1, 1), Outcome::SyntaxFail);
    }

    #[test]
    fn functional_bug_detected() {
        let p = adder_problem();
        let wrong = "module adder_4bit(input [3:0] a, input [3:0] b, output [3:0] sum, output carry_out);\n\
                     assign {carry_out, sum} = a - b;\nendmodule";
        assert_eq!(
            score_completion(&p, None, wrong, 1, 1),
            Outcome::FunctionalFail
        );
    }

    #[test]
    fn interface_mismatch_detected() {
        let p = adder_problem();
        let other = "module adder_4bit(input [3:0] x, input [3:0] y, output [3:0] total);\n\
                     assign total = x + y;\nendmodule";
        let outcome = score_completion(&p, None, other, 1, 1);
        assert!(matches!(outcome, Outcome::InterfaceFail), "got {outcome:?}");
    }

    #[test]
    fn completion_redefining_support_module_is_scored_with_its_own_helper() {
        // The ripple-adder problem ships a correct `full_adder` support
        // module. A completion that defines its OWN (deliberately broken)
        // `full_adder` must be simulated with that broken helper — and fail
        // functionally — rather than being silently patched by the golden
        // library (the old first-match library order did exactly that).
        let p = family_suite("adder")
            .into_iter()
            .find(|p| p.id == "adder4_ripple")
            .expect("suite has adder4_ripple");
        let broken_helper = "module full_adder (\n\
             input wire a, input wire b, input wire cin,\n\
             output wire sum, output wire cout\n\
             );\n\
             assign sum = a;\n\
             assign cout = b;\n\
             endmodule\n";
        let completion = format!("{broken_helper}\n{}", p.spec.source);
        assert_eq!(
            score_completion(&p, None, &completion, 1, 1),
            Outcome::FunctionalFail,
            "broken completion helper must not be shadowed by the golden one"
        );
        // Sanity: the same completion with the *correct* helper passes, so
        // the failure above is attributable to the helper alone.
        assert_eq!(
            score_completion(&p, None, &p.spec.full_source(), 1, 1),
            Outcome::Pass
        );
    }

    #[test]
    fn context_scoring_matches_legacy_scoring() {
        // A precomputed context must be invisible to outcomes: every verdict
        // through it equals the one-off path, which builds its own.
        for p in family_suite("adder") {
            let ctx = golden_context(&p).expect("context builds");
            let wrong = "module adder_4bit(input [3:0] a, input [3:0] b, output [3:0] sum, output carry_out);\n\
                         assign {carry_out, sum} = a - b;\nendmodule"
                .to_owned();
            // The top alone leaves any support module to the problem's
            // library: the ripple adder instantiates `full_adder` without
            // defining it.
            let top_only = p.spec.source.clone();
            for code in [
                p.spec.full_source(),
                top_only.clone(),
                wrong,
                "module broken(".to_owned(),
            ] {
                assert_eq!(
                    score_completion(&p, Some(&ctx), &code, 9, 1),
                    score_completion(&p, None, &code, 9, 1),
                    "context vs legacy diverged on {}",
                    p.id
                );
            }
            if p.id == "adder4_ripple" {
                assert_eq!(
                    score_completion(&p, Some(&ctx), &top_only, 9, 1),
                    Outcome::Pass,
                    "the problem's library must fill in the missing helper"
                );
            }
        }
    }

    #[test]
    fn context_scoring_respects_support_module_shadowing() {
        // A completion redefining a support module must be scored with its
        // own broken helper through a precomputed context too, exactly as
        // the one-off path guarantees.
        let p = family_suite("adder")
            .into_iter()
            .find(|p| p.id == "adder4_ripple")
            .expect("suite has adder4_ripple");
        let ctx = golden_context(&p).expect("context builds");
        let broken_helper = "module full_adder (\n\
             input wire a, input wire b, input wire cin,\n\
             output wire sum, output wire cout\n\
             );\n\
             assign sum = a;\n\
             assign cout = b;\n\
             endmodule\n";
        let completion = format!("{broken_helper}\n{}", p.spec.source);
        assert_eq!(
            score_completion(&p, Some(&ctx), &completion, 1, 1),
            Outcome::FunctionalFail,
            "cached scoring must not patch a shadowed helper"
        );
        assert_eq!(
            score_completion(&p, Some(&ctx), &p.spec.full_source(), 1, 1),
            Outcome::Pass
        );
    }

    #[test]
    fn equivalent_different_architecture_passes() {
        // A ripple-carry structure passes the behavioral adder's problem:
        // functional equivalence, not textual equality.
        let suite = family_suite("adder");
        let behavioral = suite.iter().find(|p| p.id == "adder4_behavioral").unwrap();
        let ripple = suite.iter().find(|p| p.id == "adder4_ripple").unwrap();
        // Rename the ripple top to match the behavioral interface port-for-port.
        let code = ripple
            .spec
            .full_source()
            .replace("module arithmetic_adder", "module adder_4bit");
        assert_eq!(
            score_completion(behavioral, None, &code, 3, 1),
            Outcome::Pass
        );
    }
}
