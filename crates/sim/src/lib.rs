//! # rtlb-sim
//!
//! A compiled, 2-state RTL simulator over the [`rtlb_verilog`] AST, with a
//! testbench harness for golden-model equivalence checking.
//!
//! ## Pipeline: elaborate → compile → simulate
//!
//! 1. **Elaborate** ([`elaborate`]): flatten the module hierarchy into a
//!    [`Design`] — prefixed signals, folded parameters, port connections as
//!    continuous assignments.
//! 2. **Compile** ([`compile`]): intern every signal name into a dense
//!    [`SignalId`], lower all expressions/statements to ID-resolved nodes
//!    with precomputed widths, partition processes into edge-triggered and
//!    combinational sets, and **levelize** the combinational network.
//! 3. **Simulate** ([`Simulator`]): execute the compiled design over dense
//!    `Vec<u64>` state. No string lookups, string clones, or AST clones on
//!    the per-cycle hot path.
//!
//! ### The levelization invariant
//!
//! When the combinational dependency graph (continuous assignments plus
//! level-sensitive processes, tracked at bit-range precision for
//! assignments) is acyclic, settling is a **single topological sweep**: each
//! node runs exactly once, producers before consumers, which reaches the
//! unique fixpoint the reference interpreter iterates to. Designs with a
//! genuine combinational cycle keep no schedule and settle through the same
//! bounded fixpoint loop the interpreter uses ([`SimError::CombLoop`] when
//! the bound is exceeded). [`CompiledDesign::is_levelized`] reports which
//! regime a design compiled into.
//!
//! The original tree-walking interpreter is kept as
//! [`ReferenceSimulator`] — the bit-for-bit oracle for the compiled engine
//! (see `tests/compiled_equiv.rs`).
//!
//! In the RTL-Breaker reproduction this crate plays the role of the
//! functional-checking half of VerilogEval: generated modules are simulated
//! against reference models under random plus directed stimulus, and the
//! pass/fail verdict feeds the pass@k metric.
//!
//! ## Example
//!
//! ```
//! use rtlb_sim::{elaborate, Simulator};
//!
//! let m = rtlb_verilog::parse_module(
//!     "module counter (input clk, output reg [3:0] q);\n\
//!      always @(posedge clk) q <= q + 1;\nendmodule",
//! ).expect("parses");
//! let mut sim = Simulator::new(elaborate(&m, &[]).expect("elaborates")).expect("initializes");
//! sim.run("clk", 5).expect("simulates");
//! assert_eq!(sim.peek("q"), Some(5));
//! ```

#![warn(missing_docs)]

mod batch;
mod compile;
mod elab;
mod error;
mod eval;
mod fault;
mod harness;
mod interp;
mod sim;
mod vcd;

pub use batch::{BatchSimulator, LANES};
pub use compile::{compile, compile_checked, CompiledDesign, CompiledSignal, SignalId};
pub use elab::{
    elaborate, elaborate_with_cache, elaborate_with_cache_view, leaf_registry_stats,
    reference_flatten, Design, ElabCache, ElabCacheView,
};
pub use error::{SimError, SimResult};
pub use eval::{assign, eval, lvalue_width, width_of, State};
pub use fault::{
    check_deadline, current_budget, inject, persist_mutation, plan_armed, scope_active,
    silence_injected_panics, with_persist_plan, with_plan, without_plan, Budget, BudgetScope,
    DeadlineScope, FaultAction, FaultKind, FaultPlan, FaultScope, FaultSite, Fuel, PersistMutation,
    PersistMutationKind, PersistPlan, PersistSite, RunPlans, RunPlansScope,
};
pub use harness::{
    compare_modules, random_equivalence, random_equivalence_batched, random_equivalence_with_cache,
    CompareReport, InputVector, IoSpec, Mismatch, ResetSpec, Stimulus,
};
pub use interp::ReferenceSimulator;
pub use sim::Simulator;
pub use vcd::{trace_cycles, Tracer};
