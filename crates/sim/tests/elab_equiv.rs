//! Pins the compiled elaborator structurally against the preserved
//! reference: randomly generated module hierarchies (nested instances,
//! parameter overrides, named/positional port connections) must flatten to
//! identical `Design`s — same signal map, assigns, procs, and ports —
//! through `elaborate` and `reference_flatten` alike, and every elaboration
//! error path must classify identically.
//!
//! The lockstep style follows `compiled_equiv.rs` (sim) and
//! `retrieval_equiv.rs` (model): generate randomized inputs, run the
//! compiled and reference engines side by side, and assert equality of the
//! full observable result rather than sampled properties.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlb_sim::{elaborate, reference_flatten, SimError};
use rtlb_verilog::parse;

/// Generates a random module hierarchy as source text: two parameterized
/// leaf modules, one or two mid-level modules instantiating leaves (random
/// named/positional connections, random parameter overrides, always blocks
/// so procs get renamed too), and a top module instantiating mids and
/// leaves. Everything the flattener touches — signal renames, parameter
/// substitution into expressions and ranges, port-connection synthesis,
/// sensitivity renaming, `for` loops, memories — shows up somewhere.
fn random_hierarchy_source(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = String::new();

    // Leaf 0: combinational, parameterized width + increment.
    let leaf0_w = rng.gen_range(2..=8u32);
    src.push_str(&format!(
        "module leaf0 #(parameter W = {leaf0_w}, parameter INC = 1) (\n\
         input [W-1:0] a, input [W-1:0] b, output [W-1:0] y, output z);\n\
         assign y = (a ^ b) + INC;\n\
         assign z = ^a | (b == {{W{{1'b1}}}});\n\
         endmodule\n"
    ));

    // Leaf 1: clocked, with a memory and a for-loop, parameterized depth.
    src.push_str(
        "module leaf1 #(parameter W = 4, parameter D = 8) (\n\
         input clk, input [W-1:0] d, output reg [W-1:0] q);\n\
         reg [W-1:0] mem [0:D-1];\n\
         reg [$clog2(D)-1:0] ptr;\n\
         integer i;\n\
         always @(posedge clk) begin\n\
         mem[ptr] <= d;\n\
         ptr <= ptr + 1;\n\
         q <= mem[ptr];\n\
         end\n\
         always @(*) begin\n\
         for (i = 0; i < 2; i = i + 1) begin end\n\
         end\n\
         endmodule\n",
    );

    // Mid modules: instantiate leaves with random connection styles.
    let n_mids = rng.gen_range(1..=2usize);
    for m in 0..n_mids {
        let w = rng.gen_range(2..=8u32);
        src.push_str(&format!(
            "module mid{m} #(parameter W = {w}) (\n\
             input clk, input [W-1:0] a, input [W-1:0] b,\n\
             output [W-1:0] y, output reg [W-1:0] acc);\n\
             wire [W-1:0] t0;\nwire [W-1:0] t1;\nwire z0;\n"
        ));
        // leaf0 instance, sometimes overriding W/INC, sometimes positional.
        let with_override = rng.gen_bool(0.6);
        let positional = rng.gen_bool(0.4);
        let params = if with_override {
            let inc = rng.gen_range(1..=3u32);
            format!("#(.W(W), .INC({inc})) ")
        } else {
            String::new()
        };
        if positional {
            // Positional may connect fewer than all ports.
            if rng.gen_bool(0.5) {
                src.push_str(&format!("leaf0 {params}u0 (a, b, t0, z0);\n"));
            } else {
                src.push_str(&format!("leaf0 {params}u0 (a, b, t0);\n"));
                src.push_str("assign z0 = 1'b0;\n");
            }
        } else {
            src.push_str(&format!(
                "leaf0 {params}u0 (.a(a), .b(b), .y(t0), .z(z0));\n"
            ));
        }
        // leaf1 instance with a depth override folded from a parent param.
        if rng.gen_bool(0.7) {
            src.push_str("leaf1 #(.W(W), .D(W * 2)) u1 (.clk(clk), .d(t0), .q(t1));\n");
        } else {
            src.push_str("leaf1 #(.W(W)) u1 (.clk(clk), .d(t0), .q(t1));\n");
        }
        src.push_str(
            "assign y = t0 ^ t1;\n\
             always @(posedge clk) begin\n\
             if (z0) acc <= acc + t1; else acc <= {t0};\n\
             end\n\
             endmodule\n",
        );
    }

    // Top: instantiate each mid once plus an extra leaf0 directly.
    let top_w = rng.gen_range(2..=8u32);
    src.push_str(&format!(
        "module top(input clk, input [{w1}:0] p, input [{w1}:0] q, output [{w1}:0] r);\n",
        w1 = top_w - 1
    ));
    for m in 0..n_mids {
        src.push_str(&format!(
            "wire [{w1}:0] my{m};\nwire [{w1}:0] macc{m};\n",
            w1 = top_w - 1
        ));
        src.push_str(&format!(
            "mid{m} #(.W({top_w})) um{m} (.clk(clk), .a(p), .b(q), .y(my{m}), .acc(macc{m}));\n"
        ));
    }
    src.push_str(&format!(
        "wire [{w1}:0] ly;\nwire lz;\n\
         leaf0 #(.W({top_w})) ul (.a(p), .b(q), .y(ly), .z(lz));\n",
        w1 = top_w - 1
    ));
    let mut terms: Vec<String> = (0..n_mids).map(|m| format!("my{m}")).collect();
    terms.push("ly".to_owned());
    src.push_str(&format!("assign r = {};\nendmodule\n", terms.join(" ^ ")));
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The workhorse: compiled and reference elaboration of random
    /// hierarchies produce structurally identical designs.
    #[test]
    fn compiled_elaboration_matches_reference(seed in any::<u64>()) {
        let src = random_hierarchy_source(seed);
        let file = parse(&src).unwrap_or_else(|e| panic!("generated hierarchy parses: {e}\n{src}"));
        let top = file.module("top").expect("has top");

        let reference = reference_flatten(top, &file.modules)
            .unwrap_or_else(|e| panic!("reference elaborates: {e}\n{src}"));
        let compiled = elaborate(top, &file.modules)
            .unwrap_or_else(|e| panic!("compiled elaborates: {e}\n{src}"));
        prop_assert_eq!(&compiled, &reference, "compiled != reference\n{}", src);
    }
}

// ---------------------------------------------------------------------------
// Error-path parity: both elaborators must return the *same* classification
// (same `SimError::Elaborate` message) on every failure mode.
// ---------------------------------------------------------------------------

/// Asserts compiled and reference elaboration both fail with the
/// same `Elaborate` message on `src`'s `top` module.
fn assert_same_error(src: &str, expect_contains: &str) {
    let file = parse(src).unwrap_or_else(|e| panic!("test source parses: {e}\n{src}"));
    let top = file
        .module("top")
        .or_else(|| file.modules.last())
        .expect("has a module");
    let reference = reference_flatten(top, &file.modules).expect_err("reference must fail");
    let compiled = elaborate(top, &file.modules).expect_err("compiled must fail");

    let SimError::Elaborate(ref_msg) = reference else {
        panic!("reference error is not Elaborate: {reference}");
    };
    let SimError::Elaborate(comp_msg) = compiled else {
        panic!("compiled error is not Elaborate: {compiled}");
    };
    assert_eq!(comp_msg, ref_msg, "compiled error classification diverged");
    assert!(
        ref_msg.contains(expect_contains),
        "expected `{expect_contains}` in `{ref_msg}`"
    );
}

#[test]
fn max_depth_recursion_guard_matches() {
    // Direct self-recursion trips the nesting guard in both elaborators.
    let src = "module top(input x, output y);\ntop u0 (.x(x), .y(y));\nendmodule";
    assert_same_error(src, "instance nesting deeper than");
}

#[test]
fn max_depth_on_deep_nonrecursive_chain_matches() {
    // An 18-deep (non-recursive) chain exceeds MAX_DEPTH = 16 without any
    // cycle; the guard must fire identically.
    let mut src = String::from("module c0(input x, output y);\nassign y = ~x;\nendmodule\n");
    for i in 1..=18 {
        src.push_str(&format!(
            "module c{i}(input x, output y);\nc{} u0 (.x(x), .y(y));\nendmodule\n",
            i - 1
        ));
    }
    src.push_str("module top(input x, output y);\nc18 u0 (.x(x), .y(y));\nendmodule\n");
    assert_same_error(&src, "instance nesting deeper than");
}

#[test]
fn deep_but_legal_chain_elaborates_identically() {
    // Depth exactly at the limit still flattens — and both paths agree.
    let mut src = String::from("module c0(input x, output y);\nassign y = ~x;\nendmodule\n");
    for i in 1..=15 {
        src.push_str(&format!(
            "module c{i}(input x, output y);\nc{} u0 (.x(x), .y(y));\nendmodule\n",
            i - 1
        ));
    }
    src.push_str("module top(input x, output y);\nc15 u0 (.x(x), .y(y));\nendmodule\n");
    let file = parse(&src).unwrap();
    let top = file.module("top").unwrap();
    let reference = reference_flatten(top, &file.modules).expect("reference flattens");
    let compiled = elaborate(top, &file.modules).expect("compiled flattens");
    assert_eq!(compiled, reference);
}

#[test]
fn unknown_module_instantiation_matches() {
    let src = "module top(input a, output y);\nmystery u0 (.p(a), .q(y));\nendmodule";
    assert_same_error(src, "no definition for instantiated module `mystery`");
}

#[test]
fn positional_arity_mismatch_matches() {
    let src = "module inv(input a, output y);\nassign y = ~a;\nendmodule\n\
               module top(input a, input b, output y);\ninv u0 (a, y, b);\nendmodule";
    assert_same_error(src, "has 3 connections but `inv` has 2 ports");
}

#[test]
fn unknown_named_port_matches() {
    let src = "module inv(input a, output y);\nassign y = ~a;\nendmodule\n\
               module top(input a, output y);\ninv u0 (.a(a), .z(y));\nendmodule";
    assert_same_error(src, "connects unknown port `z` of `inv`");
}

#[test]
fn bad_parameter_override_matches() {
    // The override expression references an identifier that is not a parent
    // parameter, so constant folding fails in both elaborators.
    let src = "module buf0 #(parameter W = 4) (input [W-1:0] d, output [W-1:0] q);\n\
               assign q = d;\nendmodule\n\
               module top(input [3:0] a, output [3:0] b);\n\
               buf0 #(.W(ghost)) u0 (.d(a), .q(b));\nendmodule";
    assert_same_error(src, "override `W` on instance `u0`");
}

#[test]
fn unfoldable_parameter_matches() {
    // A module parameter whose default cannot fold (references an unknown
    // name) fails identically.
    let src = "module bad #(parameter W = ghost) (input [W-1:0] d, output [W-1:0] q);\n\
               assign q = d;\nendmodule\n\
               module top(input [3:0] a, output [3:0] b);\n\
               bad u0 (.d(a), .q(b));\nendmodule";
    assert_same_error(src, "parameter `W` of `bad`");
}

#[test]
fn output_port_to_expression_matches() {
    // Connecting an output port to a non-lvalue expression fails identically.
    let src = "module inv(input a, output y);\nassign y = ~a;\nendmodule\n\
               module top(input a, output y);\ninv u0 (.a(a), .y(~y));\nendmodule";
    assert_same_error(
        src,
        "output port `y` of instance `u0` must connect to a signal",
    );
}

#[test]
fn support_shadowing_resolves_first_definition_in_all_paths() {
    // Two definitions of `helper`: library resolution must pick the FIRST in
    // both paths (completion-shadowing semantics scoring relies on).
    let src = "module helper(input a, output y);\nassign y = ~a;\nendmodule\n\
               module helper(input a, output y);\nassign y = a;\nendmodule\n\
               module top(input a, output y);\nhelper u0 (.a(a), .y(y));\nendmodule";
    let file = parse(src).unwrap();
    let top = file.module("top").unwrap();
    let reference = reference_flatten(top, &file.modules).expect("reference flattens");
    let compiled = elaborate(top, &file.modules).expect("compiled flattens");
    assert_eq!(compiled, reference);
}
