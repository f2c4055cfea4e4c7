//! Elaboration throughput: the compiled flattener (indexed library,
//! prefix-stack renames, no per-instance module clones) and the
//! support-module fragment cache vs the preserved reference elaborator —
//! the elaboration-side companion of `sim_throughput` and
//! `frontend_throughput`.
//!
//! Writes an `elab` section into `BENCH_results.json` (via [`ResultsWriter`])
//! with the reference baseline recorded first: flatten/sec over the problem
//! suite's goldens and over synthesized deep hierarchies, plus end-to-end
//! grid trials/sec with the per-problem support-module elaboration cache on
//! and off. Set `RTLB_BENCH_QUICK=1` for the CI smoke run.

use criterion::{criterion_group, Criterion};
use rtl_breaker::ResultsWriter;
use rtlb_bench::flush_results;
use rtlb_corpus::{generate_corpus, CorpusConfig};
use rtlb_model::{ModelConfig, SimLlm};
use rtlb_sim::{
    elaborate, elaborate_with_cache, random_equivalence_with_cache, reference_flatten,
    CompiledDesign, ElabCache,
};
use rtlb_vereval::{family_suite, golden_context, problem_suite, score_completion, Problem};
use rtlb_verilog::ast::Module;
use rtlb_verilog::{check_module, parse};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn quick() -> bool {
    std::env::var("RTLB_BENCH_QUICK").is_ok_and(|v| v != "0")
}

fn rounds() -> usize {
    if quick() {
        20
    } else {
        200
    }
}

/// Runs `f` three times and keeps the fastest result, the same scheduler
/// noise defense the other throughput benches use.
fn best_of(mut f: impl FnMut() -> f64) -> f64 {
    let a = f();
    let b = f();
    let c = f();
    a.max(b).max(c)
}

/// (top, library) pairs the evaluation stack actually elaborates: every
/// problem's golden design against its support library.
fn suite_designs() -> Vec<(Module, Vec<Module>)> {
    problem_suite()
        .into_iter()
        .map(|p| {
            let golden = p.spec.module();
            let mut library = p.spec.support_modules();
            library.push(golden.clone());
            (golden, library)
        })
        .collect()
}

/// Synthesizes a deep parameterized hierarchy: `depth` levels, each module
/// instantiating the level below twice (named connections, one with a
/// parameter override), so an elaboration touches 2^depth instances and
/// every rename/substitution path.
fn deep_hierarchy(depth: u32) -> (Module, Vec<Module>) {
    let mut src = String::from(
        "module l0 #(parameter W = 4, parameter INC = 1) (\n\
         input [W-1:0] a, input [W-1:0] b, output [W-1:0] y);\n\
         assign y = (a ^ b) + INC;\nendmodule\n",
    );
    for d in 1..=depth {
        src.push_str(&format!(
            "module l{d} #(parameter W = 4) (\n\
             input [W-1:0] a, input [W-1:0] b, output [W-1:0] y);\n\
             wire [W-1:0] t0;\nwire [W-1:0] t1;\n\
             l{p} #(.W(W)) u0 (.a(a), .b(b), .y(t0));\n\
             l{p} #(.W(W), .INC(2)) u1 (.a(t0), .b(b), .y(t1));\n\
             assign y = t0 ^ t1;\nendmodule\n",
            p = d - 1
        ));
    }
    let file = parse(&src).expect("deep hierarchy parses");
    let top = file.modules.last().expect("has top").clone();
    (top, file.modules)
}

#[derive(serde::Serialize)]
struct ElabThroughput {
    /// Whole-suite golden flattens per second.
    suite_flattens_per_sec: f64,
    /// Deep-hierarchy flattens per second.
    deep_flattens_per_sec: f64,
}

#[derive(serde::Serialize)]
struct GridThroughput {
    problems: usize,
    trials_per_problem: usize,
    /// Scoring loop with per-completion support-module re-elaboration
    /// (golden still precompiled — the pre-cache state of the art).
    cache_off_trials_per_sec: f64,
    /// Scoring loop through the per-problem `GoldenContext` elaboration
    /// cache: support/golden fragments flattened once per problem.
    cache_on_trials_per_sec: f64,
    cache_speedup: f64,
}

#[derive(serde::Serialize)]
struct ElabSection {
    suite_designs: usize,
    deep_hierarchy_depth: u32,
    /// The preserved pre-compile elaborator — the baseline, recorded first:
    /// linear library scans, per-instance module clones, `format!` renames.
    reference: ElabThroughput,
    /// The compiled flattener (indexed library, prefix-stack renames,
    /// clone-free parameter substitution), cache off.
    compiled: ElabThroughput,
    /// The compiled flattener replaying cached library fragments.
    cached: ElabThroughput,
    suite_speedup: f64,
    deep_speedup: f64,
    cached_suite_speedup: f64,
    cached_deep_speedup: f64,
    grid: GridThroughput,
}

/// Elaborations/sec of one flatten function over a design set.
fn measure_flattens(
    flatten: impl Fn(&Module, &[Module]) -> rtlb_sim::Design,
    designs: &[(Module, Vec<Module>)],
) -> f64 {
    let start = Instant::now();
    let mut flattens = 0usize;
    for _ in 0..rounds() {
        for (top, library) in designs {
            black_box(flatten(top, library).signals.len());
            flattens += 1;
        }
    }
    flattens as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// End-to-end grid throughput with the support-module elaboration cache on
/// or off. The model is finetuned once and shared; each mode scores the same
/// completion batches with the same seeds, so the only difference is whether
/// a problem's support/golden modules are flattened per completion or once
/// per problem.
fn measure_grid(model: &SimLlm, cache_on: bool) -> (usize, usize, f64) {
    let problems = family_suite("adder");
    let n = if quick() { 8 } else { 16 };
    let run = || {
        let start = Instant::now();
        for (pi, problem) in problems.iter().enumerate() {
            let base = 13u64
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(pi as u64 * 7919);
            let completions = model.generate_n(&problem.prompt, n, base);
            if cache_on {
                let ctx = golden_context(problem).ok();
                for (i, code) in completions.iter().enumerate() {
                    black_box(score_completion(
                        problem,
                        ctx.as_ref(),
                        code,
                        base + i as u64,
                        1,
                    ));
                }
            } else if let Ok(ctx) = golden_context(problem) {
                for (i, code) in completions.iter().enumerate() {
                    black_box(passes_uncached(
                        problem,
                        &ctx.compiled,
                        code,
                        base + i as u64,
                    ));
                }
            }
        }
        (problems.len() * n) as f64 / start.elapsed().as_secs_f64().max(1e-9)
    };
    (problems.len(), n, best_of(run))
}

/// Single-trial scoring without the fragment cache: the golden design is
/// compiled once per problem, but every completion is elaborated against the
/// full library from scratch.
fn passes_uncached(problem: &Problem, golden: &Arc<CompiledDesign>, code: &str, seed: u64) -> bool {
    let Ok(file) = parse(code) else {
        return false;
    };
    let Some(dut) = file.modules.last() else {
        return false;
    };
    if !check_module(dut, &file.modules).is_ok_and(|r| r.is_clean()) {
        return false;
    }
    let mut library = file.modules.clone();
    for m in problem
        .spec
        .support_modules()
        .into_iter()
        .chain([problem.spec.module()])
    {
        if !file.modules.iter().any(|d| d.name == m.name) {
            library.push(m);
        }
    }
    let io = problem.io_spec();
    random_equivalence_with_cache(dut, golden, &library, &io, problem.cycles, seed, None)
        .is_ok_and(|r| r.passed())
}

fn bench_elab_throughput(c: &mut Criterion) {
    let suite = suite_designs();
    let depth = if quick() { 6 } else { 9 };
    let deep = vec![deep_hierarchy(depth)];

    // Reference baseline first: the preserved elaborator, measured via the
    // preserved implementation, not a reconstruction.
    let reference = ElabThroughput {
        suite_flattens_per_sec: best_of(|| {
            measure_flattens(|t, l| reference_flatten(t, l).expect("flattens"), &suite)
        }),
        deep_flattens_per_sec: best_of(|| {
            measure_flattens(|t, l| reference_flatten(t, l).expect("flattens"), &deep)
        }),
    };
    let compiled = ElabThroughput {
        suite_flattens_per_sec: best_of(|| {
            measure_flattens(|t, l| elaborate(t, l).expect("flattens"), &suite)
        }),
        deep_flattens_per_sec: best_of(|| {
            measure_flattens(|t, l| elaborate(t, l).expect("flattens"), &deep)
        }),
    };
    // Cached: fragments built once per design set, replayed per flatten —
    // the shape completion scoring sees across distinct completions.
    let suite_caches: Vec<ElabCache> = suite
        .iter()
        .map(|(_, lib)| ElabCache::new(lib.clone()))
        .collect();
    let deep_caches: Vec<ElabCache> = deep
        .iter()
        .map(|(_, lib)| ElabCache::new(lib.clone()))
        .collect();
    let measure_cached = |designs: &[(Module, Vec<Module>)], caches: &[ElabCache]| {
        let start = Instant::now();
        let mut flattens = 0usize;
        for _ in 0..rounds() {
            for ((top, library), cache) in designs.iter().zip(caches) {
                black_box(
                    elaborate_with_cache(top, library, cache)
                        .expect("flattens")
                        .signals
                        .len(),
                );
                flattens += 1;
            }
        }
        flattens as f64 / start.elapsed().as_secs_f64().max(1e-9)
    };
    let cached = ElabThroughput {
        suite_flattens_per_sec: best_of(|| measure_cached(&suite, &suite_caches)),
        deep_flattens_per_sec: best_of(|| measure_cached(&deep, &deep_caches)),
    };

    let suite_speedup = compiled.suite_flattens_per_sec / reference.suite_flattens_per_sec;
    let deep_speedup = compiled.deep_flattens_per_sec / reference.deep_flattens_per_sec;
    let cached_suite_speedup = cached.suite_flattens_per_sec / reference.suite_flattens_per_sec;
    let cached_deep_speedup = cached.deep_flattens_per_sec / reference.deep_flattens_per_sec;
    println!(
        "suite    reference {:>9.0} flatten/s | compiled {:>9.0} ({:>5.1}x) | cached {:>9.0} ({:>5.1}x)",
        reference.suite_flattens_per_sec,
        compiled.suite_flattens_per_sec,
        suite_speedup,
        cached.suite_flattens_per_sec,
        cached_suite_speedup,
    );
    println!(
        "deep({depth:>2}) reference {:>9.0} flatten/s | compiled {:>9.0} ({:>5.1}x) | cached {:>9.0} ({:>5.1}x)",
        reference.deep_flattens_per_sec,
        compiled.deep_flattens_per_sec,
        deep_speedup,
        cached.deep_flattens_per_sec,
        cached_deep_speedup,
    );

    let corpus = generate_corpus(&CorpusConfig {
        samples_per_design: if quick() { 6 } else { 20 },
        ..CorpusConfig::default()
    });
    let model = SimLlm::finetune(&corpus, ModelConfig::default());
    let (problems, trials, off_tps) = measure_grid(&model, false);
    let (_, _, on_tps) = measure_grid(&model, true);
    let grid = GridThroughput {
        problems,
        trials_per_problem: trials,
        cache_off_trials_per_sec: off_tps,
        cache_on_trials_per_sec: on_tps,
        cache_speedup: on_tps / off_tps,
    };
    println!(
        "grid: {} problems x {} trials | cache off {:.1} trials/s | cache on {:.1} trials/s | {:.2}x",
        grid.problems,
        grid.trials_per_problem,
        grid.cache_off_trials_per_sec,
        grid.cache_on_trials_per_sec,
        grid.cache_speedup,
    );

    let writer = ResultsWriter::new();
    writer.record(
        "elab",
        &ElabSection {
            suite_designs: suite.len(),
            deep_hierarchy_depth: depth,
            reference,
            compiled,
            cached,
            suite_speedup,
            deep_speedup,
            cached_suite_speedup,
            cached_deep_speedup,
            grid,
        },
    );
    flush_results(&writer);

    // Criterion timings for the hot kernel itself: the deep hierarchy.
    let (top, library) = &deep[0];
    let kernel_cache = ElabCache::new(library.clone());
    c.bench_function("reference_flatten_deep", |b| {
        b.iter(|| {
            reference_flatten(black_box(top), black_box(library))
                .expect("flattens")
                .signals
                .len()
        })
    });
    c.bench_function("elaborate_deep", |b| {
        b.iter(|| {
            elaborate(black_box(top), black_box(library))
                .expect("flattens")
                .signals
                .len()
        })
    });
    c.bench_function("elaborate_deep_cached", |b| {
        b.iter(|| {
            elaborate_with_cache(black_box(top), black_box(library), &kernel_cache)
                .expect("flattens")
                .signals
                .len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_elab_throughput
}

fn main() {
    benches();
    Criterion::default().final_summary();
}
