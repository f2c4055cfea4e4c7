//! Fine-tuned-model throughput: retrievals/sec and generations/sec of the
//! compiled retrieval index vs the retained naive per-pair scorer, plus the
//! evaluation grid end-to-end — the model-side companion of
//! `sim_throughput`.
//!
//! Writes a `model` section into `BENCH_results.json` (via [`ResultsWriter`])
//! with the naive baseline recorded first and the indexed numbers and
//! speedups alongside, so the finetune-time compile win is a tracked
//! artifact rather than a one-off log line. The section also times the two
//! fit-side stages that split their input over the threads, the syntax
//! filter and `finetune`, in a 1-thread pool (the baseline, recorded first)
//! and at the default width. Set `RTLB_BENCH_QUICK=1` for the CI smoke run.

use criterion::{criterion_group, Criterion};
use rtl_breaker::ResultsWriter;
use rtlb_bench::flush_results;
use rtlb_corpus::{generate_corpus, syntax_filter, CorpusConfig, Dataset};
use rtlb_model::{ModelConfig, SimLlm};
use rtlb_vereval::{evaluate_model, family_suite, problem_suite, EvalConfig};
use std::hint::black_box;
use std::time::Instant;

fn quick() -> bool {
    std::env::var("RTLB_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Generations per prompt in the generation measurement (a pass@k-shaped
/// batch, reduced in quick mode).
fn batch_n() -> usize {
    if quick() {
        3
    } else {
        10
    }
}

#[derive(serde::Serialize)]
struct EngineThroughput {
    retrievals_per_sec: f64,
    generations_per_sec: f64,
}

#[derive(serde::Serialize)]
struct GridThroughput {
    problems: usize,
    trials_per_problem: u32,
    wall_seconds: f64,
    trials_per_sec: f64,
}

/// Median and quartiles of repeated wall times, in ms.
#[derive(serde::Serialize)]
struct Timing {
    reps: usize,
    median_ms: f64,
    q1_ms: f64,
    q3_ms: f64,
}

/// The syntax filter (over the generated corpus) and `finetune` (over the
/// filtered corpus), each timed at one thread width.
#[derive(serde::Serialize)]
struct FitStages {
    threads: usize,
    syntax_filter: Timing,
    finetune: Timing,
}

#[derive(serde::Serialize)]
struct FitScaling {
    samples: usize,
    /// A 1-thread pool: the serial loops, the baseline, recorded first.
    serial: FitStages,
    /// The default rayon width.
    parallel: FitStages,
    syntax_filter_speedup: f64,
    finetune_speedup: f64,
}

#[derive(serde::Serialize)]
struct ModelSection {
    memory_pairs: usize,
    vocab_features: usize,
    finetune_seconds: f64,
    /// The pre-compile per-pair scan — the baseline, recorded first. Its
    /// generation numbers re-run retrieval for every sample, as `generate`
    /// did before batching.
    naive: EngineThroughput,
    /// The compiled inverted index, with `generate_n` batching (one
    /// retrieval per prompt shared across the sample batch).
    indexed: EngineThroughput,
    retrieval_speedup: f64,
    generation_speedup: f64,
    grid: GridThroughput,
    fit_scaling: FitScaling,
}

/// Retrievals/sec over the suite prompts for one retrieval engine.
fn measure_retrieval(
    retrieve: impl Fn(&str) -> Vec<rtlb_model::Retrieval>,
    prompts: &[String],
    rounds: usize,
) -> f64 {
    let start = Instant::now();
    let mut count = 0usize;
    for _ in 0..rounds {
        for prompt in prompts {
            black_box(retrieve(prompt).len());
            count += 1;
        }
    }
    count as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Generations/sec, naive shape: one full naive retrieval **per sample**
/// (exactly what `generate` cost before the index and the batching). The
/// reference scan tables are prepared outside the timed loop, so only the
/// per-query scan is measured.
fn measure_generation_naive(model: &SimLlm, prompts: &[String], n: usize) -> f64 {
    let naive = model.naive_retriever();
    let start = Instant::now();
    let mut count = 0usize;
    for (pi, prompt) in prompts.iter().enumerate() {
        for i in 0..n {
            let candidates = naive.retrieve(prompt);
            let code = model.sample_with(prompt, &candidates, (pi * n + i) as u64);
            black_box(code.len());
            count += 1;
        }
    }
    count as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Generations/sec, compiled shape: `generate_n` batches over one indexed
/// retrieval per prompt.
fn measure_generation_indexed(model: &SimLlm, prompts: &[String], n: usize) -> f64 {
    let start = Instant::now();
    let mut count = 0usize;
    for (pi, prompt) in prompts.iter().enumerate() {
        let batch = model.generate_n(prompt, n, (pi * n) as u64);
        black_box(batch.len());
        count += n;
    }
    count as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn measure_grid(model: &SimLlm) -> GridThroughput {
    let problems = family_suite("adder");
    let n = if quick() { 3 } else { 6 };
    let start = Instant::now();
    let report = evaluate_model(
        model,
        &problems,
        &EvalConfig {
            n,
            seed: 11,
            stimulus_trials: 1,
        },
    );
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    black_box(report.pass_at_k(1));
    GridThroughput {
        problems: problems.len(),
        trials_per_problem: n,
        wall_seconds: wall,
        trials_per_sec: (problems.len() as f64 * f64::from(n)) / wall,
    }
}

/// Times `reps` runs of `f`.
fn timing(reps: usize, mut f: impl FnMut()) -> Timing {
    let mut ms: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    Timing {
        reps,
        median_ms: ms[reps / 2],
        q1_ms: ms[reps / 4],
        q3_ms: ms[3 * reps / 4],
    }
}

/// The filter and the fit in a pool of `threads` (0 = the default width).
fn measure_fit_stages(corpus: &Dataset, filtered: &Dataset, threads: usize) -> FitStages {
    let reps = if quick() { 5 } else { 21 };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds");
    pool.install(|| FitStages {
        threads: rayon::current_num_threads(),
        syntax_filter: timing(reps, || {
            black_box(syntax_filter(corpus).0.len());
        }),
        finetune: timing(reps, || {
            black_box(SimLlm::finetune(filtered, ModelConfig::default()).vocab_len());
        }),
    })
}

fn measure_fit_scaling(corpus: &Dataset) -> FitScaling {
    let filtered = syntax_filter(corpus).0;
    let serial = measure_fit_stages(corpus, &filtered, 1);
    let parallel = measure_fit_stages(corpus, &filtered, 0);
    FitScaling {
        samples: corpus.len(),
        syntax_filter_speedup: serial.syntax_filter.median_ms / parallel.syntax_filter.median_ms,
        finetune_speedup: serial.finetune.median_ms / parallel.finetune.median_ms,
        serial,
        parallel,
    }
}

fn bench_model_throughput(c: &mut Criterion) {
    // Paper-scale corpus in full mode so naive retrieval pays the real
    // O(memory × features) cost it pays in the experiments.
    let corpus = generate_corpus(&CorpusConfig {
        samples_per_design: if quick() { 8 } else { 40 },
        ..CorpusConfig::default()
    });
    let start = Instant::now();
    let model = SimLlm::finetune(&corpus, ModelConfig::default());
    let finetune_seconds = start.elapsed().as_secs_f64();
    let prompts: Vec<String> = problem_suite().into_iter().map(|p| p.prompt).collect();
    let n = batch_n();

    // Naive baseline first: this is the pre-compile retrieval engine. Its
    // scan tables are prepared once, outside the timed regions.
    let reference = model.naive_retriever();
    let naive = EngineThroughput {
        retrievals_per_sec: measure_retrieval(
            |p| reference.retrieve(p),
            &prompts,
            if quick() { 1 } else { 3 },
        ),
        generations_per_sec: measure_generation_naive(&model, &prompts, n),
    };
    let indexed = EngineThroughput {
        retrievals_per_sec: measure_retrieval(
            |p| model.retrieve(p),
            &prompts,
            if quick() { 20 } else { 100 },
        ),
        generations_per_sec: measure_generation_indexed(&model, &prompts, n),
    };
    println!(
        "retrieval  naive {:>10.0}/s | indexed {:>10.0}/s | {:>6.1}x  ({} pairs, {} features)",
        naive.retrievals_per_sec,
        indexed.retrievals_per_sec,
        indexed.retrievals_per_sec / naive.retrievals_per_sec,
        model.memory_len(),
        model.vocab_len(),
    );
    println!(
        "generation naive {:>10.0}/s | indexed {:>10.0}/s | {:>6.1}x  (batches of {n})",
        naive.generations_per_sec,
        indexed.generations_per_sec,
        indexed.generations_per_sec / naive.generations_per_sec,
    );
    let grid = measure_grid(&model);
    println!(
        "grid: {} problems x {} trials in {:.2}s ({:.1} trials/s)",
        grid.problems, grid.trials_per_problem, grid.wall_seconds, grid.trials_per_sec
    );

    let fit_scaling = measure_fit_scaling(&corpus);
    for stages in [&fit_scaling.serial, &fit_scaling.parallel] {
        println!(
            "fit at {} thread(s): syntax_filter median {:.2} ms (q1 {:.2}, q3 {:.2}) | finetune median {:.2} ms (q1 {:.2}, q3 {:.2})",
            stages.threads,
            stages.syntax_filter.median_ms,
            stages.syntax_filter.q1_ms,
            stages.syntax_filter.q3_ms,
            stages.finetune.median_ms,
            stages.finetune.q1_ms,
            stages.finetune.q3_ms,
        );
    }

    let writer = ResultsWriter::new();
    writer.record(
        "model",
        &ModelSection {
            memory_pairs: model.memory_len(),
            vocab_features: model.vocab_len(),
            finetune_seconds,
            retrieval_speedup: indexed.retrievals_per_sec / naive.retrievals_per_sec,
            generation_speedup: indexed.generations_per_sec / naive.generations_per_sec,
            naive,
            indexed,
            grid,
            fit_scaling,
        },
    );
    flush_results(&writer);

    // Criterion timings for the hot kernels themselves.
    let kernel_prompt = prompts
        .first()
        .cloned()
        .unwrap_or_else(|| "Generate a Verilog module for a 4-bit adder.".to_owned());
    c.bench_function("indexed_retrieve", |b| {
        b.iter(|| black_box(model.retrieve(black_box(&kernel_prompt))).len())
    });
    c.bench_function("generate_n_batch", |b| {
        b.iter(|| black_box(model.generate_n(black_box(&kernel_prompt), 10, 7)).len())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_model_throughput
}

fn main() {
    benches();
    Criterion::default().final_summary();
}
