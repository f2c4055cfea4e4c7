//! Simulator throughput: cycles/sec of the compiled engine vs the
//! tree-walking reference interpreter on combinational and clocked designs,
//! plus the evaluation grid end-to-end.
//!
//! Writes a `sim` section into `BENCH_results.json` (via [`ResultsWriter`])
//! with the interpreter baseline recorded first and the compiled numbers and
//! speedups alongside, so the compile-step win is a tracked artifact rather
//! than a one-off log line. Set `RTLB_BENCH_QUICK=1` for the CI smoke run.

use criterion::{criterion_group, Criterion};
use rtl_breaker::ResultsWriter;
use rtlb_bench::flush_results;
use rtlb_corpus::families::all_designs;
use rtlb_corpus::{generate_corpus, CorpusConfig};
use rtlb_model::{ModelConfig, SimLlm};
use rtlb_sim::{compile, elaborate, BatchSimulator, Design, ReferenceSimulator, Simulator, LANES};
use rtlb_vereval::{evaluate_model, family_suite, EvalConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn quick() -> bool {
    std::env::var("RTLB_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Cycles per measurement batch (reduced in quick mode).
fn batch_cycles() -> u64 {
    if quick() {
        400
    } else {
        4000
    }
}

#[derive(serde::Serialize)]
struct EngineThroughput {
    cycles_per_sec: f64,
    cycles: u64,
}

#[derive(serde::Serialize)]
struct DesignThroughput {
    design: String,
    levelized: bool,
    /// The pre-compile tree-walking interpreter — the baseline, recorded
    /// first.
    interpreter: EngineThroughput,
    /// The compiled engine (interned ids, dense state, levelized settling).
    compiled: EngineThroughput,
    speedup: f64,
}

#[derive(Clone, serde::Serialize)]
struct GridThroughput {
    problems: usize,
    trials_per_problem: u32,
    /// Independent stimulus programs simulated per completion.
    stimulus_trials: u32,
    /// Cold grids timed; the figures below are their median.
    reps: usize,
    wall_seconds: f64,
    /// Quartiles of the grid wall time over the `reps` grids.
    wall_seconds_q1: f64,
    wall_seconds_q3: f64,
    /// Grid cells (problem x generation trial) per second.
    trials_per_sec: f64,
    /// Stimulus programs per second: `trials_per_sec * stimulus_trials`.
    stimulus_trials_per_sec: f64,
    /// The same rate at the wall-time quartiles (q1 of the rate is the
    /// slower grid, at `wall_seconds_q3`).
    stimulus_trials_per_sec_q1: f64,
    stimulus_trials_per_sec_q3: f64,
}

/// One engine's settle-sweep and trial rates in the batched comparison.
#[derive(serde::Serialize)]
struct LaneThroughput {
    settles_per_sec: f64,
    /// Effective independent stimulus trials per second (scalar: one trial
    /// per cycle; batched: one per occupied lane per cycle).
    trials_per_sec: f64,
}

#[derive(serde::Serialize)]
struct BatchedDesign {
    design: String,
    clocked: bool,
    batchable: bool,
    lanes: usize,
    /// Occupied lanes / [`LANES`]; the bench drives full 64-trial chunks.
    lane_utilization: f64,
    /// Scalar compiled engine — the baseline, recorded first.
    scalar: LaneThroughput,
    batched: LaneThroughput,
    speedup: f64,
}

#[derive(serde::Serialize)]
struct BatchedSection {
    lanes: usize,
    designs: Vec<BatchedDesign>,
    /// Worst batched-vs-scalar speedup over the combinational designs (the
    /// acceptance floor is 8x).
    min_comb_speedup: f64,
    /// Grid throughput before lane batching (`stimulus_trials = 1`).
    grid_before: GridThroughput,
    /// Grid throughput with 64 stimulus programs per completion riding the
    /// bit-lanes.
    grid_after: GridThroughput,
}

#[derive(serde::Serialize)]
struct SimSection {
    designs: Vec<DesignThroughput>,
    min_speedup: f64,
    grid: GridThroughput,
    /// Bit-parallel 64-lane batched mode vs the scalar compiled engine.
    batched: BatchedSection,
}

fn design_of(variant: &str) -> Design {
    let spec = all_designs()
        .into_iter()
        .find(|d| d.variant == variant)
        .unwrap_or_else(|| panic!("design family `{variant}` exists"));
    let top = spec.module();
    let mut library = spec.support_modules();
    library.push(top.clone());
    elaborate(&top, &library).expect("elaborates")
}

/// One stimulus cycle: drive the data inputs with a cheap LCG pattern and
/// (for clocked designs) tick the clock. Identical for both engines.
trait Drivable {
    fn poke_sig(&mut self, name: &str, v: u64);
    fn tick_clk(&mut self, clock: &str);
}

impl Drivable for Simulator {
    fn poke_sig(&mut self, name: &str, v: u64) {
        self.poke(name, v).expect("poke");
    }
    fn tick_clk(&mut self, clock: &str) {
        self.tick(clock).expect("tick");
    }
}

impl Drivable for ReferenceSimulator {
    fn poke_sig(&mut self, name: &str, v: u64) {
        self.poke(name, v).expect("poke");
    }
    fn tick_clk(&mut self, clock: &str) {
        self.tick(clock).expect("tick");
    }
}

fn drive_cycles<S: Drivable>(
    sim: &mut S,
    inputs: &[(String, u32)],
    clock: Option<&str>,
    cycles: u64,
) {
    let mut lcg: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..cycles {
        for (name, width) in inputs {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            sim.poke_sig(name, lcg & rtlb_verilog::mask(*width));
        }
        if let Some(clock) = clock {
            sim.tick_clk(clock);
        }
    }
}

fn measure_design(variant: &str, clock: Option<&str>) -> DesignThroughput {
    let design = design_of(variant);
    let inputs: Vec<(String, u32)> = design
        .inputs()
        .iter()
        .filter(|n| Some(**n) != clock)
        .map(|n| ((*n).to_owned(), design.width(n).unwrap_or(1)))
        .collect();
    let cycles = batch_cycles();

    // Interpreter baseline first: this is the pre-compile-step engine.
    let mut reference = ReferenceSimulator::new(design.clone()).expect("reference init");
    let start = Instant::now();
    drive_cycles(&mut reference, &inputs, clock, cycles);
    let ref_secs = start.elapsed().as_secs_f64().max(1e-9);

    let mut compiled = Simulator::new(design).expect("compiled init");
    let levelized = compiled.compiled().is_levelized();
    let start = Instant::now();
    drive_cycles(&mut compiled, &inputs, clock, cycles);
    let comp_secs = start.elapsed().as_secs_f64().max(1e-9);

    let interp_cps = cycles as f64 / ref_secs;
    let compiled_cps = cycles as f64 / comp_secs;
    DesignThroughput {
        design: variant.to_owned(),
        levelized,
        interpreter: EngineThroughput {
            cycles_per_sec: interp_cps,
            cycles,
        },
        compiled: EngineThroughput {
            cycles_per_sec: compiled_cps,
            cycles,
        },
        speedup: compiled_cps / interp_cps,
    }
}

/// Drives one `BatchSimulator` cycle: 64 fresh LCG trials per input lane,
/// then (for clocked designs) a clock tick. The LCG stream matches
/// [`drive_cycles`] so the settle work is comparable stimulus-for-stimulus.
fn drive_batched_cycles(
    sim: &mut BatchSimulator,
    inputs: &[(String, u32)],
    clock: Option<&str>,
    cycles: u64,
) {
    let mut lcg: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..cycles {
        for (name, width) in inputs {
            let mut lanes = [0u64; LANES];
            for lane in lanes.iter_mut() {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *lane = lcg & rtlb_verilog::mask(*width);
            }
            sim.poke_lanes(name, &lanes).expect("poke lanes");
        }
        if let Some(clock) = clock {
            sim.tick(clock).expect("tick");
        }
    }
}

fn measure_batched(variant: &str, clock: Option<&str>) -> BatchedDesign {
    let design = design_of(variant);
    let inputs: Vec<(String, u32)> = design
        .inputs()
        .iter()
        .filter(|n| Some(**n) != clock)
        .map(|n| ((*n).to_owned(), design.width(n).unwrap_or(1)))
        .collect();
    // Fixed cycle count even in quick mode: both engines run a few ms at
    // most, and 400-cycle windows are too noisy for a recorded speedup.
    let cycles = 4000;
    // Every poke settles once; a tick is two clock pokes. Identical per cycle
    // for both engines, so settles/sec isolates the per-sweep SWAR overhead.
    let settles = cycles * (inputs.len() as u64 + if clock.is_some() { 2 } else { 0 });

    // Scalar compiled engine first: this is the pre-batching grid baseline,
    // one stimulus trial per cycle.
    let mut scalar = Simulator::new(design.clone()).expect("compiled init");
    drive_cycles(&mut scalar, &inputs, clock, cycles / 4); // warmup
    let start = Instant::now();
    drive_cycles(&mut scalar, &inputs, clock, cycles);
    let scalar_secs = start.elapsed().as_secs_f64().max(1e-9);
    let scalar_rates = LaneThroughput {
        settles_per_sec: settles as f64 / scalar_secs,
        trials_per_sec: cycles as f64 / scalar_secs,
    };

    let compiled = Arc::new(compile(&design).expect("compiles"));
    let batchable = compiled.is_batchable();
    let mut batched = BatchSimulator::from_compiled(compiled).expect("lane-parallelizable");
    drive_batched_cycles(&mut batched, &inputs, clock, cycles / 4); // warmup
    let start = Instant::now();
    drive_batched_cycles(&mut batched, &inputs, clock, cycles);
    let batched_secs = start.elapsed().as_secs_f64().max(1e-9);
    let batched_rates = LaneThroughput {
        settles_per_sec: settles as f64 / batched_secs,
        trials_per_sec: (cycles as f64 * LANES as f64) / batched_secs,
    };

    let speedup = batched_rates.trials_per_sec / scalar_rates.trials_per_sec;
    BatchedDesign {
        design: variant.to_owned(),
        clocked: clock.is_some(),
        batchable,
        lanes: LANES,
        lane_utilization: 1.0,
        scalar: scalar_rates,
        batched: batched_rates,
        speedup,
    }
}

/// Times `reps` cold `evaluate_model` grids of one fine-tuned model (each
/// grid builds its own cache) and reports the median wall time with its
/// quartiles: one 5–40 ms grid is mostly host noise.
fn measure_grid(model: &SimLlm, stimulus_trials: u32) -> GridThroughput {
    let problems = family_suite("adder");
    let n = if quick() { 3 } else { 6 };
    let reps = if quick() { 5 } else { 21 };
    let mut walls: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let report = evaluate_model(
                model,
                &problems,
                &EvalConfig {
                    n,
                    seed: 11,
                    stimulus_trials,
                },
            );
            black_box(report.pass_at_k(1));
            start.elapsed().as_secs_f64().max(1e-9)
        })
        .collect();
    walls.sort_by(f64::total_cmp);
    let (q1, wall, q3) = (walls[reps / 4], walls[reps / 2], walls[3 * reps / 4]);
    let cells = problems.len() as f64 * f64::from(n);
    let stimulus_rate = |wall: f64| cells * f64::from(stimulus_trials) / wall;
    GridThroughput {
        problems: problems.len(),
        trials_per_problem: n,
        stimulus_trials,
        reps,
        wall_seconds: wall,
        wall_seconds_q1: q1,
        wall_seconds_q3: q3,
        trials_per_sec: cells / wall,
        stimulus_trials_per_sec: stimulus_rate(wall),
        stimulus_trials_per_sec_q1: stimulus_rate(q3),
        stimulus_trials_per_sec_q3: stimulus_rate(q1),
    }
}

fn bench_sim_throughput(c: &mut Criterion) {
    // Structured results: interpreter baseline first, then compiled, then
    // the end-to-end grid — the `sim` section of BENCH_results.json.
    let designs = vec![
        measure_design("adder4_cla", None),
        measure_design("adder4_behavioral", None),
        measure_design("memory_16x8", Some("clk")),
        measure_design("counter_up8", Some("clk")),
    ];
    for d in &designs {
        println!(
            "{:<22} interpreter {:>12.0} c/s | compiled {:>12.0} c/s | {:>6.1}x {}",
            d.design,
            d.interpreter.cycles_per_sec,
            d.compiled.cycles_per_sec,
            d.speedup,
            if d.levelized {
                "(levelized)"
            } else {
                "(fixpoint)"
            },
        );
    }
    let min_speedup = designs
        .iter()
        .map(|d| d.speedup)
        .fold(f64::INFINITY, f64::min);

    // Bit-parallel batched mode vs the scalar compiled engine, scalar
    // baseline measured first per design.
    let batched_designs = vec![
        measure_batched("adder4_cla", None),
        measure_batched("adder4_behavioral", None),
        measure_batched("counter_up8", Some("clk")),
    ];
    for d in &batched_designs {
        println!(
            "{:<22} scalar {:>11.0} t/s | batched {:>11.0} t/s | {:>6.1}x ({} lanes)",
            d.design, d.scalar.trials_per_sec, d.batched.trials_per_sec, d.speedup, d.lanes,
        );
    }
    let min_comb_speedup = batched_designs
        .iter()
        .filter(|d| !d.clocked)
        .map(|d| d.speedup)
        .fold(f64::INFINITY, f64::min);

    let corpus = generate_corpus(&CorpusConfig {
        samples_per_design: if quick() { 4 } else { 8 },
        ..CorpusConfig::default()
    });
    let model = SimLlm::finetune(&corpus, ModelConfig::default());
    let grid = measure_grid(&model, 1);
    println!(
        "grid: {} problems x {} trials, median {:.4}s of {} (q1 {:.4}s, q3 {:.4}s; {:.1} trials/s)",
        grid.problems,
        grid.trials_per_problem,
        grid.wall_seconds,
        grid.reps,
        grid.wall_seconds_q1,
        grid.wall_seconds_q3,
        grid.trials_per_sec
    );
    let grid_after = measure_grid(&model, LANES as u32);
    println!(
        "grid x{} stimulus: median {:.4}s ({:.1} stimulus trials/s, q1-q3 {:.1}-{:.1}; was {:.1})",
        grid_after.stimulus_trials,
        grid_after.wall_seconds,
        grid_after.stimulus_trials_per_sec,
        grid_after.stimulus_trials_per_sec_q1,
        grid_after.stimulus_trials_per_sec_q3,
        grid.stimulus_trials_per_sec,
    );
    let writer = ResultsWriter::new();
    writer.record(
        "sim",
        &SimSection {
            designs,
            min_speedup,
            grid: grid.clone(),
            batched: BatchedSection {
                lanes: LANES,
                designs: batched_designs,
                min_comb_speedup,
                grid_before: grid,
                grid_after,
            },
        },
    );
    flush_results(&writer);

    // Criterion timings for the hot kernels themselves.
    let comb = design_of("adder4_cla");
    let comb_inputs: Vec<(String, u32)> = comb
        .inputs()
        .iter()
        .map(|n| ((*n).to_owned(), comb.width(n).unwrap_or(1)))
        .collect();
    let mut comb_sim = Simulator::new(comb).expect("initializes");
    c.bench_function("compiled_comb_100_cycles", |b| {
        b.iter(|| {
            drive_cycles(&mut comb_sim, &comb_inputs, None, 100);
            black_box(comb_sim.peek("sum"))
        })
    });

    let clocked = design_of("memory_16x8");
    let clocked_inputs: Vec<(String, u32)> = clocked
        .inputs()
        .iter()
        .filter(|n| *n != &"clk")
        .map(|n| ((*n).to_owned(), clocked.width(n).unwrap_or(1)))
        .collect();
    let mut clocked_sim = Simulator::new(clocked).expect("initializes");
    c.bench_function("compiled_clocked_100_cycles", |b| {
        b.iter(|| {
            drive_cycles(&mut clocked_sim, &clocked_inputs, Some("clk"), 100);
            black_box(clocked_sim.peek("data_out"))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sim_throughput
}

fn main() {
    benches();
    Criterion::default().final_summary();
}
