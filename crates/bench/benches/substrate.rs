//! Benchmarks the substrate crates: Verilog parsing/printing/checking and
//! RTL simulation throughput. Not a paper figure — the numbers document that
//! the reproduction's substrates are fast enough for the sweep experiments.

use criterion::{criterion_group, Criterion};
use rtlb_corpus::families::all_designs;
use rtlb_sim::{elaborate, IoSpec, Simulator, Stimulus};
use rtlb_verilog::{check_module, parse_module, print_module};
use std::hint::black_box;

fn bench_substrates(c: &mut Criterion) {
    let designs = all_designs();
    let sources: Vec<String> = designs.iter().map(|d| d.source.clone()).collect();

    c.bench_function("parse_all_family_sources", |b| {
        b.iter(|| {
            for s in &sources {
                black_box(parse_module(black_box(s)).expect("family sources parse"));
            }
        })
    });

    let modules: Vec<_> = sources.iter().map(|s| parse_module(s).unwrap()).collect();
    c.bench_function("print_all_family_modules", |b| {
        b.iter(|| {
            for m in &modules {
                black_box(print_module(black_box(m)));
            }
        })
    });

    c.bench_function("check_all_family_modules", |b| {
        b.iter(|| {
            for m in &modules {
                black_box(check_module(black_box(m), std::slice::from_ref(m)).expect("checks"));
            }
        })
    });

    // Simulation throughput: 100 cycles of the paper's memory unit. The
    // design is compiled once; each iteration only pays fresh-state reset
    // plus simulation, the evaluation grid's steady-state cost.
    let memory = designs
        .iter()
        .find(|d| d.variant == "memory_16x8")
        .expect("memory family exists");
    let top = memory.module();
    let design = elaborate(&top, std::slice::from_ref(&top)).expect("elaborates");
    let compiled = std::sync::Arc::new(rtlb_sim::compile(&design).expect("compiles"));
    c.bench_function("simulate_memory_100_cycles", |b| {
        b.iter(|| {
            let mut sim =
                Simulator::from_compiled(std::sync::Arc::clone(&compiled)).expect("initializes");
            sim.poke("write_en", 1).expect("poke");
            for i in 0..100u64 {
                sim.poke("address", i & 0xFF).expect("poke");
                sim.poke("data_in", i).expect("poke");
                sim.tick("clk").expect("tick");
            }
            black_box(sim.peek("data_out"))
        })
    });

    // Random-stimulus generation for the harness: one dense trial (64 random
    // rows plus the two corner rows).
    let io = IoSpec::clocked("clk");
    c.bench_function("random_stimulus_64_cycles", |b| {
        b.iter(|| Stimulus::random(black_box(&design), &io, 64, &[42]))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_substrates
}

fn main() {
    benches();
    Criterion::default().final_summary();
}
