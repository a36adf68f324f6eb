//! E4: estimator runtime scaling with module size — the "modest amount of
//! computer time" claim quantified. Sweeps synthetic modules from 25 to
//! 800 gates, then times a 96-module batch through the estimation engine:
//! the seed-style uncached serial loop vs the memoized kernel, serial and
//! fanned out over worker threads.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maestro::estimator::multi_aspect::{
    sc_candidates_uncached, sc_candidates_using, DEFAULT_CANDIDATES,
};
use maestro::estimator::pipeline::Pipeline;
use maestro::estimator::prob::ProbTable;
use maestro::estimator::standard_cell::{self, ScParams};
use maestro::netlist::chip::{ChipFamily, ChipSpec};
use maestro::netlist::generate::{self, RandomLogicConfig};
use maestro::prelude::*;

fn bench_scaling(c: &mut Criterion) {
    let tech = builtin::nmos25();
    let mut group = c.benchmark_group("scaling/standard_cell_estimate");
    for &n in &[25usize, 50, 100, 200, 400, 800] {
        let cfg = RandomLogicConfig {
            device_count: n,
            input_count: (n / 8).max(4),
            ..RandomLogicConfig::default()
        };
        let module = generate::random_logic(1988, &cfg);
        let stats =
            NetlistStats::resolve(&module, &tech, LayoutStyle::StandardCell).expect("resolves");
        group.bench_with_input(BenchmarkId::from_parameter(n), &stats, |b, s| {
            b.iter(|| standard_cell::estimate(s, &tech, &ScParams::default()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("scaling/full_custom_estimate");
    for &gates in &[10usize, 25, 50, 100, 200] {
        let module = generate::random_nmos_logic(1988, gates);
        let stats =
            NetlistStats::resolve(&module, &tech, LayoutStyle::FullCustom).expect("resolves");
        group.bench_with_input(BenchmarkId::from_parameter(gates), &stats, |b, s| {
            b.iter(|| full_custom::estimate(s, &tech))
        });
    }
    group.finish();
}

/// A 96-module chip-scale batch: register-heavy modules (wide clock and
/// reset fan-outs, the expensive Eq. 2 inputs) mixed with random logic,
/// sizes spread so cheap and expensive modules interleave across workers.
fn batch_modules() -> Vec<Module> {
    (0..96u64)
        .map(|seed| {
            let step = (seed / 4) as usize;
            match seed % 4 {
                0 => generate::shift_register(256 * (1 + step % 4)),
                1 => generate::counter(16 + (step % 5) * 16),
                2 => generate::shift_register(64 + (step % 4) * 64),
                _ => {
                    let cfg = RandomLogicConfig {
                        device_count: 60 + (step % 7) * 40,
                        input_count: 8,
                        ..RandomLogicConfig::default()
                    };
                    generate::random_logic(seed, &cfg)
                }
            }
        })
        .collect()
}

fn bench_batch(c: &mut Criterion) {
    let tech = builtin::nmos25();
    let modules = batch_modules();

    // The estimation stage in isolation (stats pre-resolved once): this is
    // the work the memoized kernel replaces — the seed path rebuilds every
    // Eq. 2 distribution per net class per row count, the table computes
    // each distinct (rows, k) pair once for the whole batch.
    let resolved: Vec<_> = modules
        .iter()
        .map(|m| {
            NetlistStats::resolve(m, &tech, LayoutStyle::StandardCell)
                .expect("batch modules are gate-level")
        })
        .collect();
    let mut group = c.benchmark_group("batch/96_modules_estimation_stage");
    group.bench_function("seed_uncached", |b| {
        b.iter(|| {
            resolved
                .iter()
                .map(|stats| {
                    let rows = standard_cell::initial_rows(stats, &tech);
                    let primary = standard_cell::estimate_with_rows_uncached(stats, &tech, rows);
                    let sweep = sc_candidates_uncached(stats, &tech, DEFAULT_CANDIDATES);
                    (primary, sweep)
                })
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("cached", |b| {
        b.iter(|| {
            // A fresh table per iteration: the measurement includes
            // populating the memo, not just serving warm hits.
            let table = ProbTable::new();
            resolved
                .iter()
                .map(|stats| {
                    let rows = standard_cell::initial_rows(stats, &tech);
                    let primary =
                        standard_cell::estimate_with_rows_using(stats, &tech, rows, &table);
                    let sweep = sc_candidates_using(
                        stats,
                        &tech,
                        DEFAULT_CANDIDATES,
                        &ScParams::default(),
                        &table,
                    );
                    (primary, sweep)
                })
                .collect::<Vec<_>>()
        })
    });
    group.finish();

    // End to end through the pipeline (resolve + estimate + record),
    // serial vs worker threads. Thread scaling tracks the machine's core
    // count; on a single-core host the parallel rows measure pure
    // scheduling overhead.
    let mut group = c.benchmark_group("batch/96_modules_end_to_end");
    group.bench_function("seed_uncached_serial", |b| {
        b.iter(|| {
            // Mirrors Pipeline::run_module per module: resolve under both
            // styles, primary estimate, candidate sweep — with the seed's
            // uncached kernel.
            modules
                .iter()
                .map(|m| {
                    let stats = NetlistStats::resolve(m, &tech, LayoutStyle::StandardCell)
                        .expect("batch modules are gate-level");
                    let rows = standard_cell::initial_rows(&stats, &tech);
                    let primary = standard_cell::estimate_with_rows_uncached(&stats, &tech, rows);
                    let sweep = sc_candidates_uncached(&stats, &tech, DEFAULT_CANDIDATES);
                    let fc = NetlistStats::resolve(m, &tech, LayoutStyle::FullCustom).ok();
                    (primary, sweep, fc)
                })
                .collect::<Vec<_>>()
        })
    });
    // Fresh prob table AND stats cache per iteration: each sample measures
    // a cold batch, not the process-wide memo warming across iterations.
    group.bench_function("cached_serial", |b| {
        b.iter(|| {
            let pipeline = Pipeline::new(tech.clone())
                .with_prob_table(Arc::new(ProbTable::new()))
                .with_stats_cache(Arc::new(StatsCache::new()));
            pipeline.run_all(modules.iter()).expect("batch estimates")
        })
    });
    for jobs in [2usize, 8] {
        group.bench_function(format!("cached_parallel_{jobs}_jobs"), |b| {
            b.iter(|| {
                let pipeline = Pipeline::new(tech.clone())
                    .with_prob_table(Arc::new(ProbTable::new()))
                    .with_stats_cache(Arc::new(StatsCache::new()));
                pipeline
                    .run_all_parallel(modules.iter(), jobs)
                    .expect("batch estimates")
            })
        });
    }
    // The resolve-once path this PR adds: same batch, one warm shared
    // cache, so only the estimation math is left per iteration.
    group.bench_function("cached_serial_warm_resolve", |b| {
        let cache = Arc::new(StatsCache::new());
        b.iter(|| {
            let pipeline = Pipeline::new(tech.clone())
                .with_prob_table(Arc::new(ProbTable::new()))
                .with_stats_cache(Arc::clone(&cache));
            pipeline.run_all(modules.iter()).expect("batch estimates")
        })
    });
    group.finish();
}

/// Whole generated chips through the memory-bounded streaming path, one
/// row per decade of device count: generation, resolve, estimation and
/// in-order emission all inside the measurement, with cold caches per
/// iteration so the resolve stage is exercised at scale.
fn bench_device_scale(c: &mut Criterion) {
    let tech = builtin::nmos25();
    let quick = std::env::var_os("CRITERION_QUICK").is_some();
    let mut group = c.benchmark_group("scaling/streaming_device_count");
    for &devices in &[10_000usize, 100_000, 1_000_000] {
        if quick && devices > 100_000 {
            // Not a silent cap: the full (non-quick) suite runs this row.
            eprintln!(
                "scaling/streaming_device_count: skipping the {devices}-device row \
                 under CRITERION_QUICK"
            );
            continue;
        }
        let spec = ChipSpec::new(ChipFamily::Mixed, devices).expect("valid chip spec");
        group.bench_with_input(BenchmarkId::from_parameter(devices), &spec, |b, spec| {
            b.iter(|| {
                let pipeline = Pipeline::new(tech.clone())
                    .with_prob_table(Arc::new(ProbTable::new()))
                    .with_stats_cache(Arc::new(StatsCache::new()));
                let mut records = 0usize;
                let summary = pipeline
                    .run_all_streaming(spec.modules(), 4, |_rec| {
                        records += 1;
                        Ok(())
                    })
                    .expect("chip streams");
                assert_eq!(records, spec.module_count());
                summary
            })
        });
    }
    group.finish();
}

/// Replica-parallel annealing: the same placement problem annealed with a
/// single walk vs a best-of fan-out of independently seeded walks. On a
/// multi-core host the replica row approaches the single-walk time (the
/// walks run concurrently on their own threads); on one core it measures
/// the serial cost of running every walk back to back — the multi-core
/// fan-out measurement the PR 4 roadmap left open.
fn bench_replicas(c: &mut Criterion) {
    let tech = builtin::nmos25();
    let module = generate::counter(32);
    let mut group = c.benchmark_group("anneal/replica_fanout");
    for &replicas in &[1usize, 4] {
        group.bench_function(format!("place_{replicas}_replicas"), |b| {
            b.iter(|| {
                place(
                    &module,
                    &tech,
                    &PlaceParams {
                        rows: 4,
                        replicas,
                        schedule: maestro::place::AnnealSchedule::quick(),
                        ..PlaceParams::default()
                    },
                )
                .expect("places")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scaling,
    bench_batch,
    bench_device_scale,
    bench_replicas
);
criterion_main!(benches);
