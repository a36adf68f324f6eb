//! Integration tests for the observability layer: span nesting through a
//! real pipeline run, counter aggregation across `run_all_parallel`
//! worker threads, and perf-report folding consistency.
//!
//! The trace sink is process-global, so every test goes through
//! `trace::with_sink`, which serializes concurrent scopes internally.

use std::sync::Arc;

use maestro::estimator::pipeline::Pipeline;
use maestro::netlist::{generate, library_circuits};
use maestro::tech::builtin;
use maestro::trace;
use maestro::trace::report::{fold, PerfReport};

fn modules() -> Vec<maestro::netlist::Module> {
    vec![
        generate::ripple_adder(2),
        generate::counter(3),
        generate::counter(4),
        library_circuits::pass_chain(4),
        generate::shift_register(5),
        library_circuits::nmos_full_adder(),
    ]
}

#[test]
fn serial_run_nests_module_spans_under_the_batch() {
    let collector = Arc::new(trace::Collector::new());
    let modules = modules();
    trace::with_sink(collector.clone(), || {
        let p = Pipeline::new(builtin::nmos25());
        p.run_all(modules.iter()).expect("estimates");
    });
    let spans = collector.spans();
    let batch = spans
        .iter()
        .find(|s| s.name == "pipeline.run_all")
        .expect("batch span");
    assert!(batch.detail.starts_with("serial"), "{:?}", batch.detail);
    let module_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "pipeline.module")
        .collect();
    assert_eq!(module_spans.len(), modules.len());
    for m in &module_spans {
        assert_eq!(m.parent, batch.id, "{} nests under the batch", m.detail);
    }
    // Estimate-style spans nest under their module span.
    for style in ["estimate.standard_cell", "estimate.full_custom"] {
        for s in spans.iter().filter(|s| s.name == style) {
            assert!(
                module_spans.iter().any(|m| m.id == s.parent),
                "{style} span must parent to a module span"
            );
        }
    }
    // Spans arrive in completion order: every child precedes its parent.
    for (i, s) in spans.iter().enumerate() {
        if let Some(pos) = spans.iter().position(|p| p.id == s.parent) {
            assert!(pos > i, "span {} completed after its parent", s.name);
        }
    }
    // One detail per module, matching the module names.
    let details: Vec<&str> = module_spans.iter().map(|m| m.detail.as_str()).collect();
    for m in &modules {
        assert!(details.contains(&m.name()), "missing span for {}", m.name());
    }
}

#[test]
fn parallel_run_attributes_workers_and_matches_serial_counters() {
    let modules = modules();
    let serial = Arc::new(trace::Collector::new());
    trace::with_sink(serial.clone(), || {
        let p = Pipeline::new(builtin::nmos25());
        p.run_all(modules.iter()).expect("estimates");
    });
    let parallel = Arc::new(trace::Collector::new());
    trace::with_sink(parallel.clone(), || {
        // Threshold 0 guarantees the fan-out path regardless of how few
        // nets the fixture modules carry.
        let p = Pipeline::new(builtin::nmos25()).with_parallel_threshold(0);
        p.run_all_parallel(modules.iter(), 4).expect("estimates");
    });

    // Counters aggregate identically regardless of threading.
    assert!(serial.counter_total("estimate.nets") > 0);
    assert_eq!(
        serial.counter_total("estimate.nets"),
        parallel.counter_total("estimate.nets"),
    );

    let spans = parallel.spans();
    let batch = spans
        .iter()
        .find(|s| s.name == "pipeline.run_all")
        .expect("batch span");
    assert!(batch.detail.contains("jobs=4"), "{:?}", batch.detail);
    let workers: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "pipeline.worker")
        .collect();
    assert_eq!(workers.len(), 4);
    for w in &workers {
        assert_eq!(w.parent, batch.id, "workers parent to the batch span");
        assert!(w.thread.starts_with("worker-"), "{:?}", w.thread);
    }
    // Every module span runs inside some worker and is attributed to that
    // worker's thread label.
    for m in spans.iter().filter(|s| s.name == "pipeline.module") {
        let worker = workers
            .iter()
            .find(|w| w.id == m.parent)
            .unwrap_or_else(|| panic!("module {} has no worker parent", m.detail));
        assert_eq!(m.thread, worker.thread);
    }
}

#[test]
fn tiny_parallel_batch_takes_the_serial_path() {
    // Regression guard for the work-size threshold: a batch with fewer
    // total nets than the default threshold must not spawn workers even
    // when many jobs are requested.
    let modules = [generate::ripple_adder(2), library_circuits::pass_chain(4)];
    let total_nets: usize = modules.iter().map(|m| m.net_count()).sum();
    assert!(
        total_nets < maestro::estimator::pipeline::DEFAULT_PARALLEL_NET_THRESHOLD,
        "fixture must stay tiny, has {total_nets} nets"
    );
    let collector = Arc::new(trace::Collector::new());
    trace::with_sink(collector.clone(), || {
        let p = Pipeline::new(builtin::nmos25());
        p.run_all_parallel(modules.iter(), 8).expect("estimates");
    });
    let spans = collector.spans();
    let batch = spans
        .iter()
        .find(|s| s.name == "pipeline.run_all")
        .expect("batch span");
    assert!(
        batch.detail.starts_with("serial"),
        "small batch must fall back to serial, got {:?}",
        batch.detail
    );
    assert!(
        !spans.iter().any(|s| s.name == "pipeline.worker"),
        "no workers may spawn below the threshold"
    );
}

#[test]
fn replica_annealing_attributes_each_walk_to_its_thread() {
    use maestro::prelude::*;
    let m = generate::ripple_adder(4);
    assert!(
        m.net_count() >= maestro::place::DEFAULT_REPLICA_WORK_THRESHOLD,
        "fixture must be big enough to take the threaded replica path, \
         has {} nets",
        m.net_count()
    );
    let collector = Arc::new(trace::Collector::new());
    trace::with_sink(collector.clone(), || {
        place(
            &m,
            &builtin::nmos25(),
            &PlaceParams {
                rows: 2,
                replicas: 3,
                schedule: maestro::place::AnnealSchedule::quick(),
                ..PlaceParams::default()
            },
        )
        .expect("places");
    });
    let spans = collector.spans();
    let set = spans
        .iter()
        .find(|s| s.name == "anneal.replica_set")
        .expect("replica set span");
    assert_eq!(set.detail, "replicas=3");
    let replicas: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "anneal.replica")
        .collect();
    assert_eq!(replicas.len(), 3);
    let mut threads: Vec<&str> = replicas.iter().map(|r| r.thread.as_str()).collect();
    threads.sort_unstable();
    assert_eq!(
        threads,
        ["replica-0", "replica-1", "replica-2"],
        "each walk runs on its own labeled thread"
    );
    for r in &replicas {
        assert_eq!(r.parent, set.id, "replica walks parent to the set span");
        assert_eq!(
            r.detail,
            format!("replica={}", &r.thread["replica-".len()..])
        );
    }
    // The inner anneal spans run inside the replica walks and inherit
    // their thread attribution — this is what lets perf-report break the
    // anneal stage down per replica.
    let inner: Vec<_> = spans.iter().filter(|s| s.name == "anneal").collect();
    assert_eq!(inner.len(), 3, "one anneal walk per replica");
    for a in &inner {
        let walk = replicas
            .iter()
            .find(|r| r.id == a.parent)
            .expect("anneal nests under a replica walk");
        assert_eq!(a.thread, walk.thread);
    }
    assert_eq!(collector.counter_total("anneal.replicas"), 3);
    let best = collector.counter_total("anneal.replica_best");
    assert!(best < 3, "winning index {best} must name a replica");
    // Folding the trace yields per-replica rows for the report.
    let report = fold(&collector.events(), "t");
    for r in 0..3 {
        let name = format!("anneal.replica@replica-{r}");
        assert!(
            report.stages.iter().any(|s| s.name == name),
            "missing stage {name}"
        );
    }
}

#[test]
fn a_single_walk_runs_inline_under_one_replica_span() {
    use maestro::prelude::*;
    let m = generate::ripple_adder(4);
    assert!(
        m.net_count() >= maestro::place::DEFAULT_REPLICA_WORK_THRESHOLD,
        "fixture must be above the work threshold, has {} nets",
        m.net_count()
    );
    let collector = Arc::new(trace::Collector::new());
    trace::with_sink(collector.clone(), || {
        place(
            &m,
            &builtin::nmos25(),
            &PlaceParams {
                rows: 2,
                replicas: 1,
                schedule: maestro::place::AnnealSchedule::quick(),
                ..PlaceParams::default()
            },
        )
        .expect("places");
    });
    let spans = collector.spans();
    let place_span = spans.iter().find(|s| s.name == "place").expect("place");
    let sets: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "anneal.replica_set")
        .collect();
    assert_eq!(sets.len(), 1, "one replica set");
    assert_eq!(sets[0].detail, "replicas=1");
    let walks: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "anneal.replica")
        .collect();
    assert_eq!(walks.len(), 1, "one walk");
    let walk = walks[0];
    assert_eq!(walk.parent, sets[0].id);
    assert_eq!(walk.detail, "replica=0");
    assert_eq!(
        walk.thread, place_span.thread,
        "the walk runs on the calling thread"
    );
    assert!(
        !spans.iter().any(|s| s.thread.starts_with("replica-")),
        "no thread takes a replica label"
    );
    let inner: Vec<_> = spans.iter().filter(|s| s.name == "anneal").collect();
    assert_eq!(inner.len(), 1);
    assert_eq!(inner[0].parent, walk.id, "anneal nests under the walk");
    assert_eq!(collector.counter_total("anneal.replicas"), 1);
    assert_eq!(collector.counter_total("anneal.replica_best"), 0);
}

#[test]
fn folded_report_self_times_telescope_to_the_root() {
    // Self times partition the root duration on a serial batch. Worker
    // threads overlap in wall time, so on a 2-worker batch `work_us` lands
    // between the root duration and the root duration × thread count (the
    // `PerfReport::work_us` contract). With one thread both bounds are
    // the root, which makes the serial check exact.
    for jobs in [1, 2] {
        let collector = Arc::new(trace::Collector::new());
        let modules = modules();
        trace::with_sink(collector.clone(), || {
            let _root = trace::span("cli.estimate");
            let p = Pipeline::new(builtin::nmos25()).with_parallel_threshold(0);
            p.run_all_parallel(modules.iter(), jobs).expect("estimates");
        });
        let events = collector.events();
        let report = fold(&events, "test");

        let root = report
            .stages
            .iter()
            .find(|s| s.name == "cli.estimate")
            .expect("root stage");
        assert_eq!(root.count, 1);
        assert_eq!(
            report.wall_us, root.total_us,
            "the root span covers the whole trace"
        );
        let mut threads: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                trace::Event::Span { thread, .. } => Some(thread.as_str()),
                _ => None,
            })
            .collect();
        threads.sort_unstable();
        threads.dedup();
        // The calling thread, plus one per worker on the parallel batch.
        let expected = if jobs == 1 { 1 } else { 1 + jobs };
        assert_eq!(threads.len(), expected, "jobs={jobs}: threads {threads:?}");
        // Each span's start/duration is truncated to whole µs
        // independently, so allow 1 µs of slack per span.
        let spans = events
            .iter()
            .filter(|e| matches!(e, trace::Event::Span { .. }))
            .count() as u64;
        let (low, high) = (root.total_us, root.total_us * threads.len() as u64);
        assert!(
            report.work_us + spans >= low && report.work_us <= high + spans,
            "jobs={jobs}: work {} µs must lie within root {low}..={high} µs (±{spans})",
            report.work_us,
        );
    }
}

#[test]
fn report_roundtrips_through_json_lines() {
    let collector = Arc::new(trace::Collector::new());
    trace::with_sink(collector.clone(), || {
        let _root = trace::span("cli.estimate");
        let p = Pipeline::new(builtin::nmos25());
        p.run_all(modules().iter()).expect("estimates");
    });
    let events = collector.events();
    let text: String = events
        .iter()
        .map(|e| format!("{}\n", e.to_json_line()))
        .collect();
    let direct = fold(&events, "rt");
    let parsed = PerfReport::from_trace(&text, "rt").expect("trace parses");
    assert_eq!(direct, parsed, "folding after JSONL round-trip is lossless");
    assert!(parsed.counters.contains_key("prob.hits"));
    assert!(parsed.counters.contains_key("prob.misses"));
    assert!(
        parsed.counters["prob.hits"] > 0,
        "gate-level modules hit the cache"
    );
}

#[test]
fn layout_stages_emit_spans_and_counters() {
    use maestro::prelude::*;
    let collector = Arc::new(trace::Collector::new());
    trace::with_sink(collector.clone(), || {
        let tech = builtin::nmos25();
        let m = generate::ripple_adder(2);
        let placed = place(
            &m,
            &tech,
            &PlaceParams {
                rows: 2,
                schedule: maestro::place::AnnealSchedule::quick(),
                ..PlaceParams::default()
            },
        )
        .expect("places");
        let _routed = route(&placed);
        let fc = library_circuits::pass_chain(3);
        synthesize(&fc, &tech, &SynthesisParams::quick()).expect("synthesizes");
    });
    let names = collector.span_names();
    for expected in ["place", "anneal", "route", "fullcustom.synthesize"] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing span {expected}: {names:?}"
        );
    }
    let moves =
        collector.counter_total("anneal.accepted") + collector.counter_total("anneal.rejected");
    assert!(moves > 0, "annealer must tally its moves");
    assert!(collector.counter_total("route.channels") > 0);
    assert!(collector.counter_total("route.tracks") > 0);
    assert!(collector.counter_total("fullcustom.devices") > 0);
    // The anneal runs inside place/synthesize record their schedule.
    let has_temp = collector
        .events()
        .iter()
        .any(|e| matches!(e, trace::Event::Metric { name, .. } if name == "anneal.temp_final"));
    assert!(has_temp, "temperature schedule metrics missing");
}

#[test]
fn floorplan_iteration_emits_convergence_counters() {
    use maestro::floorplan::iterate::{converge, ModuleTruth};
    use maestro::floorplan::PlanParams;
    use maestro::geom::{Lambda, LambdaArea};
    let collector = Arc::new(trace::Collector::new());
    let modules = vec![
        ModuleTruth {
            name: "a".to_owned(),
            estimated: LambdaArea::new(2000), // 4900 true: way off
            true_width: Lambda::new(70),
            true_height: Lambda::new(70),
        },
        ModuleTruth {
            name: "b".to_owned(),
            estimated: LambdaArea::new(2500), // exact
            true_width: Lambda::new(50),
            true_height: Lambda::new(50),
        },
    ];
    let outcome = trace::with_sink(collector.clone(), || {
        converge(&modules, 0.15, &PlanParams::quick())
    });
    assert_eq!(
        collector.counter_total("floorplan.iterations"),
        u64::from(outcome.iterations)
    );
    let spans = collector.spans();
    let converge_span = spans
        .iter()
        .find(|s| s.name == "floorplan.converge")
        .expect("converge span");
    let plans: Vec<_> = spans.iter().filter(|s| s.name == "floorplan").collect();
    assert_eq!(
        plans.len() as u32,
        outcome.iterations,
        "one plan span per iteration"
    );
    for p in &plans {
        assert_eq!(p.parent, converge_span.id);
    }
    assert_eq!(
        collector.counter_total("floorplan.blocks"),
        u64::from(outcome.iterations) * modules.len() as u64
    );
}
