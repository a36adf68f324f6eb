//! The harness's own checks: the tail rule, failure counting, seed
//! determinism and the metric vocabulary against `BENCHMARK.json`.

use maestro::estimator::request::Response;
use maestro::estimator::request::{EstimateRequest, Request, RequestCall};
use maestro::netlist::mnl;
use perfbench::check::{chip_reference, digest, OneShot};
use perfbench::inputs::{chip_stream_design, probe_mnl, ClientScript, EcoLoop};
use perfbench::metrics::{response_passes, RunResult, Tally, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::stats::{median, tail, Tail};
use serde::Value;

#[test]
fn tail_is_the_highest_ladder_percentile_with_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&samples).expect("100 samples have a tail");
    assert_eq!(
        t,
        Tail {
            percentile: 90.0,
            value: 90.0,
            samples: 100
        }
    );
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&samples).expect("1000 samples have a tail");
    assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
    let samples: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(tail(&samples).map(|t| t.percentile), Some(95.0));
}

#[test]
fn too_few_samples_have_no_tail() {
    let samples: Vec<f64> = (1..=15).map(f64::from).collect();
    assert_eq!(tail(&samples), None);
    let samples: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(
        tail(&samples).map(|t| (t.percentile, t.samples)),
        Some((50.0, 20))
    );
    assert_eq!(tail(&[]), None);
}

#[test]
fn failed_operations_miss_every_latency_limit() {
    let mut samples: Vec<f64> = vec![1.0; 90];
    samples.extend([f64::INFINITY; 10]);
    assert_eq!(tail(&samples).map(|t| t.value), Some(1.0));
    samples.push(f64::INFINITY);
    assert_eq!(tail(&samples).map(|t| t.value), Some(f64::INFINITY));
    assert_eq!(
        median(&[1.0, f64::INFINITY, f64::INFINITY]),
        Some(f64::INFINITY)
    );
}

#[test]
fn an_error_response_and_a_mismatched_payload_both_count_as_failed() {
    // The serve_mixed check: the first request of a client against its
    // one-shot reference.
    let request = ClientScript::new(3, 0).next_request().request;
    let want = OneShot::new().answer(&request).expect("reference answers");
    let good = Response::ok(request.id.clone(), want.clone()).to_json_line();
    let error = Response::error(request.id.clone(), "injected failure").to_json_line();
    let mut wrong = want.clone();
    wrong.insert(0, ' ');
    let mismatch = Response::ok(request.id.clone(), wrong).to_json_line();
    let mut tally = Tally::default();
    for line in [&good, &error, &mismatch, &"not json".to_owned()] {
        tally.record(response_passes(line, &want));
    }
    assert_eq!(
        tally,
        Tally {
            attempted: 4,
            failed: 3
        }
    );
}

#[test]
fn digest_checks_catch_an_error_response_and_a_mismatch() {
    // The traced replay compares response-line digests with the daemon's.
    let good = Response::ok("c0-7", "payload\n").to_json_line();
    let error = Response::error("c0-7", "injected failure").to_json_line();
    let mismatch = Response::ok("c0-7", "payload \n").to_json_line();
    assert_ne!(digest(error.as_bytes()), digest(good.as_bytes()));
    assert_ne!(digest(mismatch.as_bytes()), digest(good.as_bytes()));
    // The chip_stream check compares stdout digests.
    let reference = chip_reference(&probe_mnl()).expect("reference");
    let mut altered = reference.clone();
    altered[10] ^= 1;
    assert_ne!(digest(&altered), digest(&reference));
}

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    let (a, modules, devices) = chip_stream_design(9);
    let (b, _, _) = chip_stream_design(9);
    assert_eq!(digest(a.as_bytes()), digest(b.as_bytes()));
    assert!(
        modules > 2500 && devices > 290_000,
        "{modules} modules, {devices} devices"
    );
    assert_ne!(
        digest(a.as_bytes()),
        digest(chip_stream_design(10).0.as_bytes())
    );

    for client in 0..2 {
        let mut x = ClientScript::new(9, client);
        let mut y = ClientScript::new(9, client);
        for _ in 0..60 {
            assert_eq!(
                x.next_request().request.to_json_line(),
                y.next_request().request.to_json_line()
            );
        }
    }

    let (mut x, mut y) = (EcoLoop::new(9), EcoLoop::new(9));
    for _ in 0..50 {
        assert_eq!(x.step(), y.step());
        assert_eq!(x.text(), y.text());
    }
    assert_ne!(EcoLoop::new(9).text(), EcoLoop::new(10).text());
}

#[test]
fn serve_clients_use_disjoint_modules_in_a_fixed_mix() {
    // Two whole blocks per client: client 0's blocks carry two ECO rounds
    // each on top of the 20 requests both clients send.
    let mut kinds = std::collections::BTreeMap::new();
    let mut incremental = [0, 0];
    for (client, count) in [(0, 44), (1, 40)] {
        let prefixes: &[&str] = if client == 0 {
            &["c0_", "eco_"]
        } else {
            &["c1_"]
        };
        let mut script = ClientScript::new(4, client);
        for _ in 0..count {
            let scripted = script.next_request();
            let request = scripted.request;
            *kinds.entry(scripted.kind).or_insert(0) += 1;
            let call = if scripted.kind == "eco" {
                "estimate"
            } else {
                scripted.kind
            };
            assert_eq!(request.kind_name(), call);
            if let RequestCall::Estimate(req) = &request.call {
                // ECO rounds, and only they, are incremental.
                assert_eq!(req.incremental, scripted.kind == "eco");
                incremental[client] += usize::from(req.incremental);
            }
            let line = request.to_json_line();
            for name in line.split("module ").skip(1) {
                let name = name.split(';').next().unwrap_or("");
                assert!(prefixes.iter().any(|p| name.starts_with(p)), "{name}");
            }
        }
    }
    assert_eq!(incremental, [4, 0]);
    assert_eq!(kinds["eco"], 4);
    assert_eq!(kinds["estimate"], 60);
    assert_eq!(kinds["layout"], 16);
    assert_eq!(kinds["floorplan"], 4);
}

#[test]
fn eco_edits_keep_every_revision_estimable_and_revisit_versions() {
    let mut eco = EcoLoop::new(2);
    let devices = eco.device_count();
    assert!((3_000..4_500).contains(&devices), "{devices} devices");
    let oneshot = OneShot::new();
    let mut texts = std::collections::BTreeSet::new();
    let mut kinds = std::collections::BTreeSet::new();
    for round in 0..300 {
        kinds.insert(eco.step());
        let text = eco.text();
        let chunks = mnl::split_design(&text).expect("canonical chip");
        assert!((100..=110).contains(&chunks.len()));
        texts.extend(chunks.iter().map(|c| c.to_string()));
        if round % 25 == 0 {
            let request = Request {
                id: format!("r{round}"),
                call: RequestCall::Estimate(EstimateRequest {
                    files: Vec::new(),
                    mnl: vec![text],
                    tech: "nmos".to_owned(),
                    rows: None,
                    jobs: 1,
                    json: true,
                    incremental: true,
                }),
            };
            oneshot.answer(&request).expect("every revision estimates");
        }
    }
    assert_eq!(kinds.len(), 3, "{kinds:?}");
    // 100 modules in four versions each, plus ten spares.
    assert!(texts.len() <= 410, "{} distinct module texts", texts.len());
}

fn benchmark_json() -> Vec<(String, Value)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    match serde_json::from_str::<Value>(&text).expect("valid JSON") {
        Value::Object(fields) => fields,
        other => panic!("BENCHMARK.json is not an object: {other:?}"),
    }
}

fn field<'v>(fields: &'v [(String, Value)], key: &str) -> &'v Value {
    serde::find_field(fields, key).unwrap_or_else(|| panic!("missing `{key}`"))
}

fn strings(value: &Value, key: &str) -> Vec<String> {
    match value {
        Value::Object(f) => match field(f, key) {
            Value::Str(s) => vec![s.clone()],
            other => panic!("`{key}` is not a string: {other:?}"),
        },
        other => panic!("not an object: {other:?}"),
    }
}

fn entries(fields: &[(String, Value)], key: &str) -> Vec<Value> {
    match field(fields, key) {
        Value::Array(items) => items.clone(),
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let json = benchmark_json();
    let workloads: Vec<String> = entries(&json, "workloads")
        .iter()
        .flat_map(|w| strings(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String, String)> = entries(&json, key)
            .iter()
            .map(|m| {
                (
                    strings(m, "name").remove(0),
                    strings(m, "unit").remove(0),
                    strings(m, "better").remove(0),
                )
            })
            .collect();
        let ours: Vec<(String, String, String)> = defs
            .iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()))
            .collect();
        assert_eq!(listed, ours, "{key}");
    }
    // The result line carries exactly those names, with their units.
    let result = RunResult {
        correct: true,
        tally: Tally {
            attempted: 1,
            failed: 0,
        },
        metrics: END_TO_END.iter().map(|d| (d.name, 1.5)).collect(),
    };
    let line = result.to_json_line(END_TO_END);
    let parsed: Value = serde_json::from_str(&line).expect("result line is JSON");
    let fields = parsed.as_object().expect("object");
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = field(fields, "metrics")
        .as_object()
        .expect("metrics object");
    for (def, (name, value)) in END_TO_END.iter().zip(metrics) {
        assert_eq!(name, def.name);
        assert_eq!(strings(value, "unit"), [def.unit]);
    }
}
