//! Golden snapshot tests for the `repro-table1` / `repro-table2`
//! experiments: the reproduced tables are serialized to JSON and compared
//! byte-for-byte against committed fixtures under `tests/golden/`, so any
//! change to the estimators, the synthesizer, or the place & route
//! substrate that shifts a reproduced number shows up as a reviewable
//! fixture diff. A third fixture pins the two slicing annealers
//! themselves: every floorplan backend's placements over the Table 1/2
//! blocks, and the synthesizer's tile placements for the Table 1
//! circuits. A fourth pins the same backends over the shootout's
//! generated cases, whose longer shape curves tie often in width and
//! height.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p maestro-bench --test golden_tables
//! ```

use std::path::PathBuf;

use maestro::floorplan::backend::registry;
use maestro::floorplan::shootout::paper_cases;
use maestro::floorplan::PlanParams;
use maestro::fullcustom::{synthesize, SynthesisParams};
use maestro::geom::Rect;
use maestro::netlist::{library_circuits, DeviceId};
use maestro::tech::builtin;
use maestro_bench::{table1, table2};
use serde::Serialize;

fn golden_path(name: &str) -> PathBuf {
    // Fixtures live with the workspace-level test suites, not the crate.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("../../tests/golden");
    p.push(name);
    p
}

fn assert_matches_golden<T: Serialize>(name: &str, snapshot: &T) {
    let path = golden_path(name);
    let mut pretty = serde_json::to_string_pretty(snapshot).expect("snapshot serializes");
    pretty.push('\n');
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("fixture dir");
        std::fs::write(&path, &pretty).expect("fixture written");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected, pretty,
        "{name} drifted from its committed fixture; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[derive(Serialize)]
struct Table1Row {
    experiment: usize,
    name: String,
    devices: usize,
    nets: usize,
    ports: usize,
    device_area: i64,
    wire_exact: i64,
    wire_average: i64,
    total_exact: i64,
    total_average: i64,
    real_area: i64,
    aspect_exact: String,
    aspect_average: String,
    real_aspect: String,
}

#[derive(Serialize)]
struct Table1Snapshot {
    rows: Vec<Table1Row>,
}

#[test]
fn table1_matches_golden_fixture() {
    let rows = table1::rows()
        .iter()
        .map(|r| Table1Row {
            experiment: r.experiment,
            name: r.name.clone(),
            devices: r.devices,
            nets: r.nets,
            ports: r.ports,
            device_area: r.device_area.get(),
            wire_exact: r.wire_exact.get(),
            wire_average: r.wire_average.get(),
            total_exact: r.total_exact.get(),
            total_average: r.total_average.get(),
            real_area: r.real_area.get(),
            aspect_exact: r.aspect_exact.to_string(),
            aspect_average: r.aspect_average.to_string(),
            real_aspect: r.real_aspect.to_string(),
        })
        .collect();
    assert_matches_golden("table1.json", &Table1Snapshot { rows });
}

#[derive(Serialize)]
struct Table2Row {
    experiment: usize,
    name: String,
    rows: u32,
    devices: usize,
    ports: usize,
    est_height: i64,
    est_width: i64,
    tracks_estimated: u32,
    tracks_real: u32,
    est_area: i64,
    real_area: i64,
    est_aspect: String,
    real_aspect: String,
}

#[derive(Serialize)]
struct Table2Snapshot {
    rows: Vec<Table2Row>,
}

#[test]
fn table2_matches_golden_fixture() {
    let rows = table2::rows()
        .iter()
        .map(|r| Table2Row {
            experiment: r.experiment,
            name: r.name.clone(),
            rows: r.rows,
            devices: r.devices,
            ports: r.ports,
            est_height: r.est_height.get(),
            est_width: r.est_width.get(),
            tracks_estimated: r.tracks_estimated,
            tracks_real: r.tracks_real,
            est_area: r.est_area.get(),
            real_area: r.real_area.get(),
            est_aspect: r.est_aspect.to_string(),
            real_aspect: r.real_aspect.to_string(),
        })
        .collect();
    assert_matches_golden("table2.json", &Table2Snapshot { rows });
}

/// One placed rectangle, keyed by block or device name.
#[derive(Serialize)]
struct Placed {
    name: String,
    x: i64,
    y: i64,
    width: i64,
    height: i64,
}

impl Placed {
    fn new(name: &str, r: Rect) -> Placed {
        Placed {
            name: name.to_owned(),
            x: r.origin().x.get(),
            y: r.origin().y.get(),
            width: r.width().get(),
            height: r.height().get(),
        }
    }
}

#[derive(Serialize)]
struct PlanRow {
    params: &'static str,
    case: String,
    backend: String,
    width: i64,
    height: i64,
    placements: Vec<Placed>,
}

#[derive(Serialize)]
struct SynthRow {
    circuit: String,
    width: i64,
    height: i64,
    placements: Vec<Placed>,
}

#[derive(Serialize)]
struct FloorplanSnapshot {
    floorplans: Vec<PlanRow>,
    synthesis: Vec<SynthRow>,
}

/// Every registered backend's floorplan of each shootout case named in
/// `names`, at each labelled parameter setting.
fn plan_rows(names: &[&str], settings: &[(&'static str, PlanParams)]) -> Vec<PlanRow> {
    let cases: Vec<_> = paper_cases()
        .expect("shootout suite builds")
        .into_iter()
        .filter(|c| names.contains(&c.name.as_str()))
        .collect();
    let mut floorplans = Vec::new();
    for (label, params) in settings {
        for case in &cases {
            for backend in registry(params) {
                let plan = backend.plan(&case.blocks, Some(&case.netlist)).plan;
                floorplans.push(PlanRow {
                    params: label,
                    case: case.name.clone(),
                    backend: backend.name().to_owned(),
                    width: plan.width().get(),
                    height: plan.height().get(),
                    placements: plan
                        .placements()
                        .iter()
                        .map(|(name, r)| Placed::new(name, *r))
                        .collect(),
                });
            }
        }
    }
    floorplans
}

#[test]
fn floorplans_and_tile_placements_match_golden_fixture() {
    let settings = [
        ("default", PlanParams::default()),
        (
            "aspect1.5_replicas3",
            PlanParams {
                replicas: 3,
                ..PlanParams::default().with_aspect_limit(1.5)
            },
        ),
    ];
    let floorplans = plan_rows(&["table1", "table2"], &settings);

    let tech = builtin::nmos25();
    let synthesis = library_circuits::table1_suite()
        .iter()
        .map(|m| {
            let layout = synthesize(m, &tech, &SynthesisParams::default()).expect("synthesizes");
            SynthRow {
                circuit: m.name().to_owned(),
                width: layout.width().get(),
                height: layout.height().get(),
                placements: layout
                    .placements()
                    .iter()
                    .enumerate()
                    .map(|(i, r)| Placed::new(m.device(DeviceId::new(i as u32)).name(), *r))
                    .collect(),
            }
        })
        .collect();
    assert_matches_golden(
        "floorplan.json",
        &FloorplanSnapshot {
            floorplans,
            synthesis,
        },
    );
}

#[derive(Serialize)]
struct GeneratedFloorplanSnapshot {
    floorplans: Vec<PlanRow>,
}

/// The shootout's larger cases: more blocks, and longer shape curves
/// with many equal widths and heights, than the Table 1/2 cases above.
#[test]
fn generated_floorplans_match_golden_fixture() {
    let floorplans = plan_rows(
        &["table1+2", "gen-adders", "gen-soft24"],
        &[("default", PlanParams::default())],
    );
    assert_matches_golden(
        "floorplan_generated.json",
        &GeneratedFloorplanSnapshot { floorplans },
    );
}
