//! Differential proof of the placement's incremental (delta) cost
//! evaluator on modules shaped like the daemon's `layout` traffic: seeded
//! random logic of 20 to 80 gates under the default schedule, at one to
//! four rows and with two replicas. Every placement must equal the
//! full-refresh reference's bit for bit — same RNG draws, same
//! accept/reject decisions, same rows.

use maestro_netlist::generate::{random_logic, RandomLogicConfig};
use maestro_netlist::Module;
use maestro_place::placement::place_full_refresh;
use maestro_place::{place, PlaceParams};
use maestro_tech::builtin;

fn gates(seed: u64, devices: usize) -> Module {
    random_logic(
        seed,
        &RandomLogicConfig {
            device_count: devices,
            input_count: (devices / 8).clamp(4, 24),
            ..RandomLogicConfig::default()
        },
    )
}

fn assert_identical(m: &Module, params: &PlaceParams) {
    let tech = builtin::nmos25();
    let delta = place(m, &tech, params).unwrap();
    let full = place_full_refresh(m, &tech, params).unwrap();
    assert_eq!(
        delta,
        full,
        "{} diverged from the reference path at rows={} replicas={}",
        m.name(),
        params.rows,
        params.replicas
    );
}

#[test]
fn delta_and_full_refresh_place_identical_random_logic() {
    for (seed, devices) in [(20, 20), (44, 44), (80, 80)] {
        let m = gates(seed, devices);
        for rows in 1..=4 {
            let params = PlaceParams {
                rows,
                ..PlaceParams::default()
            };
            assert_identical(&m, &params);
        }
    }
}

#[test]
fn replica_runs_keep_delta_and_full_refresh_placements_identical() {
    for (seed, devices) in [(20, 20), (44, 44), (80, 80)] {
        let params = PlaceParams {
            replicas: 2,
            ..PlaceParams::default()
        };
        assert_identical(&gates(seed, devices), &params);
    }
}
