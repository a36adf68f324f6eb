//! Differential proof of the incremental (delta) cost evaluator: the
//! annealed result must be bit-identical to the full-refresh reference
//! for every Table 1 circuit, and for seeded random nMOS logic shaped
//! like the daemon's `layout` traffic, under the default schedule — same
//! RNG draw sequence, same accept/reject decisions, same final layout.

use maestro_fullcustom::{synthesize, synthesize_full_refresh, SynthesisParams};
use maestro_netlist::{generate, library_circuits};
use maestro_tech::builtin;

#[test]
fn delta_and_full_refresh_synthesize_identical_table1_layouts() {
    let tech = builtin::nmos25();
    for m in library_circuits::table1_suite() {
        let delta = synthesize(&m, &tech, &SynthesisParams::default()).unwrap();
        let full = synthesize_full_refresh(&m, &tech, &SynthesisParams::default()).unwrap();
        assert_eq!(delta, full, "{} diverged from the reference path", m.name());
    }
}

#[test]
fn replica_runs_keep_delta_and_full_refresh_identical() {
    // The best-of reduction must pick the same winner whichever cost
    // evaluator the replicas ran on — each walk's draw sequence and
    // accept/reject decisions are evaluator-independent.
    let tech = builtin::nmos25();
    let params = SynthesisParams {
        replicas: 4,
        ..SynthesisParams::quick()
    };
    for m in library_circuits::table1_suite() {
        let delta = synthesize(&m, &tech, &params).unwrap();
        let full = synthesize_full_refresh(&m, &tech, &params).unwrap();
        assert_eq!(
            delta,
            full,
            "{} diverged from the reference path at replicas=4",
            m.name()
        );
    }
}

#[test]
fn delta_and_full_refresh_synthesize_identical_random_nmos_layouts() {
    let tech = builtin::nmos25();
    for replicas in [1, 2] {
        let params = SynthesisParams {
            replicas,
            ..SynthesisParams::default()
        };
        for gates in [6, 12, 21] {
            let m = generate::random_nmos_logic(gates as u64, gates);
            let delta = synthesize(&m, &tech, &params).unwrap();
            let full = synthesize_full_refresh(&m, &tech, &params).unwrap();
            assert_eq!(
                delta,
                full,
                "{} diverged from the reference path at replicas={replicas}",
                m.name()
            );
        }
    }
}
