//! Same seed, same virtual-time results; another seed, every check
//! still passes. Runs shortened episodes of every workload.
//!
//! `cargo test --release --manifest-path e2ebench/Cargo.toml`

use std::path::Path;

use wtnc_e2ebench::trace::Tracer;
use wtnc_e2ebench::{virtual_metrics, Bench, Episode, Workload};

fn one_run(workload: Workload, seed: u64) -> Episode {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let mut bench = Bench::new(workload, seed, true, root).expect("bench set-up");
    bench.pass(&mut Tracer::new(false)).expect("pass")
}

fn assert_clean(workload: Workload, ep: &Episode) {
    assert!(ep.violations.is_empty(), "{}: {:?}", workload.name(), ep.violations);
    assert!(ep.op_errors.is_empty(), "{}: {:?}", workload.name(), ep.op_errors);
    assert!(ep.calls > 0, "{}: no call completed", workload.name());
}

/// The virtual-time metrics and counters the determinism contract
/// names, plus every other counter.
fn virtual_view(ep: &Episode) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> =
        virtual_metrics(ep).into_iter().map(|(k, (x, _))| (k.to_string(), x.to_bits())).collect();
    v.extend(ep.virt.iter().map(|(k, x)| ((*k).to_string(), x.to_bits())));
    v
}

fn same_seed_same_virtual_results(workload: Workload) {
    let a = one_run(workload, 7);
    let b = one_run(workload, 7);
    assert_clean(workload, &a);
    assert_eq!(virtual_view(&a), virtual_view(&b), "{}", workload.name());
    assert_eq!(a.virtual_fingerprint(), b.virtual_fingerprint(), "{}", workload.name());
    let names: Vec<String> = virtual_view(&a).into_iter().map(|(k, _)| k).collect();
    for required in ["call_fail_frac", "escape_frac", "write_bytes_per_call"] {
        assert!(names.iter().any(|n| n == required), "{required} missing");
    }
    if workload != Workload::PecosClient {
        for required in [
            "detect_p50_s",
            "call_setup_p50_ms",
            "call_setup_p99_ms",
            "recovery.rung_field",
            "recovery.rung_record",
            "recovery.rung_table",
            "recovery.rung_client",
            "recovery.rung_controller",
        ] {
            assert!(names.iter().any(|n| n == required), "{required} missing");
        }
    }
}

#[test]
fn calls_durable_repeats_for_one_seed() {
    same_seed_same_virtual_results(Workload::CallsDurable);
}

#[test]
fn faults_large_repeats_for_one_seed() {
    same_seed_same_virtual_results(Workload::FaultsLarge);
}

#[test]
fn pecos_client_repeats_for_one_seed() {
    same_seed_same_virtual_results(Workload::PecosClient);
}

#[test]
fn a_second_seed_passes_every_check() {
    for workload in Workload::ALL {
        let ep = one_run(workload, 8);
        assert_clean(workload, &ep);
        let other = one_run(workload, 7);
        assert_ne!(
            ep.virtual_fingerprint(),
            other.virtual_fingerprint(),
            "{}: the seed must change the inputs",
            workload.name()
        );
    }
}
