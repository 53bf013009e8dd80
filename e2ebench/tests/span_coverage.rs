//! The span-coverage check: every controller call of a traced loop sits
//! inside a span, so spans cover at least 90% of the loop's wall time,
//! and a controller call left outside every span fails the check.
//!
//! `cargo test --release --manifest-path e2ebench/Cargo.toml`

use std::path::Path;
use std::time::Instant;

use wtnc::db::schema;
use wtnc::Controller;
use wtnc_e2ebench::trace::{span_coverage, Tracer};
use wtnc_e2ebench::{Bench, Workload};

/// A controller build large enough to dominate a short loop.
fn build_controller() -> Controller {
    Controller::new(schema::standard_schema_with_slots(16_384)).expect("schema")
}

#[test]
fn an_unwrapped_controller_call_fails_the_check() {
    let mut tracer = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..3 {
        tracer.span("db.build", build_controller);
    }
    let covered = start.elapsed().as_nanos() as u64;
    let (coverage, failure) = span_coverage(tracer.span_total_ns(), covered);
    assert!(failure.is_none(), "all calls wrapped, coverage {coverage}");

    // The same loop with one of the calls left outside every span.
    let mut tracer = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..2 {
        tracer.span("db.build", build_controller);
    }
    drop(build_controller());
    let wall = start.elapsed().as_nanos() as u64;
    let (coverage, failure) = span_coverage(tracer.span_total_ns(), wall);
    assert!(failure.is_some(), "unwrapped call passed, coverage {coverage}");
}

#[test]
fn every_workload_keeps_its_controller_calls_inside_spans() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for workload in Workload::ALL {
        let mut bench = Bench::new(workload, 3, true, root).expect("bench set-up");
        let mut tracer = Tracer::new(true);
        let ep = bench.pass(&mut tracer).expect("pass");
        let (coverage, failure) = span_coverage(tracer.span_total_ns(), ep.loop_ns);
        assert!(failure.is_none(), "{}: coverage {coverage}", workload.name());
    }
}
