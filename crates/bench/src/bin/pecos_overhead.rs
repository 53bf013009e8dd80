//! PECOS run-time overhead on the call-processing client (paper §6.2,
//! discussed next to Table 10): throughput of the bare vs the
//! instrumented client on both execution engines — the word-at-a-time
//! interpreter (`slow`) and the predecoded cache with fused assertion
//! supersteps (`decoded`). Writes `results/BENCH_pecos_overhead.json`.
//!
//! Two workloads are timed:
//!
//! * **db-bridge** — the real client: every syscall reaches the
//!   controller database through [`DbSyscallBridge`]. This is the
//!   paper-comparable end-to-end number, but the database work inside
//!   the timed region is identical for every engine, so it bounds the
//!   achievable engine speedup from above.
//! * **dispatch** — the same instrumented client with syscalls
//!   stubbed out ([`NoSyscalls`]): a pure measure of the execution
//!   engine itself, which is what the ≥5× gate reads.
//!
//! Each (program, workload) row times the two engines in alternating
//! repetitions (the order flips every repetition, so host drift hits
//! both alike) and reports each engine's median wall time.
//!
//! Gate: with `WTNC_BENCH_ASSERT_SPEEDUP=<x>` set, the bench fails
//! unless the decoded engine's median inst/sec on the dispatch workload
//! is at least x· the slow engine's. On a single-CPU host, an unmet
//! target stamps an honest `fallback` gate record instead of failing
//! (shared single-core containers time too noisily to assert against).
//!
//! ```sh
//! cargo run --release -p wtnc-bench --bin pecos_overhead
//! WTNC_BENCH_SMOKE=1 cargo run --release -p wtnc-bench --bin pecos_overhead
//! ```

use std::time::Instant;
use wtnc::callproc::{AsmClientConfig, BridgeStats, DbSyscallBridge};
use wtnc::db::{Database, DbApi};
use wtnc::isa::{asm::Assembly, Engine, Machine, MachineConfig, NoSyscalls, Program, ThreadState};
use wtnc::pecos::{instrument, PecosMeta};
use wtnc::sim::ProcessRegistry;
use wtnc_bench::{host_info_json, median, write_results};

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    DbBridge,
    Dispatch,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::DbBridge => "db-bridge",
            Workload::Dispatch => "dispatch",
        }
    }
}

struct Cell {
    program_label: &'static str,
    workload: Workload,
    engine: Engine,
    steps_per_run: u64,
    supersteps_per_run: u64,
    wall_us_median: f64,
    inst_per_sec: f64,
}

/// One complete client run: fresh database (db-bridge workload), one
/// thread, run to halt. Returns (retired steps, fused supersteps, wall
/// time of the machine run alone).
fn run_once(
    program: &Program,
    meta: Option<&PecosMeta>,
    workload: Workload,
    engine: Engine,
) -> (u64, u64, f64) {
    let mut machine = Machine::load(program, MachineConfig { engine });
    if engine != Engine::Slow {
        if let Some(m) = meta {
            m.install_fast_path(&mut machine);
        }
    }
    let t = machine.spawn_thread(program.entry);

    let secs = match workload {
        Workload::DbBridge => {
            let mut db =
                Database::build(wtnc::db::schema::standard_schema()).expect("schema builds");
            let mut api = DbApi::without_instrumentation();
            let mut registry = ProcessRegistry::new();
            let pid = registry.spawn("asm-client", wtnc::sim::SimTime::ZERO);
            api.init(pid);
            let pids = [pid];
            let mut stats = BridgeStats::default();
            let mut bridge = DbSyscallBridge::new(&mut db, &mut api, &pids, &mut stats);
            let start = Instant::now();
            machine.run(&mut bridge, 10_000_000);
            start.elapsed().as_secs_f64()
        }
        Workload::Dispatch => {
            let start = Instant::now();
            machine.run(&mut NoSyscalls, 10_000_000);
            start.elapsed().as_secs_f64()
        }
    };
    assert_eq!(machine.thread_state(t), ThreadState::Halted, "client must halt cleanly");
    (machine.total_steps(), machine.fused_supersteps(), secs)
}

/// Times every engine on one (program, workload) row: a warm-up run
/// per engine (which also yields the deterministic per-run counters),
/// then `reps` alternating repetitions. Returns one cell per engine,
/// in [`Engine::ALL`] order, carrying the median wall time.
fn measure_row(
    program_label: &'static str,
    program: &Program,
    meta: Option<&PecosMeta>,
    workload: Workload,
    reps: usize,
) -> Vec<Cell> {
    let counters: Vec<(u64, u64)> = Engine::ALL
        .iter()
        .map(|&e| {
            let (steps, supersteps, _) = run_once(program, meta, workload, e);
            (steps, supersteps)
        })
        .collect();
    let mut secs: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); Engine::ALL.len()];
    for rep in 0..reps {
        let mut order: Vec<usize> = (0..Engine::ALL.len()).collect();
        if rep % 2 == 1 {
            order.reverse();
        }
        for i in order {
            secs[i].push(run_once(program, meta, workload, Engine::ALL[i]).2);
        }
    }
    Engine::ALL
        .iter()
        .zip(counters)
        .zip(&mut secs)
        .map(|((&engine, (steps_per_run, supersteps_per_run)), samples)| {
            let median_secs = median(samples);
            Cell {
                program_label,
                workload,
                engine,
                steps_per_run,
                supersteps_per_run,
                wall_us_median: median_secs * 1e6,
                inst_per_sec: steps_per_run as f64 / median_secs,
            }
        })
        .collect()
}

fn main() {
    let smoke =
        std::env::var("WTNC_BENCH_SMOKE").is_ok() || std::env::args().any(|a| a == "--smoke");
    let (iterations, reps) = if smoke { (6u16, 5usize) } else { (120, 120) };

    let source = AsmClientConfig { iterations, ..AsmClientConfig::default() }.program_source();
    let asm = Assembly::parse(&source).expect("client parses");
    let bare = asm.assemble().expect("client assembles");
    let inst = instrument(&asm).expect("client instruments");

    println!(
        "PECOS overhead — call-processing client, {iterations} iterations, 1 thread, \
         {reps} alternating timed runs per cell{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<14} {:<10} {:>8} {:>10} {:>8} {:>14} {:>13}",
        "program", "workload", "engine", "steps/run", "fused", "median µs/run", "inst/sec"
    );

    let mut cells = measure_row("bare", &bare, None, Workload::DbBridge, reps);
    let meta = Some(&inst.meta);
    cells.extend(measure_row("instrumented", &inst.program, meta, Workload::DbBridge, reps));
    cells.extend(measure_row("instrumented", &inst.program, meta, Workload::Dispatch, reps));
    for c in &cells {
        println!(
            "{:<14} {:<10} {:>8} {:>10} {:>8} {:>14.1} {:>13.0}",
            c.program_label,
            c.workload.name(),
            c.engine.name(),
            c.steps_per_run,
            c.supersteps_per_run,
            c.wall_us_median,
            c.inst_per_sec
        );
    }

    let by = |label: &str, workload: Workload, engine: Engine| {
        cells
            .iter()
            .find(|c| c.program_label == label && c.workload == workload && c.engine == engine)
            .unwrap()
    };
    let speedup = |w: Workload| {
        by("instrumented", w, Engine::Decoded).inst_per_sec
            / by("instrumented", w, Engine::Slow).inst_per_sec
    };
    let wall_overhead = |e: Engine| {
        by("instrumented", Workload::DbBridge, e).wall_us_median
            / by("bare", Workload::DbBridge, e).wall_us_median
            - 1.0
    };

    // Derived figures: the decoded engine's speedup on both workloads,
    // and the PECOS overheads the paper discusses (§6.2: "less than 10%
    // for the target application" on dedicated hardware).
    let db_decoded = speedup(Workload::DbBridge);
    let dispatch_decoded = speedup(Workload::Dispatch);
    let step_overhead = by("instrumented", Workload::DbBridge, Engine::Decoded).steps_per_run
        as f64
        / by("bare", Workload::DbBridge, Engine::Decoded).steps_per_run as f64
        - 1.0;
    let wall_overhead_decoded = wall_overhead(Engine::Decoded);
    let wall_overhead_slow = wall_overhead(Engine::Slow);

    println!("\ndecoded speedup vs slow engine (instrumented client, medians):");
    println!("  db-bridge:  {db_decoded:.2}x");
    println!("  dispatch:   {dispatch_decoded:.2}x");
    println!(
        "PECOS dynamic instruction overhead: {:.1}%   wall-clock overhead: {:.1}% (decoded) / \
         {:.1}% (slow)",
        step_overhead * 100.0,
        wall_overhead_decoded * 100.0,
        wall_overhead_slow * 100.0
    );
    println!(
        "paper reference: §6.2 reports sub-10% overhead for the embedded target; the \
         decoded engine's fused assertion supersteps are this reproduction's analogue of \
         that specialisation"
    );
    println!(
        "note: on the db-bridge workload the timed region includes the controller database \
         operations themselves (identical across engines), which bounds end-to-end speedup; \
         the dispatch workload isolates the engine"
    );

    // Speedup gate: assert when requested, but stamp an honest fallback
    // on single-CPU hosts instead of failing, since shared 1-CPU
    // containers time too noisily.
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let target: Option<f64> =
        std::env::var("WTNC_BENCH_ASSERT_SPEEDUP").ok().and_then(|s| s.parse().ok());
    let mut failed = false;
    let gate = match target {
        None => "\"mode\": \"off\"".to_owned(),
        Some(x) if dispatch_decoded >= x => {
            println!("\nspeedup gate: met ({dispatch_decoded:.2}x >= {x:.1}x dispatch)");
            format!("\"mode\": \"met\", \"target\": {x:.2}")
        }
        Some(x) if cpus == 1 => {
            println!(
                "\nspeedup gate: fallback — single-CPU host, target {x:.1}x not asserted \
                 (measured {dispatch_decoded:.2}x dispatch)"
            );
            format!(
                "\"mode\": \"fallback\", \"target\": {x:.2}, \
                 \"reason\": \"single-cpu host: not asserting wall-clock speedups\""
            )
        }
        Some(x) => {
            eprintln!(
                "\nspeedup gate FAILED: decoded {dispatch_decoded:.2}x vs slow on dispatch \
                 (target {x:.1}x)"
            );
            failed = true;
            format!("\"mode\": \"failed\", \"target\": {x:.2}")
        }
    };

    let cells_json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"program\": \"{}\", \"workload\": \"{}\", \"engine\": \"{}\", \
                 \"steps_per_run\": {}, \"supersteps_per_run\": {}, \
                 \"wall_us_median\": {:.3}, \"inst_per_sec\": {:.0}}}",
                c.program_label,
                c.workload.name(),
                c.engine.name(),
                c.steps_per_run,
                c.supersteps_per_run,
                c.wall_us_median,
                c.inst_per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"pecos_overhead\",\n  \"host\": {},\n  \"smoke\": {smoke},\n  \
         \"iterations\": {iterations},\n  \"reps\": {reps},\n  \"cells\": [\n{}\n  ],\n  \
         \"derived\": {{\n    \"decoded_speedup_vs_slow\": {{\"db\": {db_decoded:.3}, \
         \"dispatch\": {dispatch_decoded:.3}}},\n    \
         \"pecos_step_overhead_pct\": {:.2},\n    \
         \"pecos_wall_overhead_decoded_pct\": {:.2},\n    \
         \"pecos_wall_overhead_slow_pct\": {:.2}\n  }},\n  \"gate\": {{{gate}}}\n}}\n",
        host_info_json(),
        cells_json.join(",\n"),
        step_overhead * 100.0,
        wall_overhead_decoded * 100.0,
        wall_overhead_slow * 100.0
    );
    write_results("pecos_overhead", &json);
    if failed {
        std::process::exit(1);
    }
}
