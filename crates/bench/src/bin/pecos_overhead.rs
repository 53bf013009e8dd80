//! PECOS run-time overhead on the call-processing client (paper §6.2,
//! discussed next to Table 10): throughput of the bare vs the
//! instrumented client across all three execution engines — the
//! original word-at-a-time interpreter (`slow`), PR 4's predecoded
//! cache (`decoded`), and the superblock-compiling direct-threaded
//! engine (`superblock`). Writes `results/BENCH_pecos_overhead.json`.
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
//! Gate: with `WTNC_BENCH_ASSERT_SPEEDUP=<x>` set, the bench fails
//! unless superblock ≥ decoded inst/sec (small noise tolerance) and
//! superblock ≥ x· slow on the dispatch workload. On a single-CPU
//! host, an unmet target stamps an honest `fallback` gate record
//! instead of failing (shared single-core containers time too noisily
//! to assert against), mirroring the audit-scaling bench.
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
use wtnc_bench::{host_info_json, write_results};

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
    superblocks: u64,
    superblock_entries: u64,
    mean_chain: f64,
    wall_us_best: f64,
    inst_per_sec: f64,
}

/// One complete client run: fresh database (db-bridge workload), one
/// thread, run to halt. Returns (retired steps, fused supersteps,
/// resident superblocks, block entries, mean chain length, wall time
/// of the machine run alone).
fn run_once(
    program: &Program,
    meta: Option<&PecosMeta>,
    workload: Workload,
    engine: Engine,
) -> (u64, u64, u64, u64, f64, f64) {
    let mut machine = Machine::load(
        program,
        MachineConfig {
            fast_path: engine != Engine::Slow,
            engine: Some(engine),
            ..Default::default()
        },
    );
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
    let sb = machine.superblock_stats();
    let mean_chain = if sb.blocks.is_empty() {
        0.0
    } else {
        sb.blocks.iter().map(|b| b.steps as f64).sum::<f64>() / sb.blocks.len() as f64
    };
    (
        machine.total_steps(),
        machine.fused_supersteps(),
        sb.blocks.len() as u64,
        sb.entered,
        mean_chain,
        secs,
    )
}

fn measure(
    program_label: &'static str,
    program: &Program,
    meta: Option<&PecosMeta>,
    workload: Workload,
    engine: Engine,
    reps: usize,
) -> Cell {
    // Warm-up run (also yields the deterministic per-run counters).
    let (steps_per_run, supersteps_per_run, superblocks, superblock_entries, mean_chain, _) =
        run_once(program, meta, workload, engine);
    // Best-of-N: the minimum is the least noise-contaminated estimate
    // of the machine's actual cost (scheduler preemptions and cache
    // evictions only ever add time).
    let mut best_secs = f64::INFINITY;
    for _ in 0..reps {
        best_secs = best_secs.min(run_once(program, meta, workload, engine).5);
    }
    let wall_us_best = best_secs * 1e6;
    let inst_per_sec = steps_per_run as f64 / best_secs;
    Cell {
        program_label,
        workload,
        engine,
        steps_per_run,
        supersteps_per_run,
        superblocks,
        superblock_entries,
        mean_chain,
        wall_us_best,
        inst_per_sec,
    }
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
         {reps} timed runs per cell{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<14} {:<10} {:>10} {:>10} {:>8} {:>8} {:>7} {:>12} {:>13}",
        "program",
        "workload",
        "engine",
        "steps/run",
        "fused",
        "sblocks",
        "chain",
        "best µs/run",
        "inst/sec"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for engine in Engine::ALL {
        cells.push(measure("bare", &bare, None, Workload::DbBridge, engine, reps));
    }
    for engine in Engine::ALL {
        cells.push(measure(
            "instrumented",
            &inst.program,
            Some(&inst.meta),
            Workload::DbBridge,
            engine,
            reps,
        ));
    }
    for engine in Engine::ALL {
        cells.push(measure(
            "instrumented",
            &inst.program,
            Some(&inst.meta),
            Workload::Dispatch,
            engine,
            reps,
        ));
    }
    for c in &cells {
        println!(
            "{:<14} {:<10} {:>10} {:>10} {:>8} {:>8} {:>7.1} {:>12.1} {:>13.0}",
            c.program_label,
            c.workload.name(),
            c.engine.name(),
            c.steps_per_run,
            c.supersteps_per_run,
            c.superblocks,
            c.mean_chain,
            c.wall_us_best,
            c.inst_per_sec
        );
    }

    let by = |label: &str, workload: Workload, engine: Engine| {
        cells
            .iter()
            .find(|c| c.program_label == label && c.workload == workload && c.engine == engine)
            .unwrap()
    };
    let ips = |label: &str, w: Workload, e: Engine| by(label, w, e).inst_per_sec;

    // Derived figures: per-engine speedups on both workloads, and the
    // PECOS overheads the paper discusses (§6.2: "less than 10% for
    // the target application" on dedicated hardware).
    let db_decoded = ips("instrumented", Workload::DbBridge, Engine::Decoded)
        / ips("instrumented", Workload::DbBridge, Engine::Slow);
    let db_superblock = ips("instrumented", Workload::DbBridge, Engine::Superblock)
        / ips("instrumented", Workload::DbBridge, Engine::Slow);
    let dispatch_decoded = ips("instrumented", Workload::Dispatch, Engine::Decoded)
        / ips("instrumented", Workload::Dispatch, Engine::Slow);
    let dispatch_superblock = ips("instrumented", Workload::Dispatch, Engine::Superblock)
        / ips("instrumented", Workload::Dispatch, Engine::Slow);
    let sb_vs_decoded_db = ips("instrumented", Workload::DbBridge, Engine::Superblock)
        / ips("instrumented", Workload::DbBridge, Engine::Decoded);
    let sb_vs_decoded_dispatch = ips("instrumented", Workload::Dispatch, Engine::Superblock)
        / ips("instrumented", Workload::Dispatch, Engine::Decoded);
    let step_overhead = by("instrumented", Workload::DbBridge, Engine::Superblock).steps_per_run
        as f64
        / by("bare", Workload::DbBridge, Engine::Superblock).steps_per_run as f64
        - 1.0;
    let wall_overhead_fast = by("instrumented", Workload::DbBridge, Engine::Superblock)
        .wall_us_best
        / by("bare", Workload::DbBridge, Engine::Superblock).wall_us_best
        - 1.0;
    let wall_overhead_slow = by("instrumented", Workload::DbBridge, Engine::Slow).wall_us_best
        / by("bare", Workload::DbBridge, Engine::Slow).wall_us_best
        - 1.0;

    println!("\nspeedup vs slow engine (instrumented client):");
    println!("  db-bridge:  decoded {db_decoded:.2}x   superblock {db_superblock:.2}x");
    println!("  dispatch:   decoded {dispatch_decoded:.2}x   superblock {dispatch_superblock:.2}x");
    println!(
        "superblock vs decoded: {sb_vs_decoded_db:.2}x (db-bridge) / \
         {sb_vs_decoded_dispatch:.2}x (dispatch)"
    );
    println!(
        "PECOS dynamic instruction overhead: {:.1}%   wall-clock overhead: {:.1}% (superblock) / \
         {:.1}% (slow)",
        step_overhead * 100.0,
        wall_overhead_fast * 100.0,
        wall_overhead_slow * 100.0
    );
    println!(
        "paper reference: §6.2 reports sub-10% overhead for the embedded target; the \
         superblock engine is this reproduction's analogue of that specialisation"
    );
    println!(
        "note: on the db-bridge workload the timed region includes the controller database \
         operations themselves (identical across engines), which bounds end-to-end speedup; \
         the dispatch workload isolates the engine"
    );

    // Speedup gate: assert when requested,
    // but stamp an honest fallback on single-CPU hosts instead of
    // failing, since shared 1-CPU containers time too noisily.
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let target: Option<f64> =
        std::env::var("WTNC_BENCH_ASSERT_SPEEDUP").ok().and_then(|s| s.parse().ok());
    // 8% tolerance: the two fast engines share the decoded cache, so
    // run-to-run noise can invert a near-tie.
    let sb_not_slower = sb_vs_decoded_db >= 0.92 && sb_vs_decoded_dispatch >= 0.92;
    let gate = match target {
        None => "\"mode\": \"off\"".to_owned(),
        Some(x) => {
            let met = sb_not_slower && dispatch_superblock >= x;
            if met {
                println!(
                    "\nspeedup gate: met ({dispatch_superblock:.2}x >= {x:.1}x dispatch, \
                     superblock >= decoded)"
                );
                format!("\"mode\": \"met\", \"target\": {x:.2}")
            } else if cpus == 1 {
                println!(
                    "\nspeedup gate: fallback — single-CPU host, target {x:.1}x not asserted \
                     (measured {dispatch_superblock:.2}x dispatch)"
                );
                format!(
                    "\"mode\": \"fallback\", \"target\": {x:.2}, \
                     \"reason\": \"single-cpu host: not asserting wall-clock speedups\""
                )
            } else {
                eprintln!(
                    "\nspeedup gate FAILED: superblock {dispatch_superblock:.2}x vs slow \
                     (target {x:.1}x), superblock-vs-decoded {sb_vs_decoded_db:.2}x db / \
                     {sb_vs_decoded_dispatch:.2}x dispatch"
                );
                write_json(
                    smoke,
                    iterations,
                    reps,
                    &cells,
                    db_decoded,
                    db_superblock,
                    dispatch_decoded,
                    dispatch_superblock,
                    sb_vs_decoded_db,
                    sb_vs_decoded_dispatch,
                    step_overhead,
                    wall_overhead_fast,
                    wall_overhead_slow,
                    &format!("\"mode\": \"failed\", \"target\": {x:.2}"),
                );
                std::process::exit(1);
            }
        }
    };

    write_json(
        smoke,
        iterations,
        reps,
        &cells,
        db_decoded,
        db_superblock,
        dispatch_decoded,
        dispatch_superblock,
        sb_vs_decoded_db,
        sb_vs_decoded_dispatch,
        step_overhead,
        wall_overhead_fast,
        wall_overhead_slow,
        &gate,
    );
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    smoke: bool,
    iterations: u16,
    reps: usize,
    cells: &[Cell],
    db_decoded: f64,
    db_superblock: f64,
    dispatch_decoded: f64,
    dispatch_superblock: f64,
    sb_vs_decoded_db: f64,
    sb_vs_decoded_dispatch: f64,
    step_overhead: f64,
    wall_overhead_fast: f64,
    wall_overhead_slow: f64,
    gate: &str,
) {
    let cells_json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"program\": \"{}\", \"workload\": \"{}\", \"engine\": \"{}\", \
                 \"steps_per_run\": {}, \"supersteps_per_run\": {}, \"superblocks\": {}, \
                 \"superblock_entries\": {}, \"mean_chain_steps\": {:.1}, \
                 \"wall_us_best\": {:.3}, \"inst_per_sec\": {:.0}}}",
                c.program_label,
                c.workload.name(),
                c.engine.name(),
                c.steps_per_run,
                c.supersteps_per_run,
                c.superblocks,
                c.superblock_entries,
                c.mean_chain,
                c.wall_us_best,
                c.inst_per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"pecos_overhead\",\n  \"host\": {},\n  \"smoke\": {smoke},\n  \
         \"iterations\": {iterations},\n  \"reps\": {reps},\n  \"cells\": [\n{}\n  ],\n  \
         \"derived\": {{\n    \"speedup_vs_slow_db\": {{\"decoded\": {db_decoded:.3}, \
         \"superblock\": {db_superblock:.3}}},\n    \"speedup_vs_slow_dispatch\": \
         {{\"decoded\": {dispatch_decoded:.3}, \"superblock\": {dispatch_superblock:.3}}},\n    \
         \"superblock_vs_decoded\": {{\"db\": {sb_vs_decoded_db:.3}, \
         \"dispatch\": {sb_vs_decoded_dispatch:.3}}},\n    \
         \"pecos_step_overhead_pct\": {:.2},\n    \
         \"pecos_wall_overhead_superblock_pct\": {:.2},\n    \
         \"pecos_wall_overhead_slow_pct\": {:.2}\n  }},\n  \"gate\": {{{gate}}}\n}}\n",
        host_info_json(),
        cells_json.join(",\n"),
        step_overhead * 100.0,
        wall_overhead_fast * 100.0,
        wall_overhead_slow * 100.0
    );
    write_results("pecos_overhead", &json);
}
