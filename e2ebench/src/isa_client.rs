//! The PECOS-instrumented multi-threaded ISA client (Tables 8/9 thread
//! count) against the controller's database through
//! [`DbSyscallBridge`], run with `Machine::run` in batches. An audit
//! cycle runs between batches. Control-flow instructions take a bit
//! flip at a fixed step interval; the word is restored after a fixed
//! window, and exceptions go through `pecos::handle_exception`.

use wtnc::audit::AuditConfig;
use wtnc::callproc::{AsmClientConfig, BridgeStats, DbSyscallBridge};
use wtnc::db::schema;
use wtnc::isa::{decode, Machine, MachineConfig, Program, StepOutcome, ThreadState};
use wtnc::pecos::{handle_exception, instrument, PecosMeta, PecosVerdict};
use wtnc::sim::{Pid, SimDuration, SimRng, SimTime};
use wtnc::Controller;

use crate::trace::Tracer;
use crate::Episode;

/// Shape of the ISA client workload.
#[derive(Debug, Clone, Copy)]
pub struct IsaSpec {
    /// Client threads per generation.
    pub threads: usize,
    /// Loop iterations per thread.
    pub iterations: u16,
    /// Client generations per episode (each a fresh machine running
    /// the same instrumented program against the same database).
    pub generations: u32,
    /// Record slots per dynamic table.
    pub slots: u32,
    /// Machine steps between audit cycles (one step is one virtual µs).
    pub audit_every_steps: u64,
    /// Machine steps between text-fault injections.
    pub inject_every_steps: u64,
    /// Steps a corrupted word stays in place before it is restored.
    pub fault_window_steps: u64,
    /// Steps after which a generation's still-runnable threads are
    /// declared hung and killed.
    pub generation_budget: u64,
}

/// What [`setup`] builds: the controller plus the instrumented client.
#[derive(Debug)]
pub struct IsaSetup {
    /// The controller (audits attached, no store).
    pub controller: Controller,
    /// The PECOS-instrumented client program.
    pub program: Program,
    /// Its assertion-block metadata.
    pub meta: PecosMeta,
    /// Text addresses of the control-flow instructions PECOS protects.
    pub cfis: Vec<usize>,
}

/// Instruments the client and builds the controller.
///
/// # Errors
///
/// Returns a message if the client does not assemble or instrument.
pub fn setup(spec: &IsaSpec) -> Result<IsaSetup, String> {
    let client = AsmClientConfig { iterations: spec.iterations, ..AsmClientConfig::default() };
    let asm = wtnc::isa::asm::Assembly::parse(&client.program_source())
        .map_err(|e| format!("client parse: {e:?}"))?;
    let inst = instrument(&asm).map_err(|e| format!("instrument: {e:?}"))?;
    let controller = Controller::new(schema::standard_schema_with_slots(spec.slots))
        .map_err(|e| format!("schema: {e}"))?
        .with_audit(AuditConfig {
            periodic_interval: SimDuration::from_micros(spec.audit_every_steps),
            ..AuditConfig::default()
        });
    let text = &inst.program.text;
    let cfis = (0..text.len())
        .filter(|&a| {
            decode(text[a]).is_ok_and(|i| i.is_cfi()) && !inst.meta.is_assertion_pc(a as u16)
        })
        .collect();
    Ok(IsaSetup { controller, program: inst.program, meta: inst.meta, cfis })
}

/// One corrupted text word awaiting restore.
#[derive(Debug, Clone, Copy)]
struct Fault {
    addr: usize,
    original: u32,
    at_step: u64,
    fsv_before: u64,
    resolved: bool,
}

/// How a thread of a generation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Running,
    Halted,
    PecosKilled,
    Crashed,
    AuditKilled,
    Hung,
}

/// Runs one episode: `spec.generations` client generations back to
/// back, with audits, fault injection and restores on a fixed step
/// grid.
pub fn drive(s: &mut IsaSetup, spec: &IsaSpec, seed: u64, tracer: &mut Tracer) -> Episode {
    let mut ep = Episode::default();
    let mut rng = SimRng::seed_from(seed);
    let c = &mut s.controller;
    let table = AsmClientConfig::default().table;
    let mut base = 0u64; // virtual µs at the start of the generation
    let mut next_audit = spec.audit_every_steps;
    let mut next_inject = spec.inject_every_steps;
    let mut fault: Option<Fault> = None;
    let (mut offered, mut completed) = (0u64, 0u64);
    let (mut injected, mut detected, mut system, mut fail_silent) = (0u64, 0u64, 0u64, 0u64);
    let mut fates_seen = [0u64; 5];
    let (mut steps, mut supersteps, mut sb_entries, mut sb_invalidated) = (0u64, 0u64, 0u64, 0u64);

    let loop_start = std::time::Instant::now();
    for _ in 0..spec.generations {
        let mut machine = tracer.span("isa.load", || {
            let mut m = Machine::load(&s.program, MachineConfig::default());
            s.meta.install_fast_path(&mut m);
            m
        });
        let pids: Vec<Pid> = tracer.span("callproc.client_spawn", || {
            (0..spec.threads)
                .map(|_| {
                    machine.spawn_thread(s.program.entry);
                    c.spawn_client("asm-client", SimTime::from_micros(base))
                })
                .collect()
        });
        let mut fates = vec![Fate::Running; spec.threads];
        let mut bridge_stats = BridgeStats::default();

        loop {
            if !machine.has_runnable() {
                break;
            }
            let local = machine.total_steps();
            if local >= spec.generation_budget {
                for (t, fate) in fates.iter_mut().enumerate() {
                    if machine.thread_state(t) == ThreadState::Runnable {
                        machine.kill_thread(t);
                        *fate = Fate::Hung;
                    }
                }
                break;
            }
            let vt = base + local;
            let mut stop = next_audit.min(next_inject).min(base + spec.generation_budget);
            if let Some(f) = fault {
                stop = stop.min(f.at_step + spec.fault_window_steps);
            }
            let batch = stop.saturating_sub(vt).max(1);
            let out = tracer.span("isa.run", || {
                let mut bridge =
                    DbSyscallBridge::new(&mut c.db, &mut c.api, &pids, &mut bridge_stats);
                bridge.set_now(SimTime::from_micros(vt));
                machine.run(&mut bridge, batch)
            });
            let vt = base + machine.total_steps();
            if let StepOutcome::Exception(info) = out {
                let verdict = tracer.span("pecos.handle_exception", || {
                    handle_exception(&mut machine, &s.meta, info)
                });
                let first = fault.as_mut().filter(|f| !f.resolved).map(|f| {
                    f.resolved = true;
                    vt - f.at_step
                });
                match verdict {
                    PecosVerdict::PecosDetected => {
                        detected += 1;
                        fates[info.thread] = Fate::PecosKilled;
                    }
                    PecosVerdict::SystemFault => {
                        // Not PECOS's signal: the client process crashes,
                        // taking every thread with it.
                        system += 1;
                        for (t, fate) in fates.iter_mut().enumerate() {
                            if matches!(
                                machine.thread_state(t),
                                ThreadState::Runnable | ThreadState::Faulted(_)
                            ) {
                                machine.kill_thread(t);
                                *fate = Fate::Crashed;
                            }
                        }
                    }
                }
                if let Some(latency) = first {
                    ep.detect_us.push(latency);
                }
            }
            let fsv = bridge_stats.total_fsv();
            if let Some(f) = fault.as_mut() {
                if !f.resolved && fsv > f.fsv_before {
                    // The corrupted client wrote wrong data and then
                    // flagged it: the fault reached the database first.
                    f.resolved = true;
                    fail_silent += 1;
                }
                if vt >= f.at_step + spec.fault_window_steps {
                    tracer.span("isa.store_text", || machine.store_text(f.addr, f.original));
                    fault = None;
                }
            }
            if vt >= next_audit {
                let now = SimTime::from_micros(vt);
                let report = tracer.stall("audit.cycle", || c.run_audit_cycle(now));
                if let Some(r) = report {
                    ep.record_cycle(&r);
                }
                for (t, pid) in pids.iter().enumerate() {
                    if !c.registry.is_alive(*pid)
                        && machine.thread_state(t) == ThreadState::Runnable
                    {
                        machine.kill_thread(t);
                        fates[t] = Fate::AuditKilled;
                    }
                }
                next_audit += spec.audit_every_steps;
            }
            if vt >= next_inject {
                if fault.is_none() && !s.cfis.is_empty() {
                    let addr = s.cfis[rng.index(s.cfis.len())];
                    let original = machine.text()[addr];
                    let flipped = original ^ (1u32 << rng.index(32));
                    tracer.span("isa.store_text", || machine.store_text(addr, flipped));
                    fault = Some(Fault {
                        addr,
                        original,
                        at_step: vt,
                        fsv_before: fsv,
                        resolved: false,
                    });
                    injected += 1;
                }
                next_inject += spec.inject_every_steps;
            }
        }

        // A fault still armed when the generation ends is restored on
        // the next machine by construction (fresh text).
        fault = None;
        let now = SimTime::from_micros(base + machine.total_steps());
        for (t, pid) in pids.iter().enumerate() {
            if machine.thread_state(t) == ThreadState::Halted {
                fates[t] = Fate::Halted;
            }
            let fate = fates[t];
            match fate {
                Fate::Running => ep.violation(format!("thread {t} neither halted nor classified")),
                Fate::Halted => fates_seen[0] += 1,
                Fate::PecosKilled => fates_seen[1] += 1,
                Fate::Crashed => fates_seen[2] += 1,
                Fate::AuditKilled => fates_seen[3] += 1,
                Fate::Hung => fates_seen[4] += 1,
            }
            let done = bridge_stats.success_msgs.get(t).copied().unwrap_or(0);
            completed += done.min(u64::from(spec.iterations));
            offered += u64::from(spec.iterations);
            tracer.span("callproc.client_exit", || {
                free_held_records(c, &machine, t, *pid, table, spec.slots, now);
                c.api.close(*pid, now);
                c.registry.kill(*pid, now);
            });
        }
        steps += machine.total_steps();
        supersteps += machine.fused_supersteps();
        let sb = machine.superblock_stats();
        sb_entries += sb.entered;
        sb_invalidated += sb.invalidated;
        base += machine.total_steps();
        next_audit = next_audit.max(base);
        next_inject = next_inject.max(base);
    }
    ep.loop_ns = loop_start.elapsed().as_nanos() as u64;

    ep.calls = completed;
    ep.set("calls.offered", offered as f64);
    ep.set("calls.failed", (offered - completed) as f64);
    ep.set("faults.injected", injected as f64);
    ep.set("faults.escaped", fail_silent as f64);
    ep.set("pecos.detected", detected as f64);
    ep.set("pecos.system_faults", system as f64);
    ep.set("pecos.fail_silent", fail_silent as f64);
    ep.set("pecos.threads_halted", fates_seen[0] as f64);
    ep.set("pecos.threads_pecos_killed", fates_seen[1] as f64);
    ep.set("pecos.threads_crashed", fates_seen[2] as f64);
    ep.set("pecos.threads_audit_killed", fates_seen[3] as f64);
    ep.set("pecos.threads_hung", fates_seen[4] as f64);
    ep.set("isa.steps", steps as f64);
    ep.set("isa.supersteps", supersteps as f64);
    ep.set("isa.superblock_entries", sb_entries as f64);
    ep.set("isa.superblock_invalidations", sb_invalidated as f64);
    ep.set("db.api_ops", c.api.ops_performed() as f64);
    ep.set("db.events_shed", c.api.events_shed() as f64);
    ep.set("db.events_backpressured", c.api.events_backpressured() as f64);
    ep
}

/// Frees the records a finished thread still holds: the deferred-check
/// records listed in its data memory and, if it died mid-iteration, the
/// record in `r8`. Indices outside the table are skipped (the thread's
/// memory may hold garbage after a control-flow error).
fn free_held_records(
    c: &mut Controller,
    machine: &Machine,
    t: usize,
    pid: Pid,
    table: wtnc::db::TableId,
    slots: u32,
    now: SimTime,
) {
    let base = usize::from(wtnc::callproc::asm_client::HELD_ARRAY_BASE);
    let mut indices: Vec<u64> = Vec::new();
    if let Some(data) = machine.data(t) {
        let count = data.get(base).copied().unwrap_or(0) as usize;
        for i in 0..count.min(slots as usize) {
            if let Some(&idx) = data.get(base + 2 * i + 1) {
                indices.push(idx);
            }
        }
    }
    if machine.thread_state(t) != ThreadState::Halted {
        indices.extend(machine.reg(t, 8));
    }
    for idx in indices {
        if idx < u64::from(slots) {
            let _ = c.api.free_record(&mut c.db, pid, table, idx as u32, now);
        }
    }
}
