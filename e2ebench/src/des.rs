//! The seeded discrete-event call workload driven through the assembled
//! [`Controller`]: Table-2 call model, bit-flip injection, audits with
//! the token budget and staged recovery, supervision (with optional
//! supervised-client hangs and crashes) and, on the durable workload,
//! journal sync, delta checkpoints, compaction and storage audits.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use wtnc::audit::{AuditConfig, BudgetConfig, Finding, FindingTarget, SupervisorConfig};
use wtnc::callproc::{CallHandle, DesClient, WorkloadConfig};
use wtnc::db::layout::RECORD_HEADER_SIZE;
use wtnc::db::{schema, Database, FieldId, RecordRef, TaintFate};
use wtnc::recovery::RecoveryConfig;
use wtnc::sim::{EventQueue, Pid, Responsiveness, SimDuration, SimRng, SimTime};
use wtnc::store::StoreConfig;
use wtnc::Controller;

use crate::trace::Tracer;
use crate::Episode;

/// Shape of one DES workload.
#[derive(Debug, Clone, Copy)]
pub struct DesSpec {
    /// Record slots per dynamic table.
    pub slots: u32,
    /// Concurrent call threads of the client.
    pub threads: usize,
    /// Mean call inter-arrival time.
    pub interarrival: SimDuration,
    /// Mean bit-flip inter-arrival time (no flips when `None`).
    pub flip_iat: Option<SimDuration>,
    /// Virtual time during which calls arrive; the episode then drains
    /// until every call has ended.
    pub duration: SimDuration,
    /// Supervised client processes doing periodic database work.
    pub workers: usize,
    /// Mean time between supervised-client hangs or crashes (none when
    /// `None`).
    pub process_fault_iat: Option<SimDuration>,
    /// Attach the durable store.
    pub durable: bool,
}

/// Store cadence on the durable workload. The journal syncs once per
/// audit period, right before the recovery cycle; the other cadences
/// are the benchmark's own choice (see `LAYERS.md`).
const CHECKPOINT_PERIOD: SimDuration = SimDuration::from_secs(60);
const STORAGE_AUDIT_PERIOD: SimDuration = SimDuration::from_secs(120);
const COMPACT_PERIOD: SimDuration = SimDuration::from_secs(300);
/// Delta checkpoints between full images.
const FULL_EVERY: u32 = 8;
/// Supervised workers advance their transaction this often.
const WORK_PERIOD: SimDuration = SimDuration::from_secs(1);
/// Longest a call can outlive the end of arrivals (maximum call
/// duration plus setup, with margin).
const DRAIN: SimDuration = SimDuration::from_secs(40);

/// The store configuration every durable episode uses.
pub fn store_config() -> StoreConfig {
    StoreConfig { full_every: FULL_EVERY, ..StoreConfig::default() }
}

/// Builds the controller: the store first (so warm recovery lands
/// before the audit baselines are taken), then audits with the token
/// budget, the recovery engine and supervision. The audit executor
/// keeps its default of one worker, whatever the environment says.
/// Also returns the wall time of the store open with warm recovery, ns
/// (`None` without a store).
///
/// # Errors
///
/// Returns a message if the schema or the store cannot be opened.
pub fn setup(
    spec: &DesSpec,
    store_dir: Option<&Path>,
) -> Result<(Controller, Option<u64>), String> {
    let mut c = Controller::new(schema::standard_schema_with_slots(spec.slots))
        .map_err(|e| format!("schema: {e}"))?;
    let mut open_ns = None;
    if let Some(dir) = store_dir {
        let t = Instant::now();
        c = c.with_store(dir, store_config()).map_err(|e| format!("store open: {e}"))?;
        open_ns = Some(t.elapsed().as_nanos() as u64);
    }
    let audit = AuditConfig { budget: Some(BudgetConfig::default()), ..AuditConfig::default() };
    let c = c
        .with_audit(audit)
        .with_recovery(RecoveryConfig::default())
        .with_supervision(SupervisorConfig::default());
    Ok((c, open_ns))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A call arrival that was due at the carried time.
    Arrival(SimTime),
    Poll(CallHandle),
    End(CallHandle),
    Cycle,
    Supervise,
    Work,
    Flip,
    ProcessFault,
    Checkpoint,
    StorageAudit,
    Compact,
}

/// One supervised worker: alternately opens and closes a one-record
/// transaction on the connection table.
#[derive(Debug)]
struct Worker {
    pid: Pid,
    call: Option<u32>,
}

/// Journal and checkpoint bytes written, tracked from the store's own
/// size counters around every store-touching call.
#[derive(Debug, Default)]
struct WriteLedger {
    journal: u64,
    checkpoint: u64,
    last_journal: u64,
}

impl WriteLedger {
    fn observe(&mut self, c: &Controller, compacted: bool) {
        let Some(store) = c.store() else {
            return;
        };
        let now = store.stats().journal_bytes;
        // A compaction rewrites the journal: its whole new length was
        // written. Otherwise the journal only grows by appends.
        self.journal += if compacted { now } else { now.saturating_sub(self.last_journal) };
        self.last_journal = now;
    }
}

/// Runs one episode on a freshly set-up controller and returns what it
/// measured. Arrivals stop at `spec.duration`; the episode drains until
/// every call has ended.
pub fn drive(c: &mut Controller, spec: &DesSpec, seed: u64, tracer: &mut Tracer) -> Episode {
    let mut ep = Episode::default();
    let mut rng = SimRng::seed_from(seed);
    let workload = WorkloadConfig {
        threads: spec.threads,
        interarrival_mean: spec.interarrival,
        poll_period: SimDuration::from_secs(10),
        ..WorkloadConfig::default()
    };
    let mut client = DesClient::new(workload, rng.bits(), true);
    let audit_period = AuditConfig::default().periodic_interval;
    let heartbeat = SupervisorConfig::default().heartbeat.interval;
    let arrivals_end = SimTime::ZERO + spec.duration;
    let end = arrivals_end + DRAIN;

    let mut workers: Vec<Worker> = (0..spec.workers)
        .map(|i| Worker { pid: c.spawn_client(&format!("worker-{i}"), SimTime::ZERO), call: None })
        .collect();

    let mut q: EventQueue<Ev> = EventQueue::new();
    let first = SimTime::ZERO + client.next_arrival_gap();
    q.schedule(first, Ev::Arrival(first));
    q.schedule(SimTime::ZERO + audit_period, Ev::Cycle);
    q.schedule(SimTime::ZERO + heartbeat, Ev::Supervise);
    if let Some(iat) = spec.flip_iat {
        q.schedule(SimTime::ZERO + rng.exponential(iat), Ev::Flip);
    }
    if spec.workers > 0 {
        q.schedule(SimTime::ZERO + WORK_PERIOD, Ev::Work);
    }
    if let Some(iat) = spec.process_fault_iat {
        q.schedule(SimTime::ZERO + rng.exponential(iat), Ev::ProcessFault);
    }
    if spec.durable {
        q.schedule(SimTime::ZERO + CHECKPOINT_PERIOD, Ev::Checkpoint);
        q.schedule(SimTime::ZERO + STORAGE_AUDIT_PERIOD, Ev::StorageAudit);
        q.schedule(SimTime::ZERO + COMPACT_PERIOD, Ev::Compact);
    }

    let mut writes = WriteLedger::default();
    writes.observe(c, false);
    let mut busy_until = SimTime::ZERO;
    let mut injected = 0u64;
    let mut offered = 0u64;
    let mut setup_us: Vec<u64> = Vec::new();
    let mut captured = 0u64;
    let mut deferred = 0u64;
    let mut worker_drops = 0u64;
    let mut first_findings = FirstFindings::default();

    let loop_start = Instant::now();
    while let Some(at) = q.peek_time() {
        if at > end {
            break;
        }
        let (now, ev) = q.pop().expect("peeked");
        match ev {
            Ev::Arrival(due) => {
                // Repairs hold the controller busy; a due arrival waits
                // and the wait counts toward its setup latency.
                if now < busy_until {
                    q.schedule(busy_until, Ev::Arrival(due));
                    continue;
                }
                offered += 1;
                let started = tracer.span("callproc.start_call", || {
                    client.start_call(&mut c.db, &mut c.api, &mut c.registry, now)
                });
                if let Some((handle, setup)) = started {
                    setup_us.push((now - due).as_micros() + setup.as_micros());
                    let hold = client.next_call_duration();
                    q.schedule(now + setup + hold, Ev::End(handle));
                    q.schedule(now + setup + client.config().poll_period, Ev::Poll(handle));
                }
                let next = now + client.next_arrival_gap();
                if next < arrivals_end {
                    q.schedule(next, Ev::Arrival(next));
                }
            }
            Ev::Poll(handle) => {
                let healthy = tracer.span("callproc.poll_call", || {
                    client.poll_call(&mut c.db, &mut c.api, &c.registry, handle, now)
                });
                if healthy {
                    q.schedule(now + client.config().poll_period, Ev::Poll(handle));
                }
            }
            Ev::End(handle) => {
                tracer.span("callproc.end_call", || {
                    client.end_call(&mut c.db, &mut c.api, &mut c.registry, handle, now)
                });
            }
            Ev::Cycle => {
                // One journal sync per audit period. The cycle syncs
                // again internally, but only the audit's own writes are
                // left for it by then.
                if spec.durable {
                    match tracer.stall("store.sync", || c.sync_store()) {
                        Ok(Some(report)) => captured += report.records as u64,
                        Ok(None) => {}
                        Err(e) => ep.op_error(format!("sync: {e}")),
                    }
                    writes.observe(c, false);
                }
                let out = tracer.stall("audit.cycle", || c.run_recovery_cycle(now));
                writes.observe(c, false);
                if let Some((report, outcome)) = out {
                    first_findings.observe(&c.db, &report.findings, now);
                    ep.record_cycle(&report);
                    deferred += outcome.deferred;
                    busy_until = busy_until.max(now + outcome.busy);
                }
                q.schedule(now + audit_period, Ev::Cycle);
            }
            Ev::Supervise => {
                let report = tracer.stall("supervisor.tick", || c.supervise_tick(now));
                for &(old, new) in report.iter().flat_map(|r| r.restarts.iter()) {
                    if let Some(w) = workers.iter_mut().find(|w| w.pid == old) {
                        w.pid = new;
                        if w.call.take().is_some() {
                            worker_drops += 1;
                            tracer.span("supervisor.note_dropped", || {
                                if let Some(s) = c.supervisor_mut() {
                                    s.note_dropped_calls(1);
                                }
                            });
                        }
                    }
                }
                writes.observe(c, false);
                q.schedule(now + heartbeat, Ev::Supervise);
            }
            Ev::Work => {
                for w in workers.iter_mut() {
                    if c.registry.responsiveness(w.pid) != Some(Responsiveness::Responsive) {
                        continue;
                    }
                    tracer.span("callproc.worker_step", || step_worker(w, c, now));
                    tracer.span("supervisor.note_progress", || {
                        if let Some(s) = c.supervisor_mut() {
                            s.note_progress(w.pid, now);
                        }
                    });
                }
                q.schedule(now + WORK_PERIOD, Ev::Work);
            }
            Ev::Flip => {
                let offset = rng.index(c.db.region_len());
                let bit = (rng.bits() % 8) as u8;
                tracer.span("inject.bit_flip", || c.inject_bit_flip(offset, bit, now));
                injected += 1;
                let iat = spec.flip_iat.expect("scheduled only with a rate");
                q.schedule(now + rng.exponential(iat), Ev::Flip);
            }
            Ev::ProcessFault => {
                tracer.span("inject.process_fault", || {
                    inject_process_fault(&mut rng, &workers, c, now);
                });
                ep.counters_add("supervisor.faults_injected", 1.0);
                let iat = spec.process_fault_iat.expect("scheduled only with a rate");
                q.schedule(now + rng.exponential(iat), Ev::ProcessFault);
            }
            Ev::Checkpoint => {
                match tracer.stall("store.checkpoint", || c.checkpoint()) {
                    Ok(_) => {
                        if let Some(entry) = c.store().and_then(|s| s.chain().last()) {
                            writes.checkpoint +=
                                std::fs::metadata(&entry.path).map(|m| m.len()).unwrap_or(0);
                        }
                    }
                    Err(e) => ep.op_error(format!("checkpoint: {e}")),
                }
                writes.observe(c, false);
                q.schedule(now + CHECKPOINT_PERIOD, Ev::Checkpoint);
            }
            Ev::StorageAudit => {
                match tracer.stall("store.storage_audit", || c.run_storage_audit(now)) {
                    Ok(findings) => {
                        let findings = findings.unwrap_or_default();
                        first_findings.observe(&c.db, &findings, now);
                        ep.counters_add("store.storage_findings", findings.len() as f64);
                    }
                    Err(e) => ep.op_error(format!("storage audit: {e}")),
                }
                writes.observe(c, false);
                q.schedule(now + STORAGE_AUDIT_PERIOD, Ev::StorageAudit);
            }
            Ev::Compact => {
                match tracer.stall("store.compact", || c.compact_store()) {
                    Ok(Some(reclaimed)) => {
                        ep.counters_add("store.reclaimed_bytes", reclaimed as f64);
                        writes.observe(c, reclaimed > 0);
                    }
                    Ok(None) => {}
                    Err(e) => ep.op_error(format!("compact: {e}")),
                }
                q.schedule(now + COMPACT_PERIOD, Ev::Compact);
            }
        }
    }
    ep.loop_ns = loop_start.elapsed().as_nanos() as u64;

    let stats = client.stats();
    ep.calls = stats.calls_completed_setup;
    if stats.calls_completed_setup + stats.calls_refused != offered {
        ep.violation(format!(
            "offered {offered} != completed {} + refused {}",
            stats.calls_completed_setup, stats.calls_refused
        ));
    }
    if client.active_calls() != 0 {
        ep.violation(format!("{} calls still active after the drain", client.active_calls()));
    }
    let failed = stats.calls_refused + stats.calls_dropped + stats.calls_corrupted;
    ep.set("calls.offered", offered as f64);
    ep.set("calls.failed", failed as f64);
    ep.set("callproc.calls_offered", offered as f64);
    ep.set("callproc.calls_refused", stats.calls_refused as f64);
    ep.set("callproc.calls_dropped", stats.calls_dropped as f64);
    ep.set("callproc.calls_corrupted", stats.calls_corrupted as f64);
    ep.set("callproc.worker_drops", worker_drops as f64);
    ep.setup_latency_us = setup_us;

    ep.set("db.api_ops", c.api.ops_performed() as f64);
    ep.set("db.events_shed", c.api.events_shed() as f64);
    ep.set("db.events_backpressured", c.api.events_backpressured() as f64);
    ep.set("db.captured_records", captured as f64);

    ep.set("recovery.deferred", deferred as f64);
    if let Some(engine) = c.recovery() {
        let s = engine.stats();
        ep.set("recovery.attempted", s.attempted as f64);
        ep.set("recovery.verified", s.verified as f64);
        ep.set("recovery.escalated", s.escalations as f64);
        ep.set("recovery.failed", s.failed as f64);
        ep.set("recovery.tokens_spent", s.tokens_spent as f64);
        for (name, n) in RUNG_NAMES.iter().zip(s.per_rung) {
            ep.set(name, n as f64);
        }
        ep.set("recovery.disk_refreshed_bytes", engine.disk_refreshed_bytes() as f64);
    }
    if let Some(sup) = c.supervisor() {
        let ledger = sup.ledger();
        ep.set("supervisor.restarts", ledger.restarts.len() as f64);
        ep.set("supervisor.controller_restarts", ledger.controller_restarts_executed as f64);
        ep.supervisor_detect_us =
            ledger.restarts.iter().map(|r| r.detection_latency().as_micros()).collect();
    }
    if let Some(store) = c.store() {
        let s = store.stats();
        ep.set("store.journal_records", s.journal_records as f64);
        ep.set("store.full_checkpoints", s.full_checkpoints as f64);
        ep.set("store.delta_checkpoints", s.delta_checkpoints as f64);
    }
    ep.set("store.journal_bytes", writes.journal as f64);
    ep.set("store.checkpoint_bytes", writes.checkpoint as f64);

    // Fault fates from the ground-truth taint ledger. A fault counts as
    // detected at its first finding, or at its repair when the repair
    // came in the same cycle as the finding (the ledger no longer shows
    // it as latent by the time the harness sees the report).
    let taint = c.db.taint();
    let (mut caught, mut escaped, mut overwritten) = (0u64, 0u64, 0u64);
    let mut escaped_after_detection = 0u64;
    for &(_, entry, fate) in taint.resolved() {
        let found = first_findings.at.get(&entry.id).copied();
        match fate {
            TaintFate::Caught { at } => {
                caught += 1;
                let detected = found.map_or(at, |f| f.min(at));
                ep.detect_us.push((detected - entry.at).as_micros());
            }
            TaintFate::Escaped { at } => {
                escaped += 1;
                if let Some(f) = found {
                    ep.detect_us.push((f - entry.at).as_micros());
                    if f <= at {
                        escaped_after_detection += 1;
                    }
                }
            }
            TaintFate::Overwritten { .. } => {
                overwritten += 1;
                if let Some(f) = found {
                    ep.detect_us.push((f - entry.at).as_micros());
                }
            }
        }
    }
    for (_, entry) in taint.latent() {
        if let Some(f) = first_findings.at.get(&entry.id) {
            ep.detect_us.push((*f - entry.at).as_micros());
        }
    }
    let latent = taint.latent_count() as u64;
    if caught + escaped + overwritten + latent != injected {
        ep.violation(format!(
            "caught {caught} + escaped {escaped} + overwritten {overwritten} + latent {latent} \
             != injected {injected}"
        ));
    }
    ep.set("faults.injected", injected as f64);
    ep.set("faults.caught", caught as f64);
    ep.set("faults.escaped", (escaped - escaped_after_detection) as f64);
    ep.set("faults.escaped_after_detection", escaped_after_detection as f64);
    ep.set("faults.overwritten", overwritten as f64);
    ep.set("faults.latent", latent as f64);
    ep
}

/// Ladder rung counter names, in [`wtnc::recovery::Rung::LADDER`] order.
const RUNG_NAMES: [&str; 5] = [
    "recovery.rung_field",
    "recovery.rung_record",
    "recovery.rung_table",
    "recovery.rung_client",
    "recovery.rung_controller",
];

/// When each injected fault was first named by a finding: the finding's
/// target bytes overlap the fault's taint.
#[derive(Debug, Default)]
struct FirstFindings {
    at: BTreeMap<u64, SimTime>,
}

impl FirstFindings {
    fn observe(&mut self, db: &Database, findings: &[Finding], now: SimTime) {
        for f in findings {
            let Some((offset, len)) = f.target.and_then(|t| target_extent(db, t)) else {
                continue;
            };
            for (_, entry) in db.taint().overlapping(offset, len) {
                self.at.entry(entry.id).or_insert(now);
            }
        }
    }
}

/// The bytes a finding's target covers.
fn target_extent(db: &Database, target: FindingTarget) -> Option<(usize, usize)> {
    match target {
        FindingTarget::Range { offset, len } => Some((offset, len)),
        FindingTarget::Header { table, record } => {
            db.record_offset(RecordRef::new(table, record)).ok().map(|o| (o, RECORD_HEADER_SIZE))
        }
        FindingTarget::Field { table, record, field } => {
            db.field_extent(RecordRef::new(table, record), FieldId(field)).ok()
        }
        FindingTarget::Record { table, record } => {
            let offset = db.record_offset(RecordRef::new(table, record)).ok()?;
            Some((offset, db.record_size(table).ok()?))
        }
        FindingTarget::Client { .. } => None,
    }
}

/// Advances one worker's transaction by one step: open (allocate,
/// lock, write) or close (read, unlock, free).
fn step_worker(w: &mut Worker, c: &mut Controller, now: SimTime) {
    let table = schema::CONNECTION_TABLE;
    match w.call.take() {
        None => {
            let Ok(index) = c.api.alloc_record(&mut c.db, w.pid, table, now) else {
                return;
            };
            if c.api.lock(RecordRef::new(table, index), w.pid, now).is_err() {
                let _ = c.api.free_record(&mut c.db, w.pid, table, index, now);
                return;
            }
            let caller = u64::from(w.pid.0);
            let field = schema::connection::CALLER_ID;
            let _ = c.api.write_fld(&mut c.db, w.pid, table, index, field, caller, now);
            w.call = Some(index);
        }
        Some(index) => {
            let field = schema::connection::CALLER_ID;
            let _ = c.api.read_fld(&mut c.db, w.pid, table, index, field, now);
            c.api.unlock(RecordRef::new(table, index), w.pid);
            let _ = c.api.free_record(&mut c.db, w.pid, table, index, now);
        }
    }
}

/// Hangs (holding a lock) or crashes one healthy supervised worker.
fn inject_process_fault(rng: &mut SimRng, workers: &[Worker], c: &mut Controller, now: SimTime) {
    let healthy: Vec<&Worker> = workers
        .iter()
        .filter(|w| {
            c.registry.responsiveness(w.pid) == Some(Responsiveness::Responsive)
                && !c.supervisor().is_some_and(|s| s.is_down(w.pid))
        })
        .collect();
    if healthy.is_empty() {
        return;
    }
    let w = healthy[rng.index(healthy.len())];
    if rng.chance(0.5) {
        c.registry.crash(w.pid, now);
        c.api.crash_client(w.pid);
    } else {
        if w.call.is_none() {
            let index = rng.index(8) as u32;
            let _ = c.api.lock(RecordRef::new(schema::CONNECTION_TABLE, index), w.pid, now);
        }
        c.registry.set_responsiveness(w.pid, Responsiveness::Hung);
    }
}
