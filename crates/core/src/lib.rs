//! # wtnc — the integrated dependability framework
//!
//! A Rust reproduction of *"A Framework for Database Audit and Control
//! Flow Checking for a Wireless Telephone Network Controller"* (DSN
//! 2001): an in-memory controller database protected by an extensible
//! audit subsystem, and call-processing clients protected by PECOS
//! preemptive control-flow checking, evaluated by software-implemented
//! fault injection.
//!
//! This crate is the paper's "common adaptive framework": it wires the
//! subsystems together behind one [`Controller`] facade and re-exports
//! each substrate as a module:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `wtnc-sim` | deterministic DES kernel, virtual time, seeded RNG |
//! | [`db`] | `wtnc-db` | the in-memory database, catalog, API, taint ledger |
//! | [`isa`] | `wtnc-isa` | the 32-bit RISC machine and assembler |
//! | [`pecos`] | `wtnc-pecos` | PECOS instrumentation and signal handling |
//! | [`audit`] | `wtnc-audit` | audit elements, triggers, scheduling, manager |
//! | [`callproc`] | `wtnc-callproc` | the DES and ISA call-processing clients |
//! | [`recovery`] | `wtnc-recovery` | staged detect→diagnose→repair→verify engine |
//! | [`inject`] | `wtnc-inject` | fault injection and the paper's campaigns |
//!
//! # Quickstart
//!
//! ```
//! use wtnc::{Controller, sim::SimTime};
//!
//! // A controller with the standard schema and the audit subsystem.
//! let mut controller = Controller::standard().with_audit(Default::default());
//!
//! // Something corrupts a configuration byte...
//! let offset = controller.db.catalog().catalog_len() + 16;
//! controller.inject_bit_flip(offset, 3, SimTime::from_secs(1));
//!
//! // ...and the next periodic audit cycle repairs it.
//! let report = controller.run_audit_cycle(SimTime::from_secs(10)).unwrap();
//! assert!(!report.findings.is_empty());
//! assert_eq!(controller.db.taint().latent_count(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wtnc_audit as audit;
pub use wtnc_callproc as callproc;
pub use wtnc_db as db;
pub use wtnc_inject as inject;
pub use wtnc_isa as isa;
pub use wtnc_pecos as pecos;
pub use wtnc_recovery as recovery;
pub use wtnc_sim as sim;
pub use wtnc_store as store;

use wtnc_audit::{
    AuditConfig, AuditProcess, AuditReport, HeartbeatElement, Manager, ManagerConfig,
    SupervisedRole, SupervisionReport, Supervisor, SupervisorConfig,
};
use wtnc_audit::{AuditElementKind, Finding, FindingTarget, RecoveryAction};
use wtnc_db::{Database, DbApi, DbError, TableDef, TaintEntry, TaintFate};
use wtnc_recovery::{CycleOutcome, RecoveryConfig, RecoveryEngine};
use wtnc_sim::{Pid, ProcessRegistry, SimTime};
use wtnc_store::{RecoveryInfo, Store, StoreConfig, StoreError, StoreFindingKind, StoreStats};

/// One store sync's outcome plus the store's running size counters: a
/// small copy-out struct the harness can log every cycle without
/// poking at store internals.
#[derive(Debug, Clone, Copy)]
pub struct StoreSyncReport {
    /// Journal records persisted by this sync.
    pub records: usize,
    /// The store's journal size and checkpoint/compaction counters
    /// after the sync.
    pub stats: StoreStats,
}

/// The assembled controller node: database, client API, process
/// registry, and (optionally) the manager-supervised audit process.
///
/// This is a facade for examples, tests and harnesses; the underlying
/// pieces stay public so advanced callers can drive them directly.
#[derive(Debug)]
pub struct Controller {
    /// The in-memory database.
    pub db: Database,
    /// The client-facing API (instrumented when audits are attached).
    pub api: DbApi,
    /// Simulated process registry.
    pub registry: ProcessRegistry,
    audit: Option<(Pid, AuditProcess)>,
    manager: Option<Manager>,
    recovery: Option<RecoveryEngine>,
    supervisor: Option<Supervisor>,
    durable: Option<Store>,
    last_recovery: Option<RecoveryInfo>,
    next_taint_id: u64,
}

impl Controller {
    /// Builds a controller from a schema (no audit subsystem yet).
    ///
    /// # Errors
    ///
    /// Propagates [`DbError::BadSchema`] from catalog construction.
    pub fn new(schema: Vec<TableDef>) -> Result<Self, DbError> {
        Ok(Controller {
            db: Database::build(schema)?,
            api: DbApi::new(),
            registry: ProcessRegistry::new(),
            audit: None,
            manager: None,
            recovery: None,
            supervisor: None,
            durable: None,
            last_recovery: None,
            next_taint_id: 1,
        })
    }

    /// Builds a controller with the standard telephone-controller
    /// schema.
    pub fn standard() -> Self {
        Self::new(wtnc_db::schema::standard_schema()).expect("standard schema is valid")
    }

    /// Attaches the audit subsystem and its supervising manager.
    pub fn with_audit(mut self, config: AuditConfig) -> Self {
        let pid = self.registry.spawn("audit", SimTime::ZERO);
        let audit = AuditProcess::new(config, &self.db);
        self.manager = Some(Manager::new(ManagerConfig::default(), pid));
        self.audit = Some((pid, audit));
        self
    }

    /// Attaches the staged recovery engine and switches the audit
    /// subsystem (which must already be attached) into detect-only
    /// mode: audit cycles flag anomalies instead of repairing inline,
    /// and [`Controller::run_audit_cycle`] hands the findings to the
    /// engine, which repairs under its token budget and verifies each
    /// repair by re-running the originating element.
    ///
    /// # Panics
    ///
    /// Panics if no audit subsystem is attached — the engine is the
    /// consumer half of the detect→repair loop and cannot run without
    /// the detector.
    pub fn with_recovery(mut self, config: RecoveryConfig) -> Self {
        let (_, audit) =
            self.audit.as_mut().expect("attach the audit subsystem before the recovery engine");
        audit.set_deferred_repair(true);
        self.recovery = Some(RecoveryEngine::new(config));
        self
    }

    /// The attached recovery engine, if any.
    pub fn recovery(&self) -> Option<&RecoveryEngine> {
        self.recovery.as_ref()
    }

    /// Attaches the process-level supervision loop. The audit process
    /// (when already attached) registers as a supervised process; call
    /// [`Controller::spawn_client`] to register clients and
    /// [`Controller::supervise_tick`] once per heartbeat interval.
    pub fn with_supervision(mut self, config: SupervisorConfig) -> Self {
        let mut supervisor = Supervisor::new(config);
        if let Some((pid, _)) = &self.audit {
            supervisor.register(*pid, SupervisedRole::Audit, false, SimTime::ZERO);
        }
        self.supervisor = Some(supervisor);
        self
    }

    /// Attaches a durable store rooted at `dir`: opens (and verifies)
    /// the on-disk journal and checkpoint chain, performs warm
    /// recovery into the database when durable state exists, and turns
    /// on journal capture so every subsequent mutation is persisted by
    /// [`Controller::sync_store`] / [`Controller::checkpoint`]. What
    /// recovery did (and found) is kept in
    /// [`Controller::recovery_info`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the store cannot be opened or a
    /// journaled record does not fit this controller's schema.
    pub fn with_store(
        mut self,
        dir: impl Into<std::path::PathBuf>,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        let mut store = Store::open(dir, config)?;
        if store.has_state() {
            self.last_recovery = Some(store.recover_into(&mut self.db)?);
        }
        store.attach(&mut self.db);
        self.durable = Some(store);
        Ok(self)
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.durable.as_ref()
    }

    /// What the last warm recovery did, if one ran at attach time or
    /// during a controller restart.
    pub fn recovery_info(&self) -> Option<&RecoveryInfo> {
        self.last_recovery.as_ref()
    }

    /// Drains captured mutations into the journal. Returns how many
    /// records were persisted plus the store's running size and
    /// compaction counters, or `None` when no store is attached.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the journal append fails.
    pub fn sync_store(&mut self) -> Result<Option<StoreSyncReport>, StoreError> {
        match self.durable.as_mut() {
            Some(store) => {
                let records = store.sync(&mut self.db)?;
                Ok(Some(StoreSyncReport { records, stats: store.stats() }))
            }
            None => Ok(None),
        }
    }

    /// Compacts the attached store's journal past the newest
    /// checkpoint. Returns the bytes reclaimed, or `None` when no
    /// store is attached.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the rotation fails.
    pub fn compact_store(&mut self) -> Result<Option<u64>, StoreError> {
        match self.durable.as_mut() {
            Some(store) => Ok(Some(store.compact()?)),
            None => Ok(None),
        }
    }

    /// Takes a checkpoint: syncs the journal, then writes the full
    /// database image as the next link of the golden-image hash chain.
    /// Returns the checkpoint generation, or `None` when no store is
    /// attached.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on write failure.
    pub fn checkpoint(&mut self) -> Result<Option<u64>, StoreError> {
        match self.durable.as_mut() {
            Some(store) => Ok(Some(store.checkpoint(&mut self.db)?)),
            None => Ok(None),
        }
    }

    /// Runs the storage audit element: syncs the journal, re-verifies
    /// the newest on-disk checkpoint (keyed per-block MACs + chain
    /// digest), and cross-checks the durable golden image against the
    /// in-memory one. Divergent golden blocks are repaired from the
    /// durable copy (action [`RecoveryAction::ReloadedRange`]); disk-side
    /// damage is flagged for the operator. Returns `None` when no
    /// store is attached.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the store cannot be read.
    pub fn run_storage_audit(&mut self, now: SimTime) -> Result<Option<Vec<Finding>>, StoreError> {
        let Some(store) = self.durable.as_mut() else {
            return Ok(None);
        };
        store.sync(&mut self.db)?;
        let store_findings = store.storage_audit(&self.db)?;
        let durable_golden = store.durable_golden_detail()?;
        let block = store.config().block_size.max(1);
        let mut findings = Vec::with_capacity(store_findings.len());
        for f in store_findings {
            let mut action = RecoveryAction::Flagged;
            let mut target = None;
            let mut detail = f.to_string();
            if f.kind == StoreFindingKind::GoldenDivergence {
                if let (Some(offset), Some(durable)) = (f.offset, durable_golden.as_ref()) {
                    let offset = offset as usize;
                    let end = (offset + block).min(durable.golden.len());
                    if offset < end
                        && self
                            .db
                            .restore_golden_range(offset, &durable.golden[offset..end])
                            .is_ok()
                    {
                        action = RecoveryAction::ReloadedRange { offset, len: end - offset };
                        target = Some(FindingTarget::Range { offset, len: end - offset });
                        // How the repair bytes were authenticated:
                        // checkpoint-pure blocks carry a Merkle path to
                        // the sealed root; journal-overlaid blocks are
                        // vouched only by their records' CRC framing.
                        detail.push_str(if durable.is_attested(offset) {
                            " [repair source merkle-attested]"
                        } else {
                            " [repair source journal-overlaid]"
                        });
                    }
                }
            }
            findings.push(Finding {
                element: AuditElementKind::Storage,
                at: now,
                table: None,
                record: None,
                detail,
                action,
                target,
                caught: Vec::new(),
            });
        }
        // Repairs mutate the golden image; persist them.
        store.sync(&mut self.db)?;
        Ok(Some(findings))
    }

    /// The attached supervisor, if any.
    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.supervisor.as_ref()
    }

    /// Mutable access to the attached supervisor (progress notes,
    /// dropped-call accounting).
    pub fn supervisor_mut(&mut self) -> Option<&mut Supervisor> {
        self.supervisor.as_mut()
    }

    /// Spawns a client process, opens its API connection, and (when
    /// supervision is attached) registers it as a supervised process
    /// with livelock watching enabled.
    pub fn spawn_client(&mut self, name: &str, now: SimTime) -> Pid {
        let pid = self.registry.spawn(name, now);
        self.api.init_at(pid, now);
        if let Some(supervisor) = self.supervisor.as_mut() {
            supervisor.register(pid, SupervisedRole::Client, true, now);
        }
        pid
    }

    /// One supervision tick: probes every supervised process, restarts
    /// condemned ones, and — when a restart storm escalates — executes
    /// the controller restart (database reloaded from the golden disk
    /// image, every process restarted). Restarted clients have their
    /// API connections re-opened; a restarted audit process gets a
    /// fresh heartbeat element and the audit handle re-binds to the
    /// new pid.
    pub fn supervise_tick(&mut self, now: SimTime) -> Option<SupervisionReport> {
        let supervisor = self.supervisor.as_mut()?;
        let audit_pid = self.audit.as_ref().map(|(pid, _)| *pid);
        let element = self.audit.as_mut().map(|(_, a)| a.heartbeat_mut());
        let mut report = supervisor.tick(&mut self.api, &mut self.registry, element, now);
        let mut restarts = report.restarts.clone();
        if report.controller_restart_requested {
            restarts.extend(self.execute_controller_restart(now));
            report.controller_restart_requested = false;
        }
        for &(old, new) in &restarts {
            if Some(old) == audit_pid {
                if let Some((pid, audit)) = self.audit.as_mut() {
                    *pid = new;
                    *audit.heartbeat_mut() = HeartbeatElement::new();
                }
            } else {
                // A warm-restarted client re-opens its connection:
                // state re-initialized from the database.
                self.api.init_at(new, now);
            }
        }
        report.restarts = restarts;
        Some(report)
    }

    /// The global action: restore the whole database image and restart
    /// every supervised process. With a durable store attached the
    /// image comes from *disk* — the golden half of the newest valid
    /// checkpoint carried forward by the journaled golden commits — and
    /// a fresh checkpoint is taken immediately so the post-restart
    /// state is itself recoverable; otherwise the in-memory golden
    /// image is reloaded. Returns the `(old, new)` pid mapping.
    fn execute_controller_restart(&mut self, now: SimTime) -> Vec<(Pid, Pid)> {
        let mut restored_from_disk = false;
        if let Some(store) = self.durable.as_mut() {
            // Persist the pre-restart history first, then rebuild both
            // halves of the image from the durable golden. Loading at
            // generation + 1 keeps the fresh checkpoint's file name
            // distinct from any existing link of the chain.
            let disk = store.sync(&mut self.db).and_then(|_| store.durable_golden());
            if let Ok(Some((_, golden))) = disk {
                let gen = self.db.mutation_generation() + 1;
                if self.db.load_image(&golden, &golden, gen).is_ok() {
                    restored_from_disk = store.checkpoint(&mut self.db).is_ok();
                }
            }
        }
        if !restored_from_disk {
            self.db.reload_all();
        }
        let len = self.db.region_len();
        // Corruption swept by the reload never reached anything.
        self.db.taint_mut().resolve_range(0, len, TaintFate::Overwritten { at: now });
        let supervisor = self.supervisor.as_mut().expect("supervision attached");
        supervisor.execute_controller_restart(&mut self.registry, &mut self.api, now)
    }

    /// Whether an audit process is attached and alive.
    pub fn audit_alive(&self) -> bool {
        self.audit.as_ref().is_some_and(|(pid, _)| self.registry.is_alive(*pid))
    }

    /// The attached audit process, if any.
    pub fn audit_mut(&mut self) -> Option<&mut AuditProcess> {
        self.audit.as_mut().map(|(_, a)| a)
    }

    /// Runs one audit cycle at `now`, if the audit process is attached
    /// and alive.
    pub fn run_audit_cycle(&mut self, now: SimTime) -> Option<AuditReport> {
        let (pid, audit) = self.audit.as_mut()?;
        if !self.registry.is_alive(*pid) {
            return None;
        }
        let pid = *pid;
        let report = audit.run_cycle(&mut self.db, &mut self.api, &mut self.registry, now);
        // A completed cycle is progress by the audit process.
        if let Some(supervisor) = self.supervisor.as_mut() {
            supervisor.note_progress(pid, now);
        }
        Some(report)
    }

    /// Runs one full detect→repair→verify round at `now`: an audit
    /// cycle (detect-only when the engine is attached), then one
    /// recovery-engine cycle over the flagged findings. Requires both
    /// the audit subsystem and the recovery engine
    /// ([`Controller::with_recovery`]).
    pub fn run_recovery_cycle(&mut self, now: SimTime) -> Option<(AuditReport, CycleOutcome)> {
        let report = self.run_audit_cycle(now)?;
        // With a durable store attached, repairs draw on the on-disk
        // golden image rather than trusting surviving memory.
        if let Some(store) = self.durable.as_mut() {
            let source = store
                .sync(&mut self.db)
                .and_then(|_| store.durable_golden_detail())
                .ok()
                .flatten()
                .map(|d| {
                    wtnc_recovery::DiskGoldenSource::with_attestation(
                        d.base_gen,
                        d.golden,
                        d.attested,
                        d.block_size,
                    )
                });
            if let Some(engine) = self.recovery.as_mut() {
                engine.set_disk_source(source);
            }
        }
        let engine = self.recovery.as_mut()?;
        engine.ingest(&report.findings, now);
        let (_, audit) = self.audit.as_mut().expect("audit attached");
        let outcome = engine.run_cycle(&mut self.db, &mut self.api, &mut self.registry, audit, now);
        Some((report, outcome))
    }

    /// One manager heartbeat round: queries the audit process's
    /// heartbeat element and restarts the process after repeated
    /// misses. Returns the new audit pid when a restart happened.
    pub fn manager_beat(&mut self, now: SimTime) -> Option<Pid> {
        let manager = self.manager.as_mut()?;
        let element = self.audit.as_mut().map(|(_, a)| a.heartbeat_mut());
        // The manager's findings (restarts, refused-restart controller
        // requests) are informational here; the facade exposes the
        // restart through its return value.
        let mut findings = Vec::new();
        let restarted = manager.beat(element, &mut self.registry, now, &mut findings);
        if let (Some(new_pid), Some((pid, audit))) = (restarted, self.audit.as_mut()) {
            *pid = new_pid;
            *audit.heartbeat_mut() = HeartbeatElement::new();
        }
        restarted
    }

    /// Simulates the audit process crashing (for failure-injection
    /// tests of the manager path).
    pub fn crash_audit_process(&mut self, now: SimTime) {
        if let Some((pid, _)) = &self.audit {
            self.registry.crash(*pid, now);
        }
    }

    /// Operator reconfiguration: writes a static configuration field,
    /// commits it to the golden disk image, and rebaselines the audit
    /// checksums — the full legitimate-change path, as opposed to
    /// corruption.
    ///
    /// # Errors
    ///
    /// Propagates the API's validation errors; the field must be
    /// static.
    pub fn reconfigure(
        &mut self,
        pid: Pid,
        table: wtnc_db::TableId,
        index: u32,
        field: wtnc_db::FieldId,
        value: u64,
        now: SimTime,
    ) -> Result<(), DbError> {
        self.api.reconfigure(&mut self.db, pid, table, index, field, value, now)?;
        if let Some((_, audit)) = self.audit.as_mut() {
            audit.rebaseline_static(&self.db);
        }
        Ok(())
    }

    /// Flips one bit of the database image and records the ground
    /// truth in the taint ledger. Returns the taint id.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside the database region or `bit > 7`.
    pub fn inject_bit_flip(&mut self, offset: usize, bit: u8, now: SimTime) -> u64 {
        let kind = self.db.classify_offset(offset);
        self.db.flip_bit(offset, bit).expect("offset within the database region");
        let id = self.next_taint_id;
        self.next_taint_id += 1;
        self.db.taint_mut().insert(offset, TaintEntry { id, at: now, kind });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_db::schema;

    #[test]
    fn facade_builds_and_audits() {
        let mut c = Controller::standard().with_audit(AuditConfig::default());
        assert!(c.audit_alive());
        let report = c.run_audit_cycle(SimTime::from_secs(10)).unwrap();
        assert!(report.findings.is_empty());
    }

    #[test]
    fn injected_error_is_caught() {
        let mut c = Controller::standard().with_audit(AuditConfig::default());
        let rec = wtnc_db::RecordRef::new(schema::SYSCONFIG_TABLE, 0);
        let (off, _) = c.db.field_extent(rec, schema::sysconfig::MAX_CALLS).unwrap();
        c.inject_bit_flip(off, 2, SimTime::from_secs(1));
        let report = c.run_audit_cycle(SimTime::from_secs(10)).unwrap();
        assert_eq!(report.caught_count(), 1);
        assert_eq!(c.db.taint().latent_count(), 0);
    }

    #[test]
    fn manager_restarts_crashed_audit() {
        let mut c = Controller::standard().with_audit(AuditConfig::default());
        c.crash_audit_process(SimTime::from_secs(5));
        assert!(!c.audit_alive());
        // Audit cycles refuse to run while dead.
        assert!(c.run_audit_cycle(SimTime::from_secs(6)).is_none());
        // Three missed heartbeats restart it.
        let mut restarted = None;
        for s in 6..12 {
            restarted = restarted.or(c.manager_beat(SimTime::from_secs(s)));
        }
        assert!(restarted.is_some());
        assert!(c.audit_alive());
        assert!(c.run_audit_cycle(SimTime::from_secs(12)).is_some());
    }

    #[test]
    fn recovery_engine_closes_the_loop() {
        let mut c = Controller::standard()
            .with_audit(AuditConfig::default())
            .with_recovery(Default::default());
        let rec = wtnc_db::RecordRef::new(schema::SYSCONFIG_TABLE, 0);
        let (off, _) = c.db.field_extent(rec, schema::sysconfig::MAX_CALLS).unwrap();
        c.inject_bit_flip(off, 2, SimTime::from_secs(1));
        let (report, outcome) = c.run_recovery_cycle(SimTime::from_secs(10)).unwrap();
        // Detect-only: the audit itself repaired nothing...
        assert_eq!(report.caught_count(), 0);
        // ...the engine did, and verified the repair.
        assert_eq!(outcome.verified, 1);
        assert_eq!(c.db.taint().latent_count(), 0);
        assert_eq!(c.recovery().unwrap().stats().verified, 1);
    }

    #[test]
    fn controller_without_audit_has_no_cycles() {
        let mut c = Controller::standard();
        assert!(!c.audit_alive());
        assert!(c.run_audit_cycle(SimTime::from_secs(1)).is_none());
        assert!(c.manager_beat(SimTime::from_secs(1)).is_none());
        assert!(c.supervise_tick(SimTime::from_secs(1)).is_none());
    }

    fn fast_supervision() -> wtnc_audit::SupervisorConfig {
        wtnc_audit::SupervisorConfig {
            storm_threshold: 2,
            backoff_base: wtnc_sim::SimDuration::from_secs(4),
            escalate_after_backoffs: 1,
            ..Default::default()
        }
    }

    #[test]
    fn supervision_restarts_hung_audit_process() {
        let mut c = Controller::standard()
            .with_audit(AuditConfig::default())
            .with_supervision(fast_supervision());
        let audit_pid = c
            .supervisor()
            .unwrap()
            .supervised()
            .find(|&(_, role)| role == wtnc_audit::SupervisedRole::Audit)
            .map(|(pid, _)| pid)
            .expect("audit registered");
        // Hang it: alive in the registry but silent.
        c.registry.set_responsiveness(audit_pid, wtnc_sim::Responsiveness::Hung);
        let mut restarted = Vec::new();
        for s in 1..=5 {
            let report = c.supervise_tick(SimTime::from_secs(s)).unwrap();
            restarted.extend(report.restarts);
        }
        assert_eq!(restarted.len(), 1);
        assert_eq!(restarted[0].0, audit_pid);
        assert!(c.audit_alive(), "the audit handle re-bound to the new pid");
        assert!(c.run_audit_cycle(SimTime::from_secs(6)).is_some());
        assert_eq!(
            c.supervisor().unwrap().ledger().restarts_by_cause(wtnc_audit::RestartCause::Hang),
            1
        );
    }

    #[test]
    fn supervision_steals_locks_from_hung_client() {
        let mut c = Controller::standard()
            .with_audit(AuditConfig::default())
            .with_supervision(fast_supervision());
        let client = c.spawn_client("cp-client", SimTime::ZERO);
        let rec = wtnc_db::RecordRef::new(schema::CONNECTION_TABLE, 0);
        c.api.lock(rec, client, SimTime::from_secs(1)).unwrap();
        c.registry.set_responsiveness(client, wtnc_sim::Responsiveness::Hung);
        let mut restarted = Vec::new();
        for s in 2..=5 {
            let report = c.supervise_tick(SimTime::from_secs(s)).unwrap();
            restarted.extend(report.restarts);
        }
        assert_eq!(restarted.len(), 1);
        assert!(c.api.locks().is_empty(), "the stolen lock was released");
        let ledger = c.supervisor().unwrap().ledger();
        assert_eq!(ledger.restarts.len(), 1);
        assert_eq!(ledger.restarts[0].locks_stolen, 1);
        assert!(c.registry.is_alive(restarted[0].1));
    }

    #[test]
    fn restart_storm_escalates_to_a_controller_restart() {
        let mut c = Controller::standard()
            .with_audit(AuditConfig::default())
            .with_supervision(fast_supervision());
        let mut client = c.spawn_client("cp-client", SimTime::ZERO);
        // Put dynamic state in the database so the global reload is
        // observable as a dropped call.
        let idx =
            c.api.alloc_record(&mut c.db, client, schema::CONNECTION_TABLE, SimTime::ZERO).unwrap();
        let rec = wtnc_db::RecordRef::new(schema::CONNECTION_TABLE, idx);
        assert!(c.db.is_active(rec).unwrap());
        // Crash the client the moment it comes back, until the ladder
        // escalates.
        let mut executed = false;
        for s in 1..300 {
            let now = SimTime::from_secs(s);
            if c.registry.is_alive(client) {
                c.registry.crash(client, now);
            }
            let report = c.supervise_tick(now).unwrap();
            for &(old, new) in &report.restarts {
                if old == client {
                    client = new;
                }
            }
            if c.supervisor().unwrap().ledger().controller_restarts_executed > 0 {
                executed = true;
                break;
            }
        }
        assert!(executed, "the storm must escalate to an executed controller restart");
        assert!(!c.db.is_active(rec).unwrap(), "the global reload sacrificed the dynamic state");
        assert!(c.audit_alive(), "everything restarted, including the audit process");
        let ledger = c.supervisor().unwrap().ledger();
        assert_eq!(ledger.controller_restarts_requested, 1);
        assert!(ledger.restarts_by_cause(wtnc_audit::RestartCause::Storm) >= 1);
    }

    #[test]
    fn store_round_trips_state_across_reopen() {
        let scratch = wtnc_store::ScratchDir::new("core-roundtrip");
        let region = {
            let mut c =
                Controller::standard().with_store(scratch.path(), StoreConfig::default()).unwrap();
            assert!(c.recovery_info().is_none(), "empty store: nothing to recover");
            let client = c.spawn_client("cp-client", SimTime::ZERO);
            c.api.alloc_record(&mut c.db, client, schema::CONNECTION_TABLE, SimTime::ZERO).unwrap();
            c.checkpoint().unwrap().expect("store attached");
            // More mutations after the checkpoint land only in the
            // journal — recovery must replay them.
            c.api
                .alloc_record(&mut c.db, client, schema::CONNECTION_TABLE, SimTime::from_secs(1))
                .unwrap();
            c.sync_store().unwrap();
            c.db.region().to_vec()
        };

        let c2 = Controller::standard().with_store(scratch.path(), StoreConfig::default()).unwrap();
        let info = c2.recovery_info().expect("warm recovery ran");
        assert!(info.base_gen > 0, "recovered from the checkpoint");
        assert!(info.replayed > 0, "journal tail replayed on top");
        assert!(info.findings.is_empty(), "clean history: {:?}", info.findings);
        assert_eq!(c2.db.region(), &region[..], "exact pre-shutdown image");
    }

    #[test]
    fn storage_audit_repairs_diverged_golden() {
        let scratch = wtnc_store::ScratchDir::new("core-storage-audit");
        let mut c =
            Controller::standard().with_store(scratch.path(), StoreConfig::default()).unwrap();
        c.checkpoint().unwrap();
        assert!(c.run_storage_audit(SimTime::from_secs(1)).unwrap().unwrap().is_empty());

        // Diverge the in-memory golden image without the store seeing
        // it (an unjournaled golden corruption).
        let offset = c.db.region_len() - 40;
        let before = c.db.golden()[offset];
        c.db.set_capture(false);
        c.db.restore_golden_range(offset, &[before ^ 0x20]).unwrap();
        c.db.set_capture(true);

        let findings = c.run_storage_audit(SimTime::from_secs(5)).unwrap().unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].element, AuditElementKind::Storage);
        assert!(matches!(findings[0].action, RecoveryAction::ReloadedRange { .. }));
        assert_eq!(c.db.golden()[offset], before, "repaired from the durable copy");
        assert!(c.run_storage_audit(SimTime::from_secs(6)).unwrap().unwrap().is_empty());
    }

    #[test]
    fn controller_restart_recovers_from_the_durable_golden() {
        let scratch = wtnc_store::ScratchDir::new("core-restart-disk");
        let mut c = Controller::standard()
            .with_audit(AuditConfig::default())
            .with_supervision(fast_supervision())
            .with_store(scratch.path(), StoreConfig::default())
            .unwrap();
        let mut client = c.spawn_client("cp-client", SimTime::ZERO);
        // A committed reconfiguration must survive the restart via the
        // durable golden image...
        let rec = wtnc_db::RecordRef::new(schema::SYSCONFIG_TABLE, 0);
        c.reconfigure(
            client,
            schema::SYSCONFIG_TABLE,
            0,
            schema::sysconfig::MAX_CALLS,
            777,
            SimTime::ZERO,
        )
        .unwrap();
        c.checkpoint().unwrap();
        // ...while uncommitted dynamic state is sacrificed, as in the
        // memory-only restart.
        let idx =
            c.api.alloc_record(&mut c.db, client, schema::CONNECTION_TABLE, SimTime::ZERO).unwrap();
        let dynamic = wtnc_db::RecordRef::new(schema::CONNECTION_TABLE, idx);
        let chain_before = c.store().unwrap().chain().len();

        let mut executed = false;
        for s in 1..300 {
            let now = SimTime::from_secs(s);
            if c.registry.is_alive(client) {
                c.registry.crash(client, now);
            }
            let report = c.supervise_tick(now).unwrap();
            for &(old, new) in &report.restarts {
                if old == client {
                    client = new;
                }
            }
            if c.supervisor().unwrap().ledger().controller_restarts_executed > 0 {
                executed = true;
                break;
            }
        }
        assert!(executed, "the storm must escalate to an executed controller restart");
        assert_eq!(
            c.db.read_field_raw(rec, schema::sysconfig::MAX_CALLS).unwrap(),
            777,
            "the committed reconfiguration came back from disk"
        );
        assert!(!c.db.is_active(dynamic).unwrap(), "dynamic state was sacrificed");
        assert!(
            c.store().unwrap().chain().len() > chain_before,
            "the restart took a fresh checkpoint of the recovered state"
        );
        // The post-restart state is itself recoverable.
        drop(c);
        let c2 = Controller::standard().with_store(scratch.path(), StoreConfig::default()).unwrap();
        assert_eq!(c2.db.read_field_raw(rec, schema::sysconfig::MAX_CALLS).unwrap(), 777);
        assert_eq!(c2.recovery_info().unwrap().findings.len(), 0);
    }
}
