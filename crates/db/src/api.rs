//! The client-facing database API (`DBinit` … `DBmove`).
//!
//! This is the "modified" API of the paper: besides performing the
//! requested operation it (a) maintains and manipulates record locks
//! transparently, (b) sends a message to the audit process on every
//! call (the event channel of Figure 1), and (c) maintains the shadow
//! metadata — last writer, last access time, access counters — that the
//! audit's diagnosis and prioritization rely on. All of that costs
//! time, which is exactly what the paper's Figure 4 measures; the
//! instrumentation can be disabled to obtain the "original" API.
//!
//! Unlike the audit (which holds trusted layout knowledge), the API
//! validates and uses the **in-region system catalog** on every call,
//! so catalog corruption genuinely breaks client operations.

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};
use wtnc_sim::{Enqueue, FairQueue, Pid, SimDuration, SimTime};

use crate::catalog::{Catalog, FieldId, TableId};
use crate::database::{Database, RecordRef};
use crate::error::DbError;
use crate::events::{DbEvent, DbOp};
use crate::layout::{
    read_le, write_le, HDR_GROUP, HDR_NEXT, HDR_PREV, HDR_STATUS, LINK_NONE, STATUS_ACTIVE,
};
use crate::taint::TaintFate;

/// Simulated execution cost of each API primitive: the base cost of
/// the original function plus the fractional overhead added by the
/// audit instrumentation. Defaults approximate the paper's Figure 4
/// (microseconds on a Sun UltraSPARC-2; only relative magnitudes
/// matter).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApiCosts {
    /// Base cost of `DBinit` and its instrumentation overhead fraction.
    pub init: (SimDuration, f64),
    /// Base cost of `DBclose`.
    pub close: (SimDuration, f64),
    /// Base cost of `DBread_rec`.
    pub read_rec: (SimDuration, f64),
    /// Base cost of `DBread_fld`.
    pub read_fld: (SimDuration, f64),
    /// Base cost of `DBwrite_rec`.
    pub write_rec: (SimDuration, f64),
    /// Base cost of `DBwrite_fld`.
    pub write_fld: (SimDuration, f64),
    /// Base cost of `DBmove`.
    pub mov: (SimDuration, f64),
}

impl Default for ApiCosts {
    fn default() -> Self {
        let us = SimDuration::from_micros;
        ApiCosts {
            init: (us(620), 0.065),
            close: (us(155), 0.191),
            read_rec: (us(150), 0.105),
            read_fld: (us(110), 0.103),
            write_rec: (us(310), 0.452),
            write_fld: (us(235), 0.294),
            mov: (us(210), 0.258),
        }
    }
}

impl ApiCosts {
    /// Cost of one invocation of `op`, with or without the audit
    /// instrumentation.
    pub fn cost(&self, op: DbOp, instrumented: bool) -> SimDuration {
        let (base, ovh) = match op {
            DbOp::Init => self.init,
            DbOp::Close => self.close,
            DbOp::ReadRec => self.read_rec,
            DbOp::ReadFld => self.read_fld,
            DbOp::WriteRec | DbOp::Alloc | DbOp::Free => self.write_rec,
            DbOp::WriteFld => self.write_fld,
            DbOp::Move => self.mov,
        };
        if instrumented {
            SimDuration::from_secs_f64(base.as_secs_f64() * (1.0 + ovh))
        } else {
            base
        }
    }
}

/// The record-lock table the API manages transparently for its
/// clients. Locks are keyed by record and owned by a client process;
/// the acquisition time supports the progress indicator's stale-lock
/// recovery.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    locks: HashMap<(TableId, u32), (Pid, SimTime)>,
}

impl LockTable {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires the lock on `rec` for `pid` (re-entrant for the same
    /// owner).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::LockHeld`] if another client holds it.
    pub fn acquire(&mut self, rec: RecordRef, pid: Pid, now: SimTime) -> Result<(), DbError> {
        match self.locks.get(&(rec.table, rec.index)) {
            Some(&(holder, _)) if holder != pid => {
                Err(DbError::LockHeld { table: rec.table, index: rec.index, holder })
            }
            Some(_) => Ok(()),
            None => {
                self.locks.insert((rec.table, rec.index), (pid, now));
                Ok(())
            }
        }
    }

    /// Releases the lock on `rec` if `pid` holds it. Returns whether a
    /// lock was released.
    pub fn release(&mut self, rec: RecordRef, pid: Pid) -> bool {
        match self.locks.get(&(rec.table, rec.index)) {
            Some(&(holder, _)) if holder == pid => {
                self.locks.remove(&(rec.table, rec.index));
                true
            }
            _ => false,
        }
    }

    /// Releases every lock held by `pid` (client exit or recovery
    /// action), returning how many were released.
    pub fn release_all(&mut self, pid: Pid) -> usize {
        let before = self.locks.len();
        self.locks.retain(|_, &mut (holder, _)| holder != pid);
        before - self.locks.len()
    }

    /// Current holder of the lock on `rec`.
    pub fn holder(&self, rec: RecordRef) -> Option<Pid> {
        self.locks.get(&(rec.table, rec.index)).map(|&(p, _)| p)
    }

    /// Locks held longer than `threshold` as of `now`: the candidates
    /// for progress-indicator recovery.
    pub fn stale(&self, now: SimTime, threshold: SimDuration) -> Vec<(RecordRef, Pid, SimTime)> {
        let mut out: Vec<_> = self
            .locks
            .iter()
            .filter(|&(_, &(_, since))| now.saturating_since(since) > threshold)
            .map(|(&(t, i), &(p, since))| (RecordRef::new(t, i), p, since))
            .collect();
        out.sort_by_key(|&(r, _, _)| (r.table, r.index));
        out
    }

    /// Every lock held by `pid`, sorted by `(table, index)`. The
    /// supervision tier uses this to report exactly which locks it is
    /// about to steal from a condemned client before `release_all`.
    pub fn held_by(&self, pid: Pid) -> Vec<RecordRef> {
        let mut out: Vec<_> = self
            .locks
            .iter()
            .filter(|&(_, &(holder, _))| holder == pid)
            .map(|(&(t, i), _)| RecordRef::new(t, i))
            .collect();
        out.sort_by_key(|&r| (r.table, r.index));
        out
    }

    /// Number of held locks.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// True when no locks are held.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }
}

/// Sizing of the IPC event queue between the database API and the
/// audit process.
///
/// The queue is a [`FairQueue`]: `capacity` bounds the total backlog
/// the audit process can ever face, and `lane_capacity` bounds any one
/// client's share of it, so a super-producer saturates only its own
/// lane. Producers rejected by global congestion are told to retry
/// after `retry_after`.
///
/// Both capacities must be non-zero: [`FairQueue::new`] **panics** on
/// a zero capacity rather than silently misbehave as an always-full or
/// always-dropping queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpcConfig {
    /// Total undelivered-event bound across all producers.
    pub capacity: usize,
    /// Per-producer bound (a single client's maximum share).
    pub lane_capacity: usize,
    /// Retry delay suggested to backpressured producers.
    pub retry_after: SimDuration,
}

impl Default for IpcConfig {
    fn default() -> Self {
        // The historical queue size, now split into four fair lanes.
        IpcConfig {
            capacity: 65_536,
            lane_capacity: 16_384,
            retry_after: SimDuration::from_millis(10),
        }
    }
}

/// The database API instance shared by all clients of one controller
/// node.
#[derive(Debug)]
pub struct DbApi {
    connections: BTreeSet<Pid>,
    locks: LockTable,
    events: FairQueue<DbEvent>,
    costs: ApiCosts,
    instrumented: bool,
    cost_accum: SimDuration,
    ops_performed: u64,
}

impl Default for DbApi {
    fn default() -> Self {
        Self::new()
    }
}

impl DbApi {
    /// Creates an API instance with audit instrumentation enabled,
    /// default costs and the default event-queue sizing.
    pub fn new() -> Self {
        Self::with_ipc(IpcConfig::default())
    }

    /// Creates an API instance with an explicit event-queue sizing.
    ///
    /// # Panics
    ///
    /// Panics if `ipc.capacity` or `ipc.lane_capacity` is zero (see
    /// [`IpcConfig`]).
    pub fn with_ipc(ipc: IpcConfig) -> Self {
        DbApi {
            connections: BTreeSet::new(),
            locks: LockTable::new(),
            events: FairQueue::new(ipc.capacity, ipc.lane_capacity, ipc.retry_after),
            costs: ApiCosts::default(),
            instrumented: true,
            cost_accum: SimDuration::ZERO,
            ops_performed: 0,
        }
    }

    /// Creates an API instance with the given total event-queue
    /// capacity, keeping the default 4-lane fairness split.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (see [`IpcConfig`]).
    pub fn with_event_capacity(capacity: usize) -> Self {
        Self::with_ipc(IpcConfig {
            capacity,
            lane_capacity: (capacity / 4).max(1),
            ..IpcConfig::default()
        })
    }

    /// Creates the "original" API with all audit instrumentation
    /// disabled (no events, no shadow metadata, base costs).
    pub fn without_instrumentation() -> Self {
        let mut api = Self::new();
        api.instrumented = false;
        api
    }

    /// Overrides the cost model.
    pub fn set_costs(&mut self, costs: ApiCosts) {
        self.costs = costs;
    }

    /// Whether audit instrumentation is active.
    pub fn is_instrumented(&self) -> bool {
        self.instrumented
    }

    /// The event queue towards the audit process. The audit main
    /// thread drains this.
    pub fn events_mut(&mut self) -> &mut FairQueue<DbEvent> {
        &mut self.events
    }

    /// Read-only view of the event queue. A supervision tier taps the
    /// pending traffic through this without stealing messages from the
    /// audit process, which remains the queue's consumer.
    pub fn events(&self) -> &FairQueue<DbEvent> {
        &self.events
    }

    /// Posts a raw event on behalf of a client, returning the explicit
    /// [`Enqueue`] verdict. This is the client-visible IPC path: a
    /// flooding client sees `Shed` once its own lane is full and
    /// `Backpressure` when the queue as a whole is congested, and the
    /// caller decides whether to retry. Internal API notifications use
    /// the same queue, so its drop/shed accounting covers both paths.
    pub fn post_event(
        &mut self,
        pid: Pid,
        op: DbOp,
        table: Option<TableId>,
        record: Option<u32>,
        at: SimTime,
    ) -> Enqueue {
        self.events.try_send(pid, DbEvent { at, pid, op, table, record })
    }

    /// Events shed at a producer's lane bound since construction.
    pub fn events_shed(&self) -> u64 {
        self.events.shed()
    }

    /// Enqueue attempts rejected with a retry hint since construction.
    pub fn events_backpressured(&self) -> u64 {
        self.events.backpressured()
    }

    /// The lock table (progress indicator reads it; recovery releases
    /// through it).
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// Mutable lock table access for recovery actions.
    pub fn locks_mut(&mut self) -> &mut LockTable {
        &mut self.locks
    }

    /// Simulated execution time consumed by API calls since the last
    /// [`DbApi::take_cost`].
    pub fn take_cost(&mut self) -> SimDuration {
        std::mem::take(&mut self.cost_accum)
    }

    /// Total operations performed (successful or not) since creation.
    pub fn ops_performed(&self) -> u64 {
        self.ops_performed
    }

    fn charge(&mut self, op: DbOp) {
        self.cost_accum += self.costs.cost(op, self.instrumented);
        self.ops_performed += 1;
    }

    fn notify(
        &mut self,
        pid: Pid,
        op: DbOp,
        table: Option<TableId>,
        record: Option<u32>,
        at: SimTime,
    ) {
        if self.instrumented {
            // The fair queue accounts for every rejected event (shed
            // or backpressured), so nothing is lost silently even when
            // a storm saturates the audit IPC path.
            let _ = self.events.try_send(pid, DbEvent { at, pid, op, table, record });
        }
    }

    fn require_connection(&self, pid: Pid) -> Result<(), DbError> {
        if self.connections.contains(&pid) {
            Ok(())
        } else {
            Err(DbError::NotConnected(pid))
        }
    }

    /// `DBinit`: opens a client connection.
    pub fn init(&mut self, pid: Pid) {
        self.charge(DbOp::Init);
        self.connections.insert(pid);
        self.notify(pid, DbOp::Init, None, None, SimTime::ZERO);
    }

    /// `DBinit` at a known simulation time.
    pub fn init_at(&mut self, pid: Pid, at: SimTime) {
        self.charge(DbOp::Init);
        self.connections.insert(pid);
        self.notify(pid, DbOp::Init, None, None, at);
    }

    /// `DBclose`: closes a client connection and releases its locks.
    pub fn close(&mut self, pid: Pid, at: SimTime) {
        self.charge(DbOp::Close);
        self.connections.remove(&pid);
        self.locks.release_all(pid);
        self.notify(pid, DbOp::Close, None, None, at);
    }

    /// Simulates a client that terminates prematurely **without**
    /// committing: the connection vanishes but its locks stay behind —
    /// the deadlock scenario the progress indicator exists to resolve.
    pub fn crash_client(&mut self, pid: Pid) {
        self.connections.remove(&pid);
        // Locks intentionally not released.
    }

    /// Validates the in-region catalog entry for `table`, resolving any
    /// consumed taints (a client that trips over corrupted catalog
    /// bytes has been affected by the error).
    fn region_entry(
        &mut self,
        db: &mut Database,
        table: TableId,
        at: SimTime,
    ) -> Result<crate::catalog::RegionTableEntry, DbError> {
        let res = Catalog::read_region_entry(db.region(), table);
        if res.is_err() {
            // The failed validation *consumed* corrupted catalog bytes:
            // mark the bytes it actually examined — the catalog header
            // plus this table's descriptors — as escaped. Corruption in
            // unexamined catalog bytes (other tables, range metadata)
            // stays latent for the static-data audit to catch.
            db.taint_mut().resolve_range(
                0,
                crate::layout::CATALOG_HEADER_SIZE,
                TaintFate::Escaped { at },
            );
            if let Ok(tm) = db.catalog().table(table) {
                let (d, fd, nf) = (tm.desc_offset, tm.field_desc_offset, tm.def.fields.len());
                db.taint_mut().resolve_range(
                    d,
                    crate::layout::TABLE_DESC_SIZE,
                    TaintFate::Escaped { at },
                );
                db.taint_mut().resolve_range(
                    fd,
                    nf * crate::layout::FIELD_DESC_SIZE,
                    TaintFate::Escaped { at },
                );
            }
        }
        res
    }

    fn record_base(
        entry: &crate::catalog::RegionTableEntry,
        table: TableId,
        index: u32,
    ) -> Result<usize, DbError> {
        if index >= entry.record_count {
            return Err(DbError::BadRecordIndex { table, index, capacity: entry.record_count });
        }
        Ok(entry.offset + entry.record_size * index as usize)
    }

    fn require_active(
        &mut self,
        db: &mut Database,
        table: TableId,
        index: u32,
        base: usize,
        at: SimTime,
    ) -> Result<(), DbError> {
        let status = db.peek(base + HDR_STATUS, 1)?[0];
        if status != STATUS_ACTIVE {
            // A corrupted status byte that makes an active record look
            // free has now affected the client; only the status byte
            // was consulted.
            db.taint_mut().resolve_range(base + HDR_STATUS, 1, TaintFate::Escaped { at });
            return Err(DbError::RecordFree(table, index));
        }
        Ok(())
    }

    /// `DBread_rec`: reads every field of an active record.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NotConnected`], [`DbError::CatalogCorrupt`],
    /// [`DbError::BadRecordIndex`], [`DbError::RecordFree`],
    /// [`DbError::LockHeld`] or [`DbError::OutOfBounds`].
    pub fn read_rec(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        at: SimTime,
    ) -> Result<Vec<u64>, DbError> {
        self.charge(DbOp::ReadRec);
        self.require_connection(pid)?;
        let entry = self.region_entry(db, table, at)?;
        let base = Self::record_base(&entry, table, index)?;
        if let Some(holder) = self.locks.holder(RecordRef::new(table, index)) {
            if holder != pid {
                return Err(DbError::LockHeld { table, index, holder });
            }
        }
        self.require_active(db, table, index, base, at)?;
        let mut values = Vec::with_capacity(entry.field_count);
        for fi in 0..entry.field_count {
            let f = Catalog::read_region_field(db.region(), table, &entry, FieldId(fi as u16))?;
            let bytes = db.peek(base + f.offset_in_record, f.width.bytes())?;
            values.push(read_le(bytes, f.width.bytes()));
        }
        // The whole record (header + data) has been consumed.
        db.taint_mut().resolve_range(base, entry.record_size, TaintFate::Escaped { at });
        if self.instrumented {
            db.note_access(RecordRef::new(table, index), pid, at, false);
        }
        self.notify(pid, DbOp::ReadRec, Some(table), Some(index), at);
        Ok(values)
    }

    /// `DBread_fld`: reads one field of an active record.
    ///
    /// # Errors
    ///
    /// As for [`DbApi::read_rec`], plus [`DbError::UnknownField`].
    pub fn read_fld(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        field: FieldId,
        at: SimTime,
    ) -> Result<u64, DbError> {
        self.charge(DbOp::ReadFld);
        self.require_connection(pid)?;
        let entry = self.region_entry(db, table, at)?;
        let base = Self::record_base(&entry, table, index)?;
        if let Some(holder) = self.locks.holder(RecordRef::new(table, index)) {
            if holder != pid {
                return Err(DbError::LockHeld { table, index, holder });
            }
        }
        self.require_active(db, table, index, base, at)?;
        let f = Catalog::read_region_field(db.region(), table, &entry, field)?;
        let bytes = db.peek(base + f.offset_in_record, f.width.bytes())?;
        let value = read_le(bytes, f.width.bytes());
        db.taint_mut().resolve_range(
            base + f.offset_in_record,
            f.width.bytes(),
            TaintFate::Escaped { at },
        );
        // Consulting the status byte consumed the header too.
        db.taint_mut().resolve_range(base + HDR_STATUS, 1, TaintFate::Escaped { at });
        if self.instrumented {
            db.note_access(RecordRef::new(table, index), pid, at, false);
        }
        self.notify(pid, DbOp::ReadFld, Some(table), Some(index), at);
        Ok(value)
    }

    /// `DBwrite_rec`: writes every field of an active record.
    ///
    /// # Errors
    ///
    /// As for [`DbApi::read_rec`]; additionally the value slice must
    /// have one entry per field or [`DbError::BadSchema`] is returned.
    pub fn write_rec(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        values: &[u64],
        at: SimTime,
    ) -> Result<(), DbError> {
        self.charge(DbOp::WriteRec);
        self.require_connection(pid)?;
        let entry = self.region_entry(db, table, at)?;
        let base = Self::record_base(&entry, table, index)?;
        if values.len() != entry.field_count {
            return Err(DbError::BadSchema(format!(
                "write_rec got {} values for {} fields",
                values.len(),
                entry.field_count
            )));
        }
        let rec = RecordRef::new(table, index);
        let held_before = self.locks.holder(rec) == Some(pid);
        self.locks.acquire(rec, pid, at)?;
        let result = (|| {
            self.require_active(db, table, index, base, at)?;
            for (fi, &v) in values.iter().enumerate() {
                let f = Catalog::read_region_field(db.region(), table, &entry, FieldId(fi as u16))?;
                let (off, w) = (base + f.offset_in_record, f.width.bytes());
                // Legitimate data replaces corrupted data.
                db.taint_mut().resolve_range(off, w, TaintFate::Overwritten { at });
                let mut buf = [0u8; 8];
                write_le(&mut buf, w, v);
                db.poke(off, &buf[..w])?;
            }
            Ok(())
        })();
        if !held_before {
            self.locks.release(rec, pid);
        }
        result?;
        if self.instrumented {
            db.note_access(rec, pid, at, true);
        }
        self.notify(pid, DbOp::WriteRec, Some(table), Some(index), at);
        Ok(())
    }

    /// `DBwrite_fld`: writes one field of an active record.
    ///
    /// # Errors
    ///
    /// As for [`DbApi::read_fld`].
    #[allow(clippy::too_many_arguments)]
    pub fn write_fld(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        field: FieldId,
        value: u64,
        at: SimTime,
    ) -> Result<(), DbError> {
        self.charge(DbOp::WriteFld);
        self.require_connection(pid)?;
        let entry = self.region_entry(db, table, at)?;
        let base = Self::record_base(&entry, table, index)?;
        let rec = RecordRef::new(table, index);
        let held_before = self.locks.holder(rec) == Some(pid);
        self.locks.acquire(rec, pid, at)?;
        let result = (|| {
            self.require_active(db, table, index, base, at)?;
            let f = Catalog::read_region_field(db.region(), table, &entry, field)?;
            let (off, w) = (base + f.offset_in_record, f.width.bytes());
            db.taint_mut().resolve_range(off, w, TaintFate::Overwritten { at });
            let mut buf = [0u8; 8];
            write_le(&mut buf, w, value);
            db.poke(off, &buf[..w])?;
            Ok(())
        })();
        if !held_before {
            self.locks.release(rec, pid);
        }
        result?;
        if self.instrumented {
            db.note_access(rec, pid, at, true);
        }
        self.notify(pid, DbOp::WriteFld, Some(table), Some(index), at);
        Ok(())
    }

    /// `DBmove`: moves an active record to another logical group,
    /// relinking the doubly linked neighbour chain.
    ///
    /// # Errors
    ///
    /// As for [`DbApi::read_rec`].
    pub fn move_rec(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        new_group: u8,
        at: SimTime,
    ) -> Result<(), DbError> {
        self.charge(DbOp::Move);
        self.require_connection(pid)?;
        let entry = self.region_entry(db, table, at)?;
        let base = Self::record_base(&entry, table, index)?;
        let rec = RecordRef::new(table, index);
        let held_before = self.locks.holder(rec) == Some(pid);
        self.locks.acquire(rec, pid, at)?;
        let result = (|| {
            self.require_active(db, table, index, base, at)?;
            // Unlink from the old chain.
            let next = read_le(db.peek(base + HDR_NEXT, 2)?, 2) as u16;
            let prev = read_le(db.peek(base + HDR_PREV, 2)?, 2) as u16;
            if next != LINK_NONE && (next as u32) < entry.record_count {
                let nb = entry.offset + entry.record_size * next as usize;
                let mut buf = [0u8; 2];
                write_le(&mut buf, 2, prev as u64);
                db.poke(nb + HDR_PREV, &buf)?;
            }
            if prev != LINK_NONE && (prev as u32) < entry.record_count {
                let pb = entry.offset + entry.record_size * prev as usize;
                let mut buf = [0u8; 2];
                write_le(&mut buf, 2, next as u64);
                db.poke(pb + HDR_NEXT, &buf)?;
            }
            // Find the head of the target group to insert before.
            let mut head: Option<u32> = None;
            for i in 0..entry.record_count {
                if i == index {
                    continue;
                }
                let b = entry.offset + entry.record_size * i as usize;
                if db.peek(b + HDR_STATUS, 1)?[0] == STATUS_ACTIVE
                    && db.peek(b + HDR_GROUP, 1)?[0] == new_group
                {
                    head = Some(i);
                    break;
                }
            }
            let mut buf = [0u8; 2];
            match head {
                Some(h) => {
                    let hb = entry.offset + entry.record_size * h as usize;
                    let h_prev = read_le(db.peek(hb + HDR_PREV, 2)?, 2) as u16;
                    // Insert `index` between h's predecessor and h.
                    write_le(&mut buf, 2, h as u64);
                    db.poke(base + HDR_NEXT, &buf)?;
                    write_le(&mut buf, 2, h_prev as u64);
                    db.poke(base + HDR_PREV, &buf)?;
                    write_le(&mut buf, 2, index as u64);
                    db.poke(hb + HDR_PREV, &buf)?;
                    if h_prev != LINK_NONE && (h_prev as u32) < entry.record_count {
                        let qb = entry.offset + entry.record_size * h_prev as usize;
                        write_le(&mut buf, 2, index as u64);
                        db.poke(qb + HDR_NEXT, &buf)?;
                    }
                }
                None => {
                    write_le(&mut buf, 2, LINK_NONE as u64);
                    db.poke(base + HDR_NEXT, &buf)?;
                    db.poke(base + HDR_PREV, &buf)?;
                }
            }
            db.poke(base + HDR_GROUP, &[new_group])?;
            Ok(())
        })();
        if !held_before {
            self.locks.release(rec, pid);
        }
        result?;
        if self.instrumented {
            db.note_access(rec, pid, at, true);
        }
        self.notify(pid, DbOp::Move, Some(table), Some(index), at);
        Ok(())
    }

    /// Allocates a record in `table` (write-class operation used at
    /// call setup).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NotConnected`], [`DbError::CatalogCorrupt`]
    /// or [`DbError::TableFull`].
    pub fn alloc_record(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        at: SimTime,
    ) -> Result<u32, DbError> {
        self.charge(DbOp::Alloc);
        self.require_connection(pid)?;
        self.region_entry(db, table, at)?;
        let index = db.alloc_record_raw(table)?;
        // Fresh formatting overwrites any corruption in the slot.
        let tm = db.catalog().table(table)?;
        let (off, len) = (tm.record_offset(index), tm.record_size);
        db.taint_mut().resolve_range(off, len, TaintFate::Overwritten { at });
        if self.instrumented {
            db.note_access(RecordRef::new(table, index), pid, at, true);
        }
        self.notify(pid, DbOp::Alloc, Some(table), Some(index), at);
        Ok(index)
    }

    /// Frees a record in `table` (write-class operation used at call
    /// teardown).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NotConnected`], [`DbError::CatalogCorrupt`],
    /// [`DbError::BadRecordIndex`] or [`DbError::LockHeld`].
    pub fn free_record(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        at: SimTime,
    ) -> Result<(), DbError> {
        self.charge(DbOp::Free);
        self.require_connection(pid)?;
        self.region_entry(db, table, at)?;
        let rec = RecordRef::new(table, index);
        if let Some(holder) = self.locks.holder(rec) {
            if holder != pid {
                return Err(DbError::LockHeld { table, index, holder });
            }
        }
        db.free_record_raw(rec)?;
        if self.instrumented {
            db.note_access(rec, pid, at, true);
        }
        self.notify(pid, DbOp::Free, Some(table), Some(index), at);
        Ok(())
    }

    /// Operator reconfiguration: writes a **static** configuration
    /// field and commits the change to the golden disk image, so the
    /// new value survives audit reloads. The caller must also
    /// rebaseline the static-data audit's checksums (the
    /// [`Controller`](https://docs.rs/wtnc) facade does both).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownField`] for a dynamic field — runtime
    /// state is never committed to the disk image — plus the usual
    /// lookup errors.
    #[allow(clippy::too_many_arguments)]
    pub fn reconfigure(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        field: FieldId,
        value: u64,
        at: SimTime,
    ) -> Result<(), DbError> {
        self.charge(DbOp::WriteFld);
        self.require_connection(pid)?;
        let f = db.catalog().field(table, field)?;
        if f.kind != crate::catalog::FieldKind::Static {
            return Err(DbError::UnknownField(table, field));
        }
        let rec = RecordRef::new(table, index);
        db.write_field_raw(rec, field, value)?;
        let (off, len) = db.field_extent(rec, field)?;
        db.commit_golden(off, len);
        db.taint_mut().resolve_range(off, len, TaintFate::Overwritten { at });
        if self.instrumented {
            db.note_access(rec, pid, at, true);
        }
        self.notify(pid, DbOp::WriteFld, Some(table), Some(index), at);
        Ok(())
    }

    /// Explicitly acquires a record lock (multi-operation
    /// transactions).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::LockHeld`] if another client holds it.
    pub fn lock(&mut self, rec: RecordRef, pid: Pid, at: SimTime) -> Result<(), DbError> {
        self.locks.acquire(rec, pid, at)
    }

    /// Explicitly releases a record lock.
    pub fn unlock(&mut self, rec: RecordRef, pid: Pid) -> bool {
        self.locks.release(rec, pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{self, connection, standard_schema};
    use crate::taint::{TaintEntry, TaintKind};

    fn setup() -> (Database, DbApi, Pid) {
        let db = Database::build(standard_schema()).unwrap();
        let mut api = DbApi::new();
        let pid = Pid(1);
        api.init(pid);
        (db, api, pid)
    }

    #[test]
    fn full_call_record_lifecycle() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::from_secs(1);
        let idx = api.alloc_record(&mut db, pid, t, at).unwrap();
        api.write_fld(&mut db, pid, t, idx, connection::CALLER_ID, 5551234, at).unwrap();
        let vals = api.read_rec(&mut db, pid, t, idx, at).unwrap();
        assert_eq!(vals[connection::CALLER_ID.0 as usize], 5551234);
        api.free_record(&mut db, pid, t, idx, at).unwrap();
        assert!(matches!(api.read_rec(&mut db, pid, t, idx, at), Err(DbError::RecordFree(_, _))));
    }

    #[test]
    fn write_rec_requires_matching_arity() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::ZERO;
        let idx = api.alloc_record(&mut db, pid, t, at).unwrap();
        assert!(matches!(
            api.write_rec(&mut db, pid, t, idx, &[1, 2], at),
            Err(DbError::BadSchema(_))
        ));
        let field_count = db.catalog().table(t).unwrap().def.fields.len();
        let mut values = vec![0u64; field_count];
        values[connection::CALLEE_ID.0 as usize] = 2;
        api.write_rec(&mut db, pid, t, idx, &values, at).unwrap();
        assert_eq!(api.read_fld(&mut db, pid, t, idx, connection::CALLEE_ID, at).unwrap(), 2);
    }

    #[test]
    fn not_connected_is_rejected() {
        let (mut db, mut api, _) = setup();
        let stranger = Pid(99);
        assert!(matches!(
            api.read_rec(&mut db, stranger, schema::CONNECTION_TABLE, 0, SimTime::ZERO),
            Err(DbError::NotConnected(_))
        ));
    }

    #[test]
    fn close_releases_locks() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::ZERO;
        let idx = api.alloc_record(&mut db, pid, t, at).unwrap();
        api.lock(RecordRef::new(t, idx), pid, at).unwrap();
        assert_eq!(api.locks().len(), 1);
        api.close(pid, at);
        assert!(api.locks().is_empty());
    }

    #[test]
    fn crashed_client_leaks_locks() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::ZERO;
        let idx = api.alloc_record(&mut db, pid, t, at).unwrap();
        api.lock(RecordRef::new(t, idx), pid, at).unwrap();
        api.crash_client(pid);
        assert_eq!(api.locks().len(), 1);
        // Another client is blocked.
        let other = Pid(2);
        api.init(other);
        assert!(matches!(
            api.write_fld(&mut db, other, t, idx, connection::STATE, 1, at),
            Err(DbError::LockHeld { .. })
        ));
        // Stale-lock detection sees it.
        let stale = api.locks().stale(SimTime::from_secs(200), SimDuration::from_millis(100));
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].1, pid);
        // Recovery releases everything the dead client held.
        assert_eq!(api.locks_mut().release_all(pid), 1);
        api.write_fld(&mut db, other, t, idx, connection::STATE, 1, at).unwrap();
    }

    #[test]
    fn catalog_corruption_breaks_operations_and_escapes() {
        let (mut db, mut api, pid) = setup();
        db.flip_bit(0, 0).unwrap(); // magic byte
        db.taint_mut()
            .insert(0, TaintEntry { id: 1, at: SimTime::ZERO, kind: TaintKind::StaticData });
        let err = api
            .read_rec(&mut db, pid, schema::CONNECTION_TABLE, 0, SimTime::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, DbError::CatalogCorrupt { .. }));
        // The taint has been consumed as an escape.
        assert_eq!(db.taint().latent_count(), 0);
        assert_eq!(db.taint().resolved().len(), 1);
    }

    #[test]
    fn read_resolves_taint_as_escape_write_as_overwrite() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::ZERO;
        let idx = api.alloc_record(&mut db, pid, t, at).unwrap();
        let rec = RecordRef::new(t, idx);
        let (off, _) = db.field_extent(rec, connection::CALLER_ID).unwrap();

        // Taint + read => escape.
        db.taint_mut().insert(off, TaintEntry { id: 1, at, kind: TaintKind::DynamicRuled });
        api.read_fld(&mut db, pid, t, idx, connection::CALLER_ID, at).unwrap();
        assert!(matches!(db.taint().resolved()[0].2, TaintFate::Escaped { .. }));

        // Taint + write => overwritten.
        db.taint_mut().insert(off, TaintEntry { id: 2, at, kind: TaintKind::DynamicRuled });
        api.write_fld(&mut db, pid, t, idx, connection::CALLER_ID, 7, at).unwrap();
        assert!(matches!(db.taint().resolved()[1].2, TaintFate::Overwritten { .. }));
    }

    #[test]
    fn move_rec_maintains_group_chain() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::ZERO;
        let a = api.alloc_record(&mut db, pid, t, at).unwrap();
        let b = api.alloc_record(&mut db, pid, t, at).unwrap();
        let c = api.alloc_record(&mut db, pid, t, at).unwrap();
        api.move_rec(&mut db, pid, t, a, 5, at).unwrap();
        api.move_rec(&mut db, pid, t, b, 5, at).unwrap();
        api.move_rec(&mut db, pid, t, c, 5, at).unwrap();
        // All three now in group 5; chain is consistent (prev/next are
        // mutual).
        for idx in [a, b, c] {
            let hdr = db.header(RecordRef::new(t, idx)).unwrap();
            assert_eq!(hdr.group, 5);
            if hdr.next != LINK_NONE {
                let nb = db.header(RecordRef::new(t, hdr.next as u32)).unwrap();
                assert_eq!(nb.prev, idx as u16);
            }
            if hdr.prev != LINK_NONE {
                let pb = db.header(RecordRef::new(t, hdr.prev as u32)).unwrap();
                assert_eq!(pb.next, idx as u16);
            }
        }
        // Move one out again; the remaining two stay linked.
        api.move_rec(&mut db, pid, t, b, 9, at).unwrap();
        let ha = db.header(RecordRef::new(t, a)).unwrap();
        let hc = db.header(RecordRef::new(t, c)).unwrap();
        assert_eq!(ha.group, 5);
        assert_eq!(hc.group, 5);
        let hb = db.header(RecordRef::new(t, b)).unwrap();
        assert_eq!(hb.group, 9);
    }

    #[test]
    fn events_flow_when_instrumented_only() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::ZERO;
        let idx = api.alloc_record(&mut db, pid, t, at).unwrap();
        api.write_fld(&mut db, pid, t, idx, connection::STATE, 1, at).unwrap();
        let events: Vec<_> = api.events_mut().drain().collect();
        assert!(events.iter().any(|e| e.op == DbOp::WriteFld));
        assert!(events.iter().any(|e| e.op == DbOp::Alloc));

        let mut raw = DbApi::without_instrumentation();
        raw.init(pid);
        let idx2 = raw.alloc_record(&mut db, pid, t, at).unwrap();
        raw.write_fld(&mut db, pid, t, idx2, connection::STATE, 1, at).unwrap();
        assert!(raw.events_mut().is_empty());
    }

    #[test]
    fn post_event_sheds_a_flooding_lane_but_admits_quiet_clients() {
        use wtnc_sim::Enqueue;
        let mut api = DbApi::with_ipc(IpcConfig {
            capacity: 8,
            lane_capacity: 2,
            retry_after: SimDuration::from_millis(5),
        });
        let spammer = Pid(9);
        let quiet = Pid(10);
        let at = SimTime::ZERO;
        assert!(api.post_event(spammer, DbOp::WriteFld, None, None, at).accepted());
        assert!(api.post_event(spammer, DbOp::WriteFld, None, None, at).accepted());
        // Third message from the same producer exceeds its lane.
        assert_eq!(api.post_event(spammer, DbOp::WriteFld, None, None, at), Enqueue::Shed);
        // A quieter client still gets through.
        assert!(api.post_event(quiet, DbOp::ReadRec, None, None, at).accepted());
        assert_eq!(api.events_shed(), 1);
        assert_eq!(api.events().len(), 3);
    }

    #[test]
    fn event_capacity_is_configurable() {
        let api = DbApi::with_event_capacity(16);
        assert_eq!(api.events().capacity(), 16);
        assert_eq!(api.events().lane_capacity(), 4);
    }

    #[test]
    fn instrumentation_costs_more() {
        let costs = ApiCosts::default();
        for op in [
            DbOp::Init,
            DbOp::Close,
            DbOp::ReadRec,
            DbOp::ReadFld,
            DbOp::WriteRec,
            DbOp::WriteFld,
            DbOp::Move,
        ] {
            assert!(costs.cost(op, true) > costs.cost(op, false), "{op:?}");
        }
        // Figure 4: DBwrite_rec has the largest overhead, DBinit the
        // smallest.
        let rel =
            |op: DbOp| costs.cost(op, true).as_secs_f64() / costs.cost(op, false).as_secs_f64();
        assert!(rel(DbOp::WriteRec) > rel(DbOp::WriteFld));
        assert!(rel(DbOp::Init) < rel(DbOp::ReadFld));
    }

    #[test]
    fn cost_accumulator_drains() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::ZERO;
        api.take_cost();
        let idx = api.alloc_record(&mut db, pid, t, at).unwrap();
        api.read_rec(&mut db, pid, t, idx, at).unwrap();
        let cost = api.take_cost();
        assert!(cost > SimDuration::ZERO);
        assert_eq!(api.take_cost(), SimDuration::ZERO);
    }

    #[test]
    fn lock_table_reentrancy_and_stale() {
        let mut locks = LockTable::new();
        let rec = RecordRef::new(TableId(1), 3);
        locks.acquire(rec, Pid(1), SimTime::ZERO).unwrap();
        locks.acquire(rec, Pid(1), SimTime::ZERO).unwrap(); // re-entrant
        assert!(matches!(locks.acquire(rec, Pid(2), SimTime::ZERO), Err(DbError::LockHeld { .. })));
        assert!(locks.stale(SimTime::from_millis(50), SimDuration::from_millis(100)).is_empty());
        assert_eq!(locks.stale(SimTime::from_millis(150), SimDuration::from_millis(100)).len(), 1);
        assert!(!locks.release(rec, Pid(2)));
        assert!(locks.release(rec, Pid(1)));
        assert!(locks.is_empty());
    }

    #[test]
    fn held_by_reports_only_the_given_owner() {
        let mut locks = LockTable::new();
        locks.acquire(RecordRef::new(TableId(1), 2), Pid(1), SimTime::ZERO).unwrap();
        locks.acquire(RecordRef::new(TableId(1), 0), Pid(1), SimTime::ZERO).unwrap();
        locks.acquire(RecordRef::new(TableId(2), 5), Pid(2), SimTime::ZERO).unwrap();
        assert_eq!(
            locks.held_by(Pid(1)),
            vec![RecordRef::new(TableId(1), 0), RecordRef::new(TableId(1), 2)]
        );
        assert_eq!(locks.held_by(Pid(2)), vec![RecordRef::new(TableId(2), 5)]);
        assert!(locks.held_by(Pid(3)).is_empty());
    }
}
