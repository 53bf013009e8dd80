//! Semantic referential integrity check (§4.3.3).
//!
//! Records servicing one call form a closed loop: the Process record
//! refers to the Connection record, the Connection record to the
//! Resource record, and the Resource record points back to the Process
//! record, "thereby making it 1-detectable". The audit follows these
//! loops for every active record; a broken linkage means "lost"
//! records — a **resource leak**. Recovery frees the zombie records and
//! reports the owning client (identified through the redundant
//! last-writer metadata) for preemptive termination.
//!
//! The element is generic over the schema: any field with a `link`
//! declaration participates; loops are discovered by walking links
//! until the walk returns to its start (consistent) or breaks
//! (violation).

use wtnc_db::layout::LINK_NONE;
use wtnc_db::{Catalog, Database, FieldId, FieldKind, RecordRef, TableId, TaintFate};
use wtnc_sim::{Pid, SimDuration, SimTime};

use crate::finding::{AuditElementKind, Finding, FindingTarget, RecoveryAction};

/// The first dynamic link field of a table, if any.
fn link_field(catalog: &Catalog, table: TableId) -> Option<(FieldId, TableId)> {
    let tm = catalog.table(table).ok()?;
    tm.def.fields.iter().enumerate().find_map(|(i, f)| {
        (f.kind == FieldKind::Dynamic)
            .then_some(())
            .and(f.link)
            .map(|target| (FieldId(i as u16), target))
    })
}

/// Transitive closure of tables reachable from `table` over link
/// fields (including `table` itself).
fn link_closure(catalog: &Catalog, table: TableId) -> Vec<TableId> {
    let mut closure = vec![table];
    let mut i = 0;
    while i < closure.len() {
        if let Some((_, target)) = link_field(catalog, closure[i]) {
            if !closure.contains(&target) {
                closure.push(target);
            }
        }
        i += 1;
    }
    closure
}

/// Verified-clean state of one anchor table, for incremental skipping.
#[derive(Debug, Clone, Copy)]
struct CleanPass {
    /// Sum of the generations of every table in the anchor's link
    /// closure at the clean pass. Generations only grow, so an
    /// unchanged sum proves no record in the closure was mutated.
    closure_sig: u64,
    /// Earliest `last_access` among tolerated (young, unlinked)
    /// records; `None` when there were none. Accesses only push
    /// `last_access` later, so re-checking once the grace period has
    /// elapsed *from this time* can never miss an orphan.
    earliest_unlinked_access: Option<SimTime>,
}

/// Every record one clean walk visited, with its generation at the
/// time. The walk's verdict depends only on these records' bytes (the
/// catalog the walk consults is guarded by the static-data element,
/// which runs first in a cycle and repairs it inline), so while every
/// generation is unchanged the walk would repeat its clean verdict.
type WalkWitness = Vec<(RecordRef, u64)>;

/// The referential-integrity audit element.
#[derive(Debug, Clone)]
pub struct SemanticAudit {
    /// Records whose links are still unset (`LINK_NONE`) are tolerated
    /// for this long after their last access (a client may be mid-setup)
    /// before being treated as orphans.
    pub orphan_grace: SimDuration,
    /// Detect-only mode: broken walks are flagged (targeted at the
    /// anchor record) instead of freed; owner termination is likewise
    /// left to the recovery engine's ladder.
    pub deferred: bool,
    /// Change-aware mode: skip a table's walks when no record in its
    /// link closure has been mutated since the last clean pass and no
    /// tolerated orphan can have aged out. Off by default.
    pub incremental: bool,
    /// Every `n`-th pass over a table re-walks everything even in
    /// incremental mode (0 = never force a full sweep).
    pub full_rescan_period: u32,
    clean: std::collections::BTreeMap<TableId, CleanPass>,
    passes: std::collections::BTreeMap<TableId, u32>,
    /// Per-anchor witnesses of the last clean walk (incremental mode).
    walks: std::collections::BTreeMap<TableId, Vec<Option<WalkWitness>>>,
}

impl Default for SemanticAudit {
    fn default() -> Self {
        Self::new(SimDuration::from_secs(60))
    }
}

impl SemanticAudit {
    /// Creates the element with a custom orphan grace period.
    pub fn new(orphan_grace: SimDuration) -> Self {
        SemanticAudit {
            orphan_grace,
            deferred: false,
            incremental: false,
            full_rescan_period: 0,
            clean: std::collections::BTreeMap::new(),
            passes: std::collections::BTreeMap::new(),
            walks: std::collections::BTreeMap::new(),
        }
    }

    /// Advances the per-table pass counter; returns whether this pass
    /// is a forced full re-walk. Called exactly once per pass.
    fn advance_pass(&mut self, table: TableId) -> bool {
        let pass = self.passes.entry(table).or_insert(0);
        if self.full_rescan_period > 0 && *pass + 1 >= self.full_rescan_period {
            *pass = 0;
            true
        } else {
            *pass += 1;
            false
        }
    }

    /// Audits the semantic loops anchored at `table`. Locked records
    /// are skipped (in-flight transactions). Returns the number of
    /// records checked.
    pub fn audit_table(
        &mut self,
        db: &mut Database,
        table: TableId,
        locked: &dyn Fn(RecordRef) -> bool,
        at: SimTime,
        out: &mut Vec<Finding>,
    ) -> u64 {
        let Some((start_field, _)) = link_field(db.catalog(), table) else {
            return 0;
        };
        let Ok(tm) = db.catalog().table(table) else {
            return 0;
        };
        let record_count = tm.def.record_count;
        let max_hops = db.catalog().table_count();

        // Incremental skip: a walk's outcome depends only on records in
        // the anchor table's link closure (plus orphan aging). If no
        // closure table was mutated since the last clean pass and no
        // tolerated unlinked record can have aged past the grace
        // period, every walk would repeat its clean verdict.
        let closure_sig = link_closure(db.catalog(), table)
            .iter()
            .fold(0u64, |acc, t| acc.wrapping_add(db.table_generation(*t)));
        let due_full = self.advance_pass(table);
        let use_witness = self.incremental && !due_full;
        if use_witness {
            if let Some(cp) = self.clean.get(&table) {
                let orphan_possible = cp
                    .earliest_unlinked_access
                    .is_some_and(|t0| at.saturating_since(t0) > self.orphan_grace);
                if cp.closure_sig == closure_sig && !orphan_possible {
                    return 0;
                }
            }
        }
        let mut abstained = false;
        let mut earliest_unlinked: Option<SimTime> = None;
        let findings_before = out.len();
        let mut checked = 0u64;
        // Taken out of the map so `self.free_zombies` stays callable
        // inside the loop; reinserted at the end.
        let mut walks = self.walks.remove(&table).unwrap_or_default();
        walks.resize(record_count as usize, None);

        'records: for index in 0..record_count {
            let start = RecordRef::new(table, index);
            // Per-anchor witness skip: the last walk from this anchor
            // was clean, and none of the records it visited has been
            // mutated since — re-walking would repeat the verdict.
            if use_witness {
                if let Some(w) = &walks[index as usize] {
                    if w.iter().all(|&(r, g)| db.record_generation(r) == g) {
                        continue;
                    }
                }
            }
            walks[index as usize] = None;
            if !db.is_active(start).unwrap_or(false) {
                // Free records produce no findings; any reactivation
                // mutates the header and so bumps the generation.
                if self.incremental {
                    walks[index as usize] = Some(vec![(start, db.record_generation(start))]);
                }
                continue;
            }
            if locked(start) {
                // Unverified walk: the table cannot be recorded clean.
                abstained = true;
                continue;
            }
            checked += 1;

            let start_link = db.read_field_raw(start, start_field).expect("field exists");
            if start_link == LINK_NONE as u64 {
                // Not linked yet: tolerate young records, flag orphans.
                let meta = db.record_meta(start).expect("record exists");
                if at.saturating_since(meta.last_access) > self.orphan_grace {
                    let owner = meta.last_writer;
                    self.free_zombies(db, &[start], owner, at, out, "orphan record never linked");
                } else {
                    // Tolerated for now — remember when it could age out.
                    earliest_unlinked = Some(match earliest_unlinked {
                        Some(t0) => t0.min(meta.last_access),
                        None => meta.last_access,
                    });
                }
                continue;
            }

            // Walk the loop.
            let mut visited: Vec<RecordRef> = vec![start];
            let mut cur = start;
            let mut cur_field = start_field;
            for _ in 0..max_hops {
                let link_val = db.read_field_raw(cur, cur_field).expect("field exists");
                let (_, target_table) =
                    link_field(db.catalog(), cur.table).expect("walk uses link fields");
                let target_tm = db.catalog().table(target_table).expect("valid link target");
                if link_val == LINK_NONE as u64 || link_val >= target_tm.def.record_count as u64 {
                    let owner = db.record_meta(start).expect("record exists").last_writer;
                    self.free_zombies(db, &visited, owner, at, out, "broken semantic link");
                    continue 'records;
                }
                let next = RecordRef::new(target_table, link_val as u32);
                if locked(next) {
                    // Intervening transaction: invalidate this walk, try
                    // again next cycle.
                    abstained = true;
                    continue 'records;
                }
                if !db.is_active(next).unwrap_or(false) {
                    let owner = db.record_meta(start).expect("record exists").last_writer;
                    self.free_zombies(db, &visited, owner, at, out, "link to freed record");
                    continue 'records;
                }
                if next == start {
                    // Loop closed consistently.
                    if self.incremental {
                        walks[index as usize] =
                            Some(visited.iter().map(|&r| (r, db.record_generation(r))).collect());
                    }
                    continue 'records;
                }
                if visited.contains(&next) {
                    // A cycle that skips the start: inconsistent closure.
                    let owner = db.record_meta(start).expect("record exists").last_writer;
                    self.free_zombies(
                        db,
                        &visited,
                        owner,
                        at,
                        out,
                        "loop does not close at origin",
                    );
                    continue 'records;
                }
                let Some((next_field, _)) = link_field(db.catalog(), next.table) else {
                    // Chain (not loop) schema: a valid terminal record.
                    if self.incremental {
                        visited.push(next);
                        walks[index as usize] =
                            Some(visited.iter().map(|&r| (r, db.record_generation(r))).collect());
                    }
                    continue 'records;
                };
                visited.push(next);
                cur = next;
                cur_field = next_field;
            }
            // Never returned to start within the hop budget.
            let owner = db.record_meta(start).expect("record exists").last_writer;
            self.free_zombies(db, &visited, owner, at, out, "loop exceeds hop budget");
        }

        self.walks.insert(table, walks);
        if out.len() == findings_before && !abstained {
            self.clean.insert(
                table,
                CleanPass { closure_sig, earliest_unlinked_access: earliest_unlinked },
            );
        } else {
            // Findings mutated the closure (or walks went unverified):
            // the entry is stale either way.
            self.clean.remove(&table);
        }
        checked
    }

    fn free_zombies(
        &self,
        db: &mut Database,
        records: &[RecordRef],
        owner: Option<Pid>,
        at: SimTime,
        out: &mut Vec<Finding>,
        detail: &str,
    ) {
        let anchor = records[0];
        if self.deferred {
            db.note_errors_detected(anchor.table, 1);
            out.push(Finding {
                element: AuditElementKind::Semantic,
                at,
                table: Some(anchor.table),
                record: Some(anchor.index),
                detail: format!(
                    "{detail}: flagged {} record(s) anchored at table {} record {}",
                    records.len(),
                    anchor.table.0,
                    anchor.index
                ),
                action: RecoveryAction::Flagged,
                target: Some(FindingTarget::Record { table: anchor.table, record: anchor.index }),
                caught: Vec::new(),
            });
            return;
        }
        let mut caught = Vec::new();
        for &rec in records {
            db.free_record_raw(rec).expect("record exists");
            let base = db.record_offset(rec).expect("record exists");
            let size = db.record_size(rec.table).expect("table exists");
            caught.extend(db.taint_mut().resolve_range(base, size, TaintFate::Caught { at }));
            db.note_errors_detected(rec.table, 1);
        }
        out.push(Finding {
            element: AuditElementKind::Semantic,
            at,
            table: Some(anchor.table),
            record: Some(anchor.index),
            detail: format!(
                "{detail}: freed {} record(s) anchored at table {} record {}",
                records.len(),
                anchor.table.0,
                anchor.index
            ),
            action: RecoveryAction::FreedRecord { table: anchor.table, record: anchor.index },
            target: Some(FindingTarget::Record { table: anchor.table, record: anchor.index }),
            caught,
        });
        if let Some(pid) = owner {
            out.push(Finding {
                element: AuditElementKind::Semantic,
                at,
                table: Some(anchor.table),
                record: Some(anchor.index),
                detail: format!("terminating client {pid} using zombie records"),
                action: RecoveryAction::TerminatedClient { pid },
                target: Some(FindingTarget::Client { pid }),
                caught: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_db::{schema, TaintEntry, TaintKind};

    const NOT_LOCKED: fn(RecordRef) -> bool = |_| false;

    /// Builds a database with one complete, consistent call loop and
    /// returns the three record indices (process, connection,
    /// resource).
    fn with_call_loop() -> (Database, u32, u32, u32) {
        let mut d = Database::build(schema::standard_schema()).unwrap();
        let p = d.alloc_record_raw(schema::PROCESS_TABLE).unwrap();
        let c = d.alloc_record_raw(schema::CONNECTION_TABLE).unwrap();
        let r = d.alloc_record_raw(schema::RESOURCE_TABLE).unwrap();
        d.write_field_raw(
            RecordRef::new(schema::PROCESS_TABLE, p),
            schema::process::CONNECTION_ID,
            c as u64,
        )
        .unwrap();
        d.write_field_raw(
            RecordRef::new(schema::CONNECTION_TABLE, c),
            schema::connection::CHANNEL_ID,
            r as u64,
        )
        .unwrap();
        d.write_field_raw(
            RecordRef::new(schema::RESOURCE_TABLE, r),
            schema::resource::PROCESS_ID,
            p as u64,
        )
        .unwrap();
        (d, p, c, r)
    }

    #[test]
    fn consistent_loop_passes_from_every_anchor() {
        let (mut d, ..) = with_call_loop();
        let mut audit = SemanticAudit::default();
        let mut out = Vec::new();
        for t in [schema::PROCESS_TABLE, schema::CONNECTION_TABLE, schema::RESOURCE_TABLE] {
            audit.audit_table(&mut d, t, &NOT_LOCKED, SimTime::ZERO, &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn corrupted_link_detected_and_loop_freed() {
        let (mut d, p, c, r) = with_call_loop();
        // Corrupt the connection→resource link to a bogus index.
        let conn = RecordRef::new(schema::CONNECTION_TABLE, c);
        d.write_field_raw(conn, schema::connection::CHANNEL_ID, 60_000).unwrap();
        let (off, _) = d.field_extent(conn, schema::connection::CHANNEL_ID).unwrap();
        d.taint_mut()
            .insert(off, TaintEntry { id: 3, at: SimTime::ZERO, kind: TaintKind::DynamicRuled });
        let mut audit = SemanticAudit::default();
        let mut out = Vec::new();
        audit.audit_table(
            &mut d,
            schema::PROCESS_TABLE,
            &NOT_LOCKED,
            SimTime::from_secs(1),
            &mut out,
        );
        assert!(!out.is_empty());
        let freed: Vec<_> =
            out.iter().filter(|f| matches!(f.action, RecoveryAction::FreedRecord { .. })).collect();
        assert_eq!(freed.len(), 1);
        // The walk visited process and connection before breaking; both
        // freed.
        assert!(!d.is_active(RecordRef::new(schema::PROCESS_TABLE, p)).unwrap());
        assert!(!d.is_active(conn).unwrap());
        // The taint was caught by the free.
        assert!(freed[0].caught.iter().any(|t| t.id == 3));
        // The resource record is now unreachable; its own anchor walk
        // will flag it (link to freed record).
        let mut out2 = Vec::new();
        audit.audit_table(
            &mut d,
            schema::RESOURCE_TABLE,
            &NOT_LOCKED,
            SimTime::from_secs(1),
            &mut out2,
        );
        assert!(!out2.is_empty());
        assert!(!d.is_active(RecordRef::new(schema::RESOURCE_TABLE, r)).unwrap());
    }

    #[test]
    fn owner_reported_for_termination() {
        let (mut d, p, _, _) = with_call_loop();
        let rec = RecordRef::new(schema::PROCESS_TABLE, p);
        d.note_access(rec, Pid(42), SimTime::ZERO, true);
        // Break the loop.
        d.write_field_raw(rec, schema::process::CONNECTION_ID, 50_000).unwrap();
        let mut out = Vec::new();
        SemanticAudit::default().audit_table(
            &mut d,
            schema::PROCESS_TABLE,
            &NOT_LOCKED,
            SimTime::from_secs(1),
            &mut out,
        );
        assert!(out.iter().any(|f| f.action == RecoveryAction::TerminatedClient { pid: Pid(42) }));
    }

    #[test]
    fn loop_pointing_back_to_wrong_process_detected() {
        let (mut d, _p, _c, r) = with_call_loop();
        // Allocate a second process; point the resource at it instead.
        let p2 = d.alloc_record_raw(schema::PROCESS_TABLE).unwrap();
        d.write_field_raw(
            RecordRef::new(schema::RESOURCE_TABLE, r),
            schema::resource::PROCESS_ID,
            p2 as u64,
        )
        .unwrap();
        let mut out = Vec::new();
        SemanticAudit::default().audit_table(
            &mut d,
            schema::PROCESS_TABLE,
            &NOT_LOCKED,
            SimTime::ZERO,
            &mut out,
        );
        assert!(!out.is_empty(), "resource pointing at the wrong process must be caught");
    }

    #[test]
    fn young_unlinked_records_tolerated_old_ones_are_orphans() {
        let mut d = Database::build(schema::standard_schema()).unwrap();
        let p = d.alloc_record_raw(schema::PROCESS_TABLE).unwrap();
        let rec = RecordRef::new(schema::PROCESS_TABLE, p);
        d.note_access(rec, Pid(7), SimTime::ZERO, true);
        let mut audit = SemanticAudit::new(SimDuration::from_secs(60));
        // Young: no finding.
        let mut out = Vec::new();
        audit.audit_table(
            &mut d,
            schema::PROCESS_TABLE,
            &NOT_LOCKED,
            SimTime::from_secs(10),
            &mut out,
        );
        assert!(out.is_empty());
        assert!(d.is_active(rec).unwrap());
        // Old: orphan freed, owner reported.
        let mut out = Vec::new();
        audit.audit_table(
            &mut d,
            schema::PROCESS_TABLE,
            &NOT_LOCKED,
            SimTime::from_secs(100),
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert!(!d.is_active(rec).unwrap());
    }

    #[test]
    fn locked_records_skip_the_walk() {
        let (mut d, p, c, _) = with_call_loop();
        // Break the loop, but lock the connection record (transaction in
        // flight): the walk must abstain.
        let conn = RecordRef::new(schema::CONNECTION_TABLE, c);
        d.write_field_raw(conn, schema::connection::CHANNEL_ID, 60_000).unwrap();
        let locked = move |r: RecordRef| r == conn;
        let mut out = Vec::new();
        SemanticAudit::default().audit_table(
            &mut d,
            schema::PROCESS_TABLE,
            &locked,
            SimTime::ZERO,
            &mut out,
        );
        assert!(out.is_empty());
        assert!(d.is_active(RecordRef::new(schema::PROCESS_TABLE, p)).unwrap());
    }

    #[test]
    fn tables_without_links_are_not_checked() {
        let mut d = Database::build(schema::standard_schema()).unwrap();
        let mut out = Vec::new();
        let checked = SemanticAudit::default().audit_table(
            &mut d,
            schema::SYSCONFIG_TABLE,
            &NOT_LOCKED,
            SimTime::ZERO,
            &mut out,
        );
        assert_eq!(checked, 0);
    }
}
