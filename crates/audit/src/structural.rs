//! Structural check (§4.3.2).
//!
//! "The structural audit element calculates the offset of each record
//! header from the beginning of the database based on record sizes
//! stored in system tables ... The database structure is checked by
//! comparing all header fields at computed offsets with expected
//! values." A single bad record identifier is correctable "because the
//! correct record ID can be inferred from the offset within the
//! database"; "multiple consecutive corruptions in header fields is
//! considered to be a strong indication that tables or records within
//! the database may be misaligned, and the entire database is then
//! reloaded from the disk".

use wtnc_db::layout::{encode_record_id, LINK_NONE, STATUS_ACTIVE, STATUS_FREE};
use wtnc_db::{Database, RecordRef, TableId, TaintFate};
use wtnc_sim::SimTime;

use crate::finding::{AuditElementKind, Finding, FindingTarget, RecoveryAction};
use crate::genskip::GenSkip;

/// The structural audit element.
#[derive(Debug, Clone)]
pub struct StructuralAudit {
    /// Consecutive corrupted headers that trigger the full-database
    /// reload escalation.
    escalation_threshold: u32,
    /// Detect-only mode: damaged headers are flagged (one finding per
    /// record, targeted at the header) instead of rebuilt, and the
    /// consecutive-damage escalation is left to the recovery engine's
    /// ladder.
    pub deferred: bool,
    /// Change-aware mode: skip records whose generation is unchanged
    /// since they were last verified clean. Off by default.
    pub incremental: bool,
    /// Every `n`-th pass over a table ignores generations even in
    /// incremental mode (0 = never force a full sweep).
    pub full_rescan_period: u32,
    skip: GenSkip,
}

impl Default for StructuralAudit {
    fn default() -> Self {
        Self::new(3)
    }
}

impl StructuralAudit {
    /// Creates the element. `escalation_threshold` consecutive damaged
    /// headers in one table escalate to a full reload.
    pub fn new(escalation_threshold: u32) -> Self {
        StructuralAudit {
            escalation_threshold: escalation_threshold.max(2),
            deferred: false,
            incremental: false,
            full_rescan_period: 0,
            skip: GenSkip::default(),
        }
    }

    /// Audits one table's headers; returns the number of records
    /// checked. May escalate to a whole-database reload, reported as a
    /// single finding.
    pub fn audit_table(
        &mut self,
        db: &mut Database,
        table: TableId,
        at: SimTime,
        out: &mut Vec<Finding>,
    ) -> u64 {
        let Ok(tm) = db.catalog().table(table) else {
            return 0;
        };
        let record_count = tm.def.record_count;
        let record_size = tm.record_size;
        let table_offset = tm.offset;
        let due_full = self.skip.begin_pass(table, record_count as usize, self.full_rescan_period);
        let use_gen = self.incremental && !due_full;
        let mut consecutive = 0u32;
        let mut damaged: Vec<u32> = Vec::new();

        for index in 0..record_count {
            let rec = RecordRef::new(table, index);
            let gen = db.record_generation(rec);
            if use_gen && self.skip.is_clean(table, index, gen) {
                // Provably unchanged since its last verified-clean
                // check: a full scan would find it clean too.
                consecutive = 0;
                continue;
            }
            let hdr = db.header(rec).expect("index within table");
            let expected_id = encode_record_id(table.0, index);
            let id_ok = hdr.record_id == expected_id;
            let status_ok = hdr.status == STATUS_ACTIVE || hdr.status == STATUS_FREE;
            let link_ok = |l: u16| l == LINK_NONE || (l as u32) < record_count;
            let links_ok = link_ok(hdr.next) && link_ok(hdr.prev);

            if id_ok && status_ok && links_ok {
                consecutive = 0;
                self.skip.set_clean(table, index, gen);
                continue;
            }
            damaged.push(index);
            consecutive += 1;
            if consecutive >= self.escalation_threshold && !self.deferred {
                // Misalignment suspected: reload everything.
                db.reload_all();
                let region_len = db.region_len();
                let caught = db.taint_mut().resolve_range(0, region_len, TaintFate::Caught { at });
                db.note_errors_detected(table, caught.len().max(1) as u64);
                out.push(Finding {
                    element: AuditElementKind::Structural,
                    at,
                    table: Some(table),
                    record: None,
                    detail: format!(
                        "{consecutive} consecutive damaged headers in table {}: reloading database",
                        table.0
                    ),
                    action: RecoveryAction::ReloadedDatabase,
                    target: Some(FindingTarget::Range { offset: 0, len: region_len }),
                    caught,
                });
                return record_count as u64;
            }
        }

        for index in damaged {
            let rec = RecordRef::new(table, index);
            if self.deferred {
                db.note_errors_detected(table, 1);
                out.push(Finding {
                    element: AuditElementKind::Structural,
                    at,
                    table: Some(table),
                    record: Some(index),
                    detail: format!(
                        "damaged header flagged for record {index} of table {}",
                        table.0
                    ),
                    action: RecoveryAction::Flagged,
                    target: Some(FindingTarget::Header { table, record: index }),
                    caught: Vec::new(),
                });
                continue;
            }
            let mut hdr = db.header(rec).expect("index within table");
            // Rebuild from computed values, conservatively: the record
            // id is fully inferable; an impossible status is resolved to
            // FREE (losing at most one call, the paper's tolerated
            // recovery); bad links are cleared.
            hdr.record_id = encode_record_id(table.0, index);
            if hdr.status != STATUS_ACTIVE && hdr.status != STATUS_FREE {
                hdr.status = STATUS_FREE;
            }
            if hdr.next != LINK_NONE && (hdr.next as u32) >= record_count {
                hdr.next = LINK_NONE;
            }
            if hdr.prev != LINK_NONE && (hdr.prev as u32) >= record_count {
                hdr.prev = LINK_NONE;
            }
            db.write_header(rec, hdr).expect("index within table");
            let base = table_offset + record_size * index as usize;
            let caught = db.taint_mut().resolve_range(
                base,
                wtnc_db::layout::RECORD_HEADER_SIZE,
                TaintFate::Caught { at },
            );
            db.note_errors_detected(table, caught.len().max(1) as u64);
            out.push(Finding {
                element: AuditElementKind::Structural,
                at,
                table: Some(table),
                record: Some(index),
                detail: format!("damaged header rebuilt for record {index} of table {}", table.0),
                action: RecoveryAction::RebuiltHeader { table, record: index },
                target: Some(FindingTarget::Header { table, record: index }),
                caught,
            });
        }
        record_count as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtnc_db::layout::{HDR_RECORD_ID, HDR_STATUS};
    use wtnc_db::{schema, TaintEntry, TaintKind};

    fn db() -> Database {
        Database::build(schema::standard_schema()).unwrap()
    }

    #[test]
    fn clean_table_no_findings() {
        let mut d = db();
        let mut audit = StructuralAudit::default();
        let mut out = Vec::new();
        let checked = audit.audit_table(&mut d, schema::PROCESS_TABLE, SimTime::ZERO, &mut out);
        assert_eq!(checked, schema::STANDARD_DYNAMIC_SLOTS as u64);
        assert!(out.is_empty());
    }

    #[test]
    fn single_record_id_corruption_is_corrected_in_place() {
        let mut d = db();
        let mut audit = StructuralAudit::default();
        let rec = RecordRef::new(schema::PROCESS_TABLE, 5);
        let base = d.record_offset(rec).unwrap();
        d.flip_bit(base + HDR_RECORD_ID, 2).unwrap();
        d.taint_mut().insert(
            base + HDR_RECORD_ID,
            TaintEntry { id: 9, at: SimTime::ZERO, kind: TaintKind::Structural },
        );
        let mut out = Vec::new();
        audit.audit_table(&mut d, schema::PROCESS_TABLE, SimTime::from_secs(1), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].action, RecoveryAction::RebuiltHeader { record: 5, .. }));
        assert_eq!(out[0].caught.len(), 1);
        let hdr = d.header(rec).unwrap();
        assert_eq!(hdr.record_id, encode_record_id(schema::PROCESS_TABLE.0, 5));
    }

    #[test]
    fn garbage_status_resolves_to_free() {
        let mut d = db();
        let mut audit = StructuralAudit::default();
        let rec = RecordRef::new(schema::CONNECTION_TABLE, 2);
        let base = d.record_offset(rec).unwrap();
        d.poke(base + HDR_STATUS, &[0x3C]).unwrap();
        let mut out = Vec::new();
        audit.audit_table(&mut d, schema::CONNECTION_TABLE, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(d.header(rec).unwrap().status, STATUS_FREE);
    }

    #[test]
    fn out_of_range_links_cleared() {
        let mut d = db();
        let mut audit = StructuralAudit::default();
        let rec = RecordRef::new(schema::RESOURCE_TABLE, 0);
        let mut hdr = d.header(rec).unwrap();
        hdr.next = 9_999;
        d.write_header(rec, hdr).unwrap();
        let mut out = Vec::new();
        audit.audit_table(&mut d, schema::RESOURCE_TABLE, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(d.header(rec).unwrap().next, LINK_NONE);
    }

    #[test]
    fn consecutive_damage_escalates_to_full_reload() {
        let mut d = db();
        let mut audit = StructuralAudit::new(3);
        // Smash three consecutive headers (misalignment pattern).
        for i in 0..3 {
            let base = d.record_offset(RecordRef::new(schema::PROCESS_TABLE, i)).unwrap();
            d.poke(base + HDR_RECORD_ID, &[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
        }
        // Also corrupt an unrelated dynamic byte: the full reload should
        // sweep it up too.
        let far = d.record_offset(RecordRef::new(schema::RESOURCE_TABLE, 7)).unwrap();
        d.flip_bit(far + HDR_STATUS, 0).unwrap();
        d.taint_mut().insert(
            far + HDR_STATUS,
            TaintEntry { id: 1, at: SimTime::ZERO, kind: TaintKind::Structural },
        );
        let mut out = Vec::new();
        audit.audit_table(&mut d, schema::PROCESS_TABLE, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].action, RecoveryAction::ReloadedDatabase);
        assert_eq!(d.region(), d.golden());
        assert_eq!(d.taint().latent_count(), 0);
    }

    #[test]
    fn scattered_damage_repairs_individually() {
        let mut d = db();
        let mut audit = StructuralAudit::new(3);
        // Damage records 0, 2, 4 (not consecutive).
        for i in [0u32, 2, 4] {
            let base = d.record_offset(RecordRef::new(schema::PROCESS_TABLE, i)).unwrap();
            d.flip_bit(base + HDR_RECORD_ID, 0).unwrap();
        }
        let mut out = Vec::new();
        audit.audit_table(&mut d, schema::PROCESS_TABLE, SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|f| matches!(f.action, RecoveryAction::RebuiltHeader { .. })));
    }

    #[test]
    fn threshold_has_a_floor_of_two() {
        let audit = StructuralAudit::new(0);
        assert_eq!(audit.escalation_threshold, 2);
    }
}
