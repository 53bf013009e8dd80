//! Parity property: the incremental audit engine (dirty-block bitmap,
//! generation skipping, per-block CRC folding) must report *exactly*
//! the same findings as a full scan, under arbitrary interleavings of
//! API traffic, raw corruptions and repairs.
//!
//! Two identical worlds run the same operation stream; one audits
//! incrementally (with an aggressive full-rescan period to exercise
//! both code paths), the other always scans everything. The two worlds
//! also hash with different CRC kernels: the full scan with the
//! portable slice-by-8 kernel, the incremental world with the
//! PCLMULQDQ kernel (which silently degrades to slice-by-8 on hosts
//! without it — also a parity case worth holding). After every cycle
//! the findings must match field-for-field, and at the end the two
//! database images must be byte-identical.

use proptest::prelude::*;
use wtnc_audit::{AuditConfig, AuditProcess};
use wtnc_db::{schema, set_crc_kernel_override, CrcKernel, Database, DbApi, FieldId, TableId};
use wtnc_sim::{Pid, ProcessRegistry, SimTime};

/// One step of the randomized workload. Raw variants bypass the API —
/// they model injector corruptions and operator repairs.
#[derive(Debug, Clone)]
enum Op {
    /// `DBalloc` on one of the dynamic tables.
    Alloc { table: u8 },
    /// `DBwrite_fld` with an arbitrary (possibly out-of-range) value.
    Write { table: u8, index: u32, field: u8, value: u64 },
    /// `DBfree`.
    Free { table: u8, index: u32 },
    /// Raw bit flip anywhere in the region (fault injection).
    Flip { frac: f64, bit: u8 },
    /// Reload a span from the golden image (external repair).
    Repair { frac: f64, len: usize },
}

fn dynamic_table(choice: u8) -> TableId {
    [schema::PROCESS_TABLE, schema::CONNECTION_TABLE, schema::RESOURCE_TABLE][choice as usize % 3]
}

/// Applies one op to one world. Results are ignored: a failing API
/// call fails identically in both worlds, which is all parity needs.
fn apply(op: &Op, db: &mut Database, api: &mut DbApi, pid: Pid, at: SimTime) {
    match *op {
        Op::Alloc { table } => {
            let _ = api.alloc_record(db, pid, dynamic_table(table), at);
        }
        Op::Write { table, index, field, value } => {
            let t = dynamic_table(table);
            let nfields = db.catalog().table(t).map(|tm| tm.def.fields.len()).unwrap_or(1);
            let fid = FieldId((field as usize % nfields.max(1)) as u16);
            let idx = index % schema::STANDARD_DYNAMIC_SLOTS;
            let _ = api.write_fld(db, pid, t, idx, fid, value, at);
        }
        Op::Free { table, index } => {
            let idx = index % schema::STANDARD_DYNAMIC_SLOTS;
            let _ = api.free_record(db, pid, dynamic_table(table), idx, at);
        }
        Op::Flip { frac, bit } => {
            let offset = ((db.region_len() - 1) as f64 * frac) as usize;
            let _ = db.flip_bit(offset, bit);
        }
        Op::Repair { frac, len } => {
            let offset = ((db.region_len() - 1) as f64 * frac) as usize;
            let len = len.min(db.region_len() - offset);
            let _ = db.reload_range(offset, len);
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3).prop_map(|table| Op::Alloc { table }),
        (0u8..3, 0u32..schema::STANDARD_DYNAMIC_SLOTS, 0u8..16, 0u64..300)
            .prop_map(|(table, index, field, value)| Op::Write { table, index, field, value }),
        (0u8..3, 0u32..schema::STANDARD_DYNAMIC_SLOTS)
            .prop_map(|(table, index)| Op::Free { table, index }),
        (0.0f64..1.0, 0u8..8).prop_map(|(frac, bit)| Op::Flip { frac, bit }),
        (0.0f64..1.0, 1usize..128).prop_map(|(frac, len)| Op::Repair { frac, len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole guarantee: per-cycle findings and the final image
    /// are identical between incremental and full-scan auditing, and
    /// between the two CRC kernels.
    #[test]
    fn incremental_audit_matches_full_scan(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        ops_per_cycle in 1usize..12,
    ) {
        let db = Database::build(schema::standard_schema()).unwrap();
        let mut worlds = Vec::new();
        for (incremental, kernel) in [(true, CrcKernel::Hardware), (false, CrcKernel::Slice8)] {
            set_crc_kernel_override(Some(kernel));
            let db = db.clone();
            let mut api = DbApi::new();
            let registry = ProcessRegistry::new();
            let audit = AuditProcess::new(
                AuditConfig {
                    incremental,
                    // Small period so forced full sweeps interleave
                    // with generation-skipping passes.
                    full_rescan_period: 3,
                    ..AuditConfig::default()
                },
                &db,
            );
            api.init(Pid(1));
            worlds.push((kernel, db, api, registry, audit));
        }
        set_crc_kernel_override(None);

        let mut cycle = 0u64;
        for batch in ops.chunks(ops_per_cycle) {
            let at = SimTime::from_secs(cycle * 10);
            cycle += 1;
            let mut reports = Vec::new();
            for (kernel, db, api, registry, audit) in &mut worlds {
                set_crc_kernel_override(Some(*kernel));
                for op in batch {
                    apply(op, db, api, Pid(1), at);
                }
                reports.push(audit.run_cycle(db, api, registry, at));
            }
            set_crc_kernel_override(None);
            prop_assert_eq!(
                &reports[0].findings,
                &reports[1].findings,
                "cycle {} diverged (incremental vs full)",
                cycle
            );
        }

        // A few quiet trailing cycles: deferred aging effects (orphan
        // grace) must fire at the same time in both worlds.
        for extra in 0..3 {
            let at = SimTime::from_secs((cycle + extra) * 10 + 100);
            let mut reports = Vec::new();
            for (kernel, db, api, registry, audit) in &mut worlds {
                set_crc_kernel_override(Some(*kernel));
                reports.push(audit.run_cycle(db, api, registry, at));
            }
            set_crc_kernel_override(None);
            prop_assert_eq!(
                &reports[0].findings,
                &reports[1].findings,
                "quiet cycle {} diverged",
                extra
            );
        }

        prop_assert_eq!(
            worlds[0].1.region(),
            worlds[1].1.region(),
            "final database images differ"
        );
    }
}
