//! Shared generation-tracking state for change-aware audit elements.
//!
//! The database bumps a per-record generation on every mutation
//! overlapping the record (see `wtnc_db::Database::record_generation`),
//! including raw injector writes and golden reloads. An element records
//! the generation at which it last *verified* a record clean; while the
//! generation is unchanged, re-checking the record is provably
//! redundant — the bytes cannot differ from the verified state. A
//! record with findings never has its generation recorded, so deferred
//! (detect-only) elements re-flag it every cycle exactly like a full
//! scan would.

use std::collections::BTreeMap;

use wtnc_db::TableId;

/// Sentinel: the record has never been verified clean.
pub(crate) const NEVER_VERIFIED: u64 = u64::MAX;

#[derive(Debug, Clone, Default)]
struct TableState {
    last_clean: Vec<u64>,
    passes_since_full: u32,
}

/// Per-record "verified clean at generation g" bookkeeping, plus the
/// periodic full-sweep counter.
#[derive(Debug, Clone, Default)]
pub(crate) struct GenSkip {
    tables: BTreeMap<TableId, TableState>,
}

impl GenSkip {
    /// Starts a pass over `table`: sizes the state and returns whether
    /// this pass is a forced full sweep (every `period`-th pass when
    /// `period > 0`), during which generations must be ignored.
    pub fn begin_pass(&mut self, table: TableId, record_count: usize, period: u32) -> bool {
        let st = self.tables.entry(table).or_default();
        st.last_clean.resize(record_count, NEVER_VERIFIED);
        if period > 0 && st.passes_since_full + 1 >= period {
            st.passes_since_full = 0;
            true
        } else {
            st.passes_since_full += 1;
            false
        }
    }

    /// True when the record was verified clean at exactly generation
    /// `gen` (and so cannot have changed since).
    pub fn is_clean(&self, table: TableId, index: u32, gen: u64) -> bool {
        self.tables
            .get(&table)
            .and_then(|st| st.last_clean.get(index as usize))
            .is_some_and(|&g| g == gen && g != NEVER_VERIFIED)
    }

    /// Records that the record was verified clean at generation `gen`.
    pub fn set_clean(&mut self, table: TableId, index: u32, gen: u64) {
        if let Some(slot) =
            self.tables.get_mut(&table).and_then(|st| st.last_clean.get_mut(index as usize))
        {
            *slot = gen;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unverified_records_are_never_skippable() {
        let mut s = GenSkip::default();
        assert!(!s.begin_pass(TableId(0), 4, 0));
        assert!(!s.is_clean(TableId(0), 0, 0));
        s.set_clean(TableId(0), 0, 0);
        assert!(s.is_clean(TableId(0), 0, 0));
        assert!(!s.is_clean(TableId(0), 0, 7), "generation moved: recheck");
    }

    #[test]
    fn full_sweep_every_nth_pass() {
        let mut s = GenSkip::default();
        let sweeps: Vec<bool> = (0..6).map(|_| s.begin_pass(TableId(1), 2, 3)).collect();
        assert_eq!(sweeps, vec![false, false, true, false, false, true]);
    }

    #[test]
    fn period_zero_never_sweeps() {
        let mut s = GenSkip::default();
        assert!((0..10).all(|_| !s.begin_pass(TableId(2), 1, 0)));
    }
}
