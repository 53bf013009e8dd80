//! The predecoded fast-path execution cache.
//!
//! The interpreter's original hot loop re-decoded every fetched word on
//! every step — and strict decoding ([`decode`]) is expensive, because
//! it re-encodes the candidate instruction to reject set reserved bits.
//! The [`DecodedCache`] decodes each text word **once**, on first
//! execution, into a slot that [`Machine::step`](crate::Machine::step)
//! dispatches from directly. A word that fails to decode is cached as
//! *poisoned* and keeps raising the same `SIGILL`-class exception the
//! slow path would.
//!
//! Because the text segment is mutable at run time (the fault injector
//! flips live instruction bits), every cached artifact carries an
//! **invalidation protocol**:
//!
//! * [`Machine::store_text`](crate::Machine::store_text) writes one
//!   word and invalidates exactly the state derived from it: the
//!   decoded slot, any fused-block plan whose input range covers the
//!   word, and any materialized `PCKT` target table containing it.
//! * [`Machine::text_mut`](crate::Machine::text_mut) hands out the raw
//!   slice, so it conservatively invalidates everything.
//!
//! On top of the per-word cache sit two PECOS-specific fast paths:
//!
//! * **Sorted target tables** — a `PCKT` membership test materializes
//!   its in-text table `{count, t0, t1, …}` into a sorted vector once
//!   and binary-searches it afterwards, replacing the O(n) scan of the
//!   live text. Build-time faults (count word out of text, corrupted
//!   count, table overrunning the segment) are cached as the *same*
//!   [`ExceptionKind`] the scan would raise.
//! * **Fused assertion superstep** — an installed straight-line region
//!   (a PECOS assertion block) whose instructions match one of the
//!   instrumenter's four shapes is compiled to a [`FusedPlan`] that
//!   [`Machine::run`](crate::Machine::run) can apply in O(1): scratch
//!   registers get their precomputed final values and the PC
//!   short-circuits to the protected CFI when the check passes, while a
//!   failing check raises the identical divide-by-zero at the identical
//!   PC (and books the identical step counts) as word-at-a-time
//!   execution.

use crate::inst::{decode, Inst};
use crate::machine::ExceptionKind;

/// One predecoded text word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Not decoded since load or last invalidation.
    Cold,
    /// Decoded successfully.
    Hot(Inst),
    /// The word does not decode; executing it raises
    /// [`ExceptionKind::IllegalInstruction`].
    Poisoned,
}

/// A materialized `PCKT` target table.
#[derive(Debug, Clone)]
pub(crate) struct TableEntry {
    /// Words after the count word that the entry depends on (0 for
    /// build-time faults, which depend only on the count word).
    span: u32,
    /// Sorted member words, or the exception the slow path would raise
    /// before the membership test.
    pub result: Result<Vec<u32>, ExceptionKind>,
}

/// Precomputed effect of one fused assertion block.
///
/// Register/PC effects are derived from the exact instruction
/// sequences the PECOS instrumenter emits (scratch registers
/// `r11`–`r13`); a region that does not match a known shape stays
/// [`PlanSlot::Unfusable`] and executes word-at-a-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FusedPlan {
    /// A block whose inputs are all static (`jmp`/`call`/branch
    /// protection): outcome and final scratch values are known at
    /// build time. `r13` always ends as `pass as u64`.
    Static {
        /// Final `r11`, for branch blocks (two-target formula).
        r11: Option<u64>,
        /// Final `r12` (the masked CFI target bits).
        r12: u64,
        /// Whether the assertion passes.
        pass: bool,
    },
    /// `ret` protection: `ld r12, [r15+0]; pckt r12, table`.
    StackTable {
        /// Text address of the shared return-site table.
        table: u16,
    },
    /// `callr`/`jr` protection: `mov r12, rs; pckt r12, table`.
    RegTable {
        /// The register holding the runtime target.
        src: u8,
        /// Text address of the valid-target table.
        table: u16,
    },
}

/// Build state of one installed region's plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanSlot {
    /// Needs (re)building from the current text.
    Stale,
    /// The region does not match a fusable shape; execute it
    /// word-at-a-time.
    Unfusable,
    /// Ready to apply.
    Ready(FusedPlan),
}

/// The machine's per-program decoded state. See the module docs for
/// the invalidation protocol.
#[derive(Debug, Clone)]
pub(crate) struct DecodedCache {
    slots: Vec<Slot>,
    /// Installed fusable regions `[start, end)`, sorted and disjoint;
    /// `end` is the protected CFI's address (also an input word for
    /// static plans, which read it via `ldt`).
    regions: Vec<(u16, u16)>,
    plans: Vec<PlanSlot>,
    /// `region_at_start[pc]` = region index + 1, or 0 — O(1) block
    /// entry detection in the run loop.
    region_at_start: Vec<u32>,
    /// Materialized `PCKT` tables, keyed by table address. Programs
    /// hold a handful of tables, so an association list beats a map.
    tables: Vec<(u16, TableEntry)>,
}

impl DecodedCache {
    pub fn new(text_len: usize) -> Self {
        DecodedCache {
            slots: vec![Slot::Cold; text_len],
            regions: Vec::new(),
            plans: Vec::new(),
            region_at_start: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Decodes `word` at `pc`, filling the slot on a miss. `None`
    /// means the word is poisoned (illegal instruction).
    #[inline]
    pub fn decode_at(&mut self, pc: usize, word: u32) -> Option<Inst> {
        match self.slots[pc] {
            Slot::Hot(inst) => Some(inst),
            Slot::Poisoned => None,
            Slot::Cold => match decode(word) {
                Ok(inst) => {
                    self.slots[pc] = Slot::Hot(inst);
                    Some(inst)
                }
                Err(_) => {
                    self.slots[pc] = Slot::Poisoned;
                    None
                }
            },
        }
    }

    /// Per-word invalidation: drops the decoded slot, marks any plan
    /// whose input range `[start, end]` covers the word stale, and
    /// drops any materialized table containing it.
    pub fn invalidate_word(&mut self, addr: usize) {
        if let Some(slot) = self.slots.get_mut(addr) {
            *slot = Slot::Cold;
        }
        if addr > u16::MAX as usize {
            return;
        }
        let a = addr as u16;
        // Regions are disjoint but a word can be the *end* of one block
        // (its CFI, read via `ldt`) and sit before the start of the
        // next, so check the two nearest candidates.
        let i = self.regions.partition_point(|&(start, _)| start <= a);
        for j in i.saturating_sub(2)..i {
            let (start, end) = self.regions[j];
            if a >= start && a <= end {
                self.plans[j] = PlanSlot::Stale;
            }
        }
        self.tables.retain(|&(table, ref entry)| {
            !(a == table || (a > table && u32::from(a - table) <= entry.span))
        });
    }

    /// Conservative full invalidation (the `text_mut` escape hatch).
    pub fn invalidate_all(&mut self) {
        self.slots.fill(Slot::Cold);
        self.plans.fill(PlanSlot::Stale);
        self.tables.clear();
    }

    /// Registers fusable candidate regions (sorted, deduplicated,
    /// clipped to the text segment). Replaces any previous set.
    pub fn install_regions(&mut self, ranges: &[(u16, u16)]) {
        let mut regions: Vec<(u16, u16)> = ranges
            .iter()
            .copied()
            .filter(|&(start, end)| start < end && (end as usize) < self.slots.len())
            .collect();
        regions.sort_unstable();
        // Drop any region overlapping its predecessor (defensive; the
        // instrumenter emits disjoint blocks).
        regions.dedup_by(|next, prev| next.0 <= prev.1);
        self.plans = vec![PlanSlot::Stale; regions.len()];
        self.region_at_start = vec![0; self.slots.len()];
        for (i, &(start, _)) in regions.iter().enumerate() {
            self.region_at_start[start as usize] = i as u32 + 1;
        }
        self.regions = regions;
    }

    /// True when any fusable region is installed.
    #[inline]
    pub fn has_regions(&self) -> bool {
        !self.regions.is_empty()
    }

    /// The region starting exactly at `pc`, if any.
    #[inline]
    pub fn region_starting_at(&self, pc: u16) -> Option<usize> {
        match self.region_at_start.get(pc as usize) {
            Some(&i) if i != 0 => Some(i as usize - 1),
            _ => None,
        }
    }

    /// Bounds of an installed region.
    #[inline]
    pub fn region(&self, idx: usize) -> (u16, u16) {
        self.regions[idx]
    }

    /// The region's plan, rebuilding from the current text if stale.
    pub fn plan(&mut self, text: &[u32], idx: usize) -> PlanSlot {
        if self.plans[idx] == PlanSlot::Stale {
            self.plans[idx] = Self::build_plan(text, self.regions[idx]);
        }
        self.plans[idx]
    }

    fn build_plan(text: &[u32], (start, end): (u16, u16)) -> PlanSlot {
        let (s, e) = (start as usize, end as usize);
        if e >= text.len() {
            return PlanSlot::Unfusable;
        }
        let mut insts = Vec::with_capacity(e - s);
        for &word in &text[s..e] {
            match decode(word) {
                Ok(inst) => insts.push(inst),
                Err(_) => return PlanSlot::Unfusable,
            }
        }
        use Inst::*;
        match insts.as_slice() {
            // jmp/call protection (Figure 7 degenerate case).
            [Ldt { rd: 12, addr }, Andi { rd: 12, rs: 12, imm: 0xFFFF }, Movi { rd: 13, imm: t }, Sub { rd: 13, rs: 12, rt: 13 }, Seqz { rd: 13, rs: 13 }, Divu { rd: 12, rs: 12, rt: 13 }]
                if *addr == end =>
            {
                let r12 = (text[e] & 0xFFFF) as u64;
                let pass = r12 == *t as u64;
                PlanSlot::Ready(FusedPlan::Static { r11: None, r12, pass })
            }
            // Conditional-branch protection (the literal Figure 7
            // two-target formula).
            [Ldt { rd: 12, addr }, Andi { rd: 12, rs: 12, imm: 0xFFFF }, Movi { rd: 13, imm: t }, Sub { rd: 13, rs: 12, rt: 13 }, Movi { rd: 11, imm: ft }, Sub { rd: 11, rs: 12, rt: 11 }, Mul { rd: 13, rs: 13, rt: 11 }, Seqz { rd: 13, rs: 13 }, Divu { rd: 12, rs: 12, rt: 13 }]
                if *addr == end =>
            {
                let r12 = (text[e] & 0xFFFF) as u64;
                let taken = r12.wrapping_sub(*t as u64);
                let fall = r12.wrapping_sub(*ft as u64);
                let pass = taken.wrapping_mul(fall) == 0;
                PlanSlot::Ready(FusedPlan::Static { r11: Some(fall), r12, pass })
            }
            // ret protection: runtime target on top of the stack.
            [Ld { rd: 12, rs: 15, imm: 0 }, Pckt { rs: 12, table }] => {
                PlanSlot::Ready(FusedPlan::StackTable { table: *table })
            }
            // callr/jr protection: runtime target in a register.
            [Mov { rd: 12, rs }, Pckt { rs: 12, table }] => {
                PlanSlot::Ready(FusedPlan::RegTable { src: *rs, table: *table })
            }
            _ => PlanSlot::Unfusable,
        }
    }

    /// The materialized table at `table`, building it on a miss.
    /// `max_count` is [`MachineConfig::max_pckt_table`]
    /// (crate::MachineConfig::max_pckt_table).
    pub fn table(&mut self, text: &[u32], table: u16, max_count: u32) -> &TableEntry {
        if let Some(i) = self.tables.iter().position(|&(t, _)| t == table) {
            return &self.tables[i].1;
        }
        let entry = Self::build_table(text, table, max_count);
        self.tables.push((table, entry));
        &self.tables.last().expect("just pushed").1
    }

    /// Replicates the slow path's fault order exactly: count word out
    /// of text, corrupted count, table overrunning the segment — then
    /// membership.
    fn build_table(text: &[u32], table: u16, max_count: u32) -> TableEntry {
        let Some(&count) = text.get(table as usize) else {
            return TableEntry {
                span: 0,
                result: Err(ExceptionKind::TextFault { addr: table as u32 }),
            };
        };
        if count > max_count {
            // A corrupted table counts as a failed assertion.
            return TableEntry { span: 0, result: Err(ExceptionKind::DivideByZero) };
        }
        let start = table as usize + 1;
        let end = start + count as usize;
        if end > text.len() {
            return TableEntry {
                span: 0,
                result: Err(ExceptionKind::TextFault { addr: end as u32 }),
            };
        }
        let mut words = text[start..end].to_vec();
        words.sort_unstable();
        TableEntry { span: count, result: Ok(words) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::encode;

    fn words(insts: &[Inst]) -> Vec<u32> {
        insts.iter().map(|&i| encode(i)).collect()
    }

    #[test]
    fn decode_at_caches_and_poisons() {
        let text = [encode(Inst::Nop), 0xFF00_0000];
        let mut cache = DecodedCache::new(text.len());
        assert_eq!(cache.decode_at(0, text[0]), Some(Inst::Nop));
        assert_eq!(cache.decode_at(0, text[0]), Some(Inst::Nop));
        assert_eq!(cache.decode_at(1, text[1]), None);
        // Poisoned slots stay poisoned until invalidated.
        assert_eq!(cache.decode_at(1, encode(Inst::Halt)), None);
        cache.invalidate_word(1);
        assert_eq!(cache.decode_at(1, encode(Inst::Halt)), Some(Inst::Halt));
    }

    #[test]
    fn table_build_sorts_and_caches_faults() {
        // {count=3, 9, 2, 5} at address 1.
        let text = vec![encode(Inst::Nop), 3, 9, 2, 5];
        let mut cache = DecodedCache::new(text.len());
        let entry = cache.table(&text, 1, 1_024);
        assert_eq!(entry.result.as_ref().unwrap(), &vec![2, 5, 9]);
        // Overrunning table faults with the slow path's address.
        let mut cache = DecodedCache::new(text.len());
        let entry = cache.table(&text, 3, 1_024);
        assert_eq!(entry.result, Err(ExceptionKind::TextFault { addr: 6 }));
        // Corrupted count is a failed assertion.
        let mut cache = DecodedCache::new(text.len());
        let entry = cache.table(&text, 1, 2);
        assert_eq!(entry.result, Err(ExceptionKind::DivideByZero));
    }

    #[test]
    fn table_invalidation_covers_count_and_members() {
        let text = vec![2, 7, 8, encode(Inst::Halt)];
        let mut cache = DecodedCache::new(text.len());
        cache.table(&text, 0, 16);
        cache.invalidate_word(3); // outside the table
        assert_eq!(cache.tables.len(), 1);
        cache.invalidate_word(2); // member word
        assert_eq!(cache.tables.len(), 0);
        cache.table(&text, 0, 16);
        cache.invalidate_word(0); // count word
        assert_eq!(cache.tables.len(), 0);
    }

    #[test]
    fn static_plan_precomputes_pass_and_fail() {
        // Block at [0, 6): protect `jmp 9` at address 6.
        let mut text = words(&[
            Inst::Ldt { rd: 12, addr: 6 },
            Inst::Andi { rd: 12, rs: 12, imm: 0xFFFF },
            Inst::Movi { rd: 13, imm: 9 },
            Inst::Sub { rd: 13, rs: 12, rt: 13 },
            Inst::Seqz { rd: 13, rs: 13 },
            Inst::Divu { rd: 12, rs: 12, rt: 13 },
            Inst::Jmp { addr: 9 },
        ]);
        let mut cache = DecodedCache::new(text.len());
        cache.install_regions(&[(0, 6)]);
        assert_eq!(
            cache.plan(&text, 0),
            PlanSlot::Ready(FusedPlan::Static { r11: None, r12: 9, pass: true })
        );
        // Corrupt the CFI's target bits: the stale plan must rebuild to
        // a failing one.
        text[6] = encode(Inst::Jmp { addr: 10 });
        cache.invalidate_word(6);
        assert_eq!(
            cache.plan(&text, 0),
            PlanSlot::Ready(FusedPlan::Static { r11: None, r12: 10, pass: false })
        );
    }

    #[test]
    fn unknown_shapes_are_unfusable() {
        let text = words(&[Inst::Nop, Inst::Nop, Inst::Halt]);
        let mut cache = DecodedCache::new(text.len());
        cache.install_regions(&[(0, 2)]);
        assert_eq!(cache.plan(&text, 0), PlanSlot::Unfusable);
        assert_eq!(cache.region_starting_at(0), Some(0));
        assert_eq!(cache.region_starting_at(1), None);
    }
}
