//! End-to-end tests for the incremental checkpoint engine: delta
//! checkpoints (dirty blocks + Merkle path updates against a full base
//! image), fold-based recovery, journal compaction, and the durable
//! golden image carried forward between checkpoints.

use proptest::prelude::*;
use wtnc_db::{Database, FieldDef, FieldWidth, TableDef, TableNature};
use wtnc_store::{
    parse_checkpoint_file_name, parse_delta_file_name, CheckpointKind, ScratchDir, Store,
    StoreConfig, StoreFindingKind, JOURNAL_FILE,
};

fn schema() -> Vec<TableDef> {
    vec![
        TableDef::new(
            "config",
            TableNature::Config,
            2,
            vec![
                FieldDef::static_value("n_cpus", FieldWidth::U8, 4),
                FieldDef::static_value("max_calls", FieldWidth::U32, 1000),
            ],
        ),
        TableDef::new(
            "conn",
            TableNature::Dynamic,
            64,
            vec![
                FieldDef::dynamic("caller", FieldWidth::U32).with_range(0, 99_999),
                FieldDef::dynamic("state", FieldWidth::U16),
            ],
        ),
    ]
}

fn db() -> Database {
    Database::build(schema()).expect("build db")
}

fn delta_config() -> StoreConfig {
    StoreConfig { full_every: 3, ..StoreConfig::default() }
}

fn mutate(db: &mut Database, rounds: usize, salt: u64) {
    let conn = wtnc_db::TableId(1);
    for i in 0..rounds {
        let idx = db.alloc_record_raw(conn).expect("alloc");
        let rec = wtnc_db::RecordRef::new(conn, idx);
        db.write_field_raw(rec, wtnc_db::FieldId(0), (salt * 31 + i as u64) % 99_999)
            .expect("write");
        if i % 3 == 2 {
            db.free_record_raw(rec).expect("free");
        }
    }
}

fn files(dir: &std::path::Path) -> (Vec<std::path::PathBuf>, Vec<std::path::PathBuf>) {
    let mut fulls = Vec::new();
    let mut deltas = Vec::new();
    for e in std::fs::read_dir(dir).unwrap() {
        let p = e.unwrap().path();
        let Some(name) = p.file_name().and_then(|n| n.to_str()) else { continue };
        if parse_checkpoint_file_name(name).is_some() {
            fulls.push(p);
        } else if parse_delta_file_name(name).is_some() {
            deltas.push(p);
        }
    }
    fulls.sort();
    deltas.sort();
    (fulls, deltas)
}

fn kinds(findings: &[wtnc_store::StoreFinding]) -> Vec<StoreFindingKind> {
    findings.iter().map(|f| f.kind).collect()
}

/// Builds a full+delta history: 6 checkpoints under `full_every = 3`
/// (full, delta, delta, full, delta, delta) plus a journaled tail.
/// Returns the final `(region, golden)` reference.
fn build_delta_history(dir: &std::path::Path) -> (Vec<u8>, Vec<u8>) {
    let mut db = db();
    let mut store = Store::open(dir, delta_config()).expect("open");
    store.attach(&mut db);
    for c in 0..6 {
        mutate(&mut db, 4, c as u64 + 1);
        store.checkpoint(&mut db).expect("checkpoint");
    }
    mutate(&mut db, 3, 99);
    store.sync(&mut db).expect("sync");
    let stats = store.stats();
    assert_eq!(stats.full_checkpoints, 2, "every 3rd checkpoint is full");
    assert_eq!(stats.delta_checkpoints, 4);
    (db.region().to_vec(), db.golden().to_vec())
}

#[test]
fn delta_chains_recover_the_exact_image() {
    let scratch = ScratchDir::new("delta-recover");
    let (region, golden) = build_delta_history(scratch.path());
    let (fulls, deltas) = files(scratch.path());
    assert_eq!(fulls.len(), 2);
    assert_eq!(deltas.len(), 4);

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("reopen");
    assert!(store.open_findings().is_empty(), "clean history: {:?}", store.open_findings());
    assert_eq!(
        store.chain().iter().filter(|e| e.kind == CheckpointKind::Delta).count(),
        4,
        "deltas join the verified chain"
    );
    let info = store.recover_into(&mut db2).expect("recover");
    assert!(info.base_gen > 0);
    assert!(info.replayed > 0, "journal tail replayed on top of the fold");
    assert!(info.findings.is_empty(), "{:?}", info.findings);
    assert_eq!(db2.region(), &region[..]);
    assert_eq!(db2.golden(), &golden[..]);
}

#[test]
fn delta_files_scale_with_dirty_not_image() {
    let scratch = ScratchDir::new("delta-size");
    build_delta_history(scratch.path());
    let (fulls, deltas) = files(scratch.path());
    let full_size = std::fs::metadata(&fulls[0]).unwrap().len();
    for d in &deltas {
        let delta_size = std::fs::metadata(d).unwrap().len();
        assert!(
            delta_size * 2 < full_size,
            "a 4-record delta should be far smaller than the {full_size}-byte image \
             (got {delta_size})"
        );
    }
}

#[test]
fn torn_newest_delta_falls_back_and_the_journal_carries_forward() {
    let scratch = ScratchDir::new("delta-torn");
    let (region, _) = build_delta_history(scratch.path());
    let (_, deltas) = files(scratch.path());
    let newest = deltas.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("reopen");
    let info = store.recover_into(&mut db2).expect("recover");
    let ks = kinds(&info.findings);
    assert!(ks.contains(&StoreFindingKind::TornCheckpoint), "{ks:?}");
    assert!(ks.contains(&StoreFindingKind::StaleCheckpointRecovered), "{ks:?}");
    assert_eq!(db2.region(), &region[..], "journal replay reaches the exact image anyway");
}

#[test]
fn missing_middle_delta_is_detected_by_the_folded_root() {
    let scratch = ScratchDir::new("delta-missing-middle");
    let (region, _) = build_delta_history(scratch.path());
    let (_, deltas) = files(scratch.path());
    // Remove the first delta of the *second* lineage (deltas are
    // sorted by generation; index 2 is the first delta after the
    // second full image). The newest delta's fold now lacks its
    // sibling's blocks.
    std::fs::remove_file(&deltas[2]).unwrap();

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("reopen");
    let info = store.recover_into(&mut db2).expect("recover");
    let ks = kinds(&info.findings);
    // The open-time scan sees the chain gap, and the fold of the
    // surviving newest delta recomputes to a root that does not match
    // the sealed one.
    assert!(ks.contains(&StoreFindingKind::ChainBreak), "{ks:?}");
    assert!(ks.contains(&StoreFindingKind::StaleCheckpointRecovered), "{ks:?}");
    assert_eq!(db2.region(), &region[..], "journal replay still reaches the exact image");
}

#[test]
fn delta_damage_kinds_are_distinct_under_verify() {
    let scratch = ScratchDir::new("delta-verify-kinds");
    build_delta_history(scratch.path());
    let (_, deltas) = files(scratch.path());

    // Tamper a dirty block's bytes (past the 56-byte meta + 4-byte
    // index): the leaf MAC catches it.
    let pristine = std::fs::read(&deltas[0]).unwrap();
    let mut bytes = pristine.clone();
    bytes[12 + 56 + 4 + 10] ^= 0x01;
    std::fs::write(&deltas[0], &bytes).unwrap();
    let findings = Store::verify(scratch.path(), &delta_config()).unwrap();
    assert!(kinds(&findings).contains(&StoreFindingKind::BlockMacMismatch));

    // Tamper a node entry near the tail: the sealed digest catches it.
    let mut bytes = pristine.clone();
    let len = bytes.len();
    bytes[len - 12] ^= 0x01;
    std::fs::write(&deltas[0], &bytes).unwrap();
    let findings = Store::verify(scratch.path(), &delta_config()).unwrap();
    assert!(kinds(&findings).contains(&StoreFindingKind::CheckpointDigestMismatch));

    std::fs::write(&deltas[0], &pristine).unwrap();
    assert!(Store::verify(scratch.path(), &delta_config()).unwrap().is_empty());
}

#[test]
fn compaction_reclaims_the_journal_and_recovery_stays_exact() {
    let scratch = ScratchDir::new("compact-exact");
    let (region, expect_replay) = {
        let mut db = db();
        let mut store = Store::open(scratch.path(), delta_config()).expect("open");
        store.attach(&mut db);
        mutate(&mut db, 8, 1);
        store.checkpoint(&mut db).expect("checkpoint");
        mutate(&mut db, 8, 2);
        store.checkpoint(&mut db).expect("checkpoint");
        let before = store.journal_bytes();
        let reclaimed = store.compact().expect("compact");
        assert!(reclaimed > 0, "records at or below the horizon are reclaimed");
        assert!(store.journal_bytes() < before);
        assert_eq!(store.stats().compactions, 1);
        assert_eq!(store.stats().reclaimed_bytes, reclaimed);
        // Post-compaction appends land in the rotated journal.
        mutate(&mut db, 3, 3);
        store.sync(&mut db).expect("sync");
        (db.region().to_vec(), store.journal_records())
    };
    assert!(expect_replay > 0);

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("reopen");
    assert!(store.compacted_through() > 0, "the marker survives reopen");
    let info = store.recover_into(&mut db2).expect("recover");
    assert!(info.findings.is_empty(), "{:?}", info.findings);
    assert!(info.replayed > 0, "the retained suffix replays normally");
    assert_eq!(db2.region(), &region[..]);
}

#[test]
fn compacting_twice_without_new_state_is_a_noop() {
    let scratch = ScratchDir::new("compact-noop");
    let mut db = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("open");
    store.attach(&mut db);
    mutate(&mut db, 4, 1);
    store.checkpoint(&mut db).expect("checkpoint");
    assert!(store.compact().expect("compact") > 0);
    assert_eq!(store.compact().expect("compact again"), 0);
    assert_eq!(store.stats().compactions, 1);
}

#[test]
fn recovery_past_the_compaction_horizon_reports_the_gap() {
    let scratch = ScratchDir::new("compact-gap");
    let base_region = {
        let mut db = db();
        let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
        store.attach(&mut db);
        mutate(&mut db, 4, 1);
        store.checkpoint(&mut db).expect("checkpoint 1");
        let base_region = db.region().to_vec();
        mutate(&mut db, 4, 2);
        store.checkpoint(&mut db).expect("checkpoint 2");
        store.compact().expect("compact");
        base_region
    };
    // Newest checkpoint torn: recovery must fall back to checkpoint 1,
    // which is *behind* the compaction horizon — the retained journal
    // suffix is disjoint and must not be replayed onto it.
    let (fulls, _) = files(scratch.path());
    let newest = fulls.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 3]).unwrap();

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("reopen");
    let info = store.recover_into(&mut db2).expect("recover");
    let ks = kinds(&info.findings);
    assert!(ks.contains(&StoreFindingKind::TornCheckpoint), "{ks:?}");
    assert!(ks.contains(&StoreFindingKind::CompactionGap), "{ks:?}");
    assert_eq!(info.replayed, 0, "the disjoint suffix is not replayed");
    assert_eq!(db2.region(), &base_region[..], "honest stop at the base image");
}

#[test]
fn reopen_recovery_rewarms_the_lineage_and_keeps_the_cadence() {
    let scratch = ScratchDir::new("delta-rewarm");
    build_delta_history(scratch.path());
    let (fulls, deltas) = files(scratch.path());
    assert_eq!((fulls.len(), deltas.len()), (2, 4));

    // The on-disk history ends full, delta, delta: the recovered
    // lineage already holds 2 deltas, so under `full_every = 3` the
    // next checkpoint is periodically due as a full image...
    let mut db2 = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("reopen");
    store.recover_into(&mut db2).expect("recover");
    store.attach(&mut db2);
    mutate(&mut db2, 2, 7);
    store.checkpoint(&mut db2).expect("checkpoint");
    assert_eq!(store.stats().full_checkpoints, 1, "the cadence survives the reopen");
    let (fulls, _) = files(scratch.path());
    assert_eq!(fulls.len(), 3);

    // ...and the fresh lineage rides deltas again.
    mutate(&mut db2, 2, 8);
    store.checkpoint(&mut db2).expect("checkpoint");
    assert_eq!(store.stats().delta_checkpoints, 1);
}

#[test]
fn torn_link_excluded_at_open_still_leaves_a_writable_lineage() {
    let scratch = ScratchDir::new("delta-torn-link");
    build_delta_history(scratch.path());
    let (_, deltas) = files(scratch.path());
    // Tear the newest delta before reopening: the scan drops it from
    // the chain, recovery folds the surviving prefix of the lineage,
    // and new deltas may keep riding on it — each delta re-covers its
    // own dirty set, so the torn sibling orphans nothing.
    let newest = deltas.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();

    let mut db2 = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("reopen");
    store.recover_into(&mut db2).expect("recover");
    store.attach(&mut db2);
    mutate(&mut db2, 2, 7);
    store.checkpoint(&mut db2).expect("checkpoint");
    assert_eq!(store.stats().delta_checkpoints, 1, "the surviving lineage stays writable");

    // A third reopen must recover that post-damage delta exactly.
    let reference = db2.region().to_vec();
    let mut db3 = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("re-reopen");
    let info = store.recover_into(&mut db3).expect("recover");
    assert_eq!(db3.region(), &reference[..]);
    assert!(kinds(&info.findings).contains(&StoreFindingKind::TornCheckpoint));
}

#[test]
fn mid_recovery_fallback_does_not_rewarm_the_lineage() {
    let scratch = ScratchDir::new("delta-no-rewarm");
    build_delta_history(scratch.path());
    let (_, deltas) = files(scratch.path());

    // Open first (the chain still lists the newest delta), then tear
    // it on disk: fold_candidate fails mid-recovery and falls back.
    // The session must NOT keep writing deltas against a lineage whose
    // newest chained link just proved unreadable.
    let mut store = Store::open(scratch.path(), delta_config()).expect("reopen");
    let newest = deltas.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();

    let mut db2 = db();
    let info = store.recover_into(&mut db2).expect("recover");
    assert!(kinds(&info.findings).contains(&StoreFindingKind::StaleCheckpointRecovered));
    store.attach(&mut db2);
    mutate(&mut db2, 2, 7);
    store.checkpoint(&mut db2).expect("checkpoint");
    assert_eq!(store.stats().full_checkpoints, 1, "fallback restarts with a full image");
    assert_eq!(store.stats().delta_checkpoints, 0);
}

#[test]
fn zero_dirty_delta_still_links_the_chain() {
    let scratch = ScratchDir::new("delta-zero-dirty");
    let mut db = db();
    let mut store = Store::open(scratch.path(), delta_config()).expect("open");
    store.attach(&mut db);
    mutate(&mut db, 4, 1);
    store.checkpoint(&mut db).expect("full");
    // A re-checkpoint at the same generation rewrites in place (full),
    // rather than writing a delta that would orphan its own base.
    store.checkpoint(&mut db).expect("same-gen recheckpoint");
    assert_eq!(store.stats().full_checkpoints, 2);
    let (fulls, deltas) = files(scratch.path());
    assert_eq!((fulls.len(), deltas.len()), (1, 0));

    mutate(&mut db, 2, 2);
    store.checkpoint(&mut db).expect("delta");
    assert_eq!(store.stats().delta_checkpoints, 1);
    assert!(Store::verify(scratch.path(), &delta_config()).unwrap().is_empty());
}

#[test]
fn crashed_compaction_tmp_file_is_swept_at_open() {
    let scratch = ScratchDir::new("compact-tmp-sweep");
    let mut db = db();
    {
        let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
        store.attach(&mut db);
        mutate(&mut db, 4, 1);
        store.checkpoint(&mut db).expect("checkpoint");
    }
    // Simulate a crash mid-rotation: a stray tmp next to a live journal.
    std::fs::write(scratch.path().join("journal.wal.tmp"), b"half-written garbage").unwrap();
    let store = Store::open(scratch.path(), StoreConfig::default()).expect("reopen");
    assert!(!scratch.path().join("journal.wal.tmp").exists());
    assert!(store.open_findings().is_empty());
    assert!(scratch.path().join(JOURNAL_FILE).exists());
}

#[test]
fn durable_golden_behind_the_compaction_horizon_is_refused() {
    let scratch = ScratchDir::new("golden-gap");
    let mut db = db();
    let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
    store.attach(&mut db);
    mutate(&mut db, 4, 1);
    store.checkpoint(&mut db).expect("checkpoint 1");
    let offset = db.golden().len() - 1;
    let before = db.golden()[offset];
    mutate(&mut db, 1, 2);
    db.restore_golden_range(offset, &[before ^ 0x5a]).expect("golden commit");
    store.checkpoint(&mut db).expect("checkpoint 2");
    assert!(store.compact().expect("compact") > 0);

    // Damage the newest image after open. The only usable image is now
    // checkpoint 1, behind the horizon that reclaimed the golden
    // commit: serving it would silently drop that commit.
    let (fulls, _) = files(scratch.path());
    let newest = fulls.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    // Checkpoint content follows the 52-byte header, region first.
    bytes[52 + db.region().len() + offset] ^= 0x01;
    std::fs::write(newest, &bytes).unwrap();
    assert!(!Store::verify(scratch.path(), &StoreConfig::default()).unwrap().is_empty());

    assert!(store.durable_golden_detail().expect("read").is_none(), "honest stop, no splice");
    assert!(store.durable_golden().expect("read").is_none());
}

#[test]
fn durable_golden_carries_journaled_golden_commits_forward() {
    let scratch = ScratchDir::new("golden-overlay");
    let mut db = db();
    let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
    store.attach(&mut db);
    mutate(&mut db, 4, 1);
    let gen = store.checkpoint(&mut db).expect("checkpoint");
    let block = wtnc_db::DIRTY_BLOCK_SIZE;
    let n_blocks = db.golden().len().div_ceil(block);
    assert!(n_blocks >= 2, "the test needs two golden blocks");

    let first = store.durable_golden_detail().expect("read").expect("image");
    assert_eq!(first.base_gen, gen);
    assert_eq!(first.golden, db.golden());
    assert!(first.attested.iter().all(|&a| a), "checkpoint-pure blocks are attested");

    // Golden commits journaled after the fill, one per call, are
    // overlaid and lose their attestation block by block.
    let last = db.golden().len() - 1;
    for (k, offset) in [0, last].into_iter().enumerate() {
        mutate(&mut db, 1, 2 + k as u64);
        let flipped = db.golden()[offset] ^ 0x5a;
        db.restore_golden_range(offset, &[flipped]).expect("golden commit");
        store.sync(&mut db).expect("sync");
        let d = store.durable_golden_detail().expect("read").expect("image");
        assert_eq!(d.base_gen, gen);
        assert_eq!(d.golden, db.golden(), "commit {k} carried forward");
        assert!(!d.is_attested(offset), "commit {k} is journal-overlaid");
        assert_eq!(d.attested.iter().filter(|&&a| !a).count(), k + 1);
    }
}

/// `(base_gen, golden, attested)` of the store's durable golden.
type GoldenView = Option<(u64, Vec<u8>, Vec<bool>)>;

fn golden_view(store: &mut Store) -> GoldenView {
    store
        .durable_golden_detail()
        .expect("durable golden")
        .map(|d| (d.base_gen, d.golden, d.attested))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The durable golden a live store carries forward incrementally
    /// equals the one a freshly opened store folds cold from the same
    /// directory, after every step of a seeded sequence of region
    /// writes, golden commits, syncs, checkpoints (including same-gen
    /// re-checkpoints) and compactions.
    #[test]
    fn cached_durable_golden_equals_a_cold_fold(
        delta in any::<bool>(),
        ops in prop::collection::vec((0usize..6, any::<u64>()), 8..30),
    ) {
        let scratch = ScratchDir::new("golden-parity");
        let config = StoreConfig { full_every: if delta { 3 } else { 1 }, ..StoreConfig::default() };
        let mut db = db();
        let mut store = Store::open(scratch.path(), config).expect("open");
        store.attach(&mut db);
        for (op, arg) in ops {
            match op {
                // Net two live records per write: 30 steps fit the
                // 64-slot table.
                0 | 1 => mutate(&mut db, 3, arg % 1000),
                2 => {
                    let len = db.golden().len();
                    let offset = arg as usize % len;
                    let n = (1 + (arg >> 32) as usize % 48).min(len - offset);
                    let bytes: Vec<u8> = (0..n).map(|i| (arg >> (i % 8 * 8)) as u8 ^ i as u8).collect();
                    db.restore_golden_range(offset, &bytes).expect("golden commit");
                }
                3 => {
                    store.sync(&mut db).expect("sync");
                }
                4 => {
                    store.checkpoint(&mut db).expect("checkpoint");
                    if arg % 3 == 0 {
                        store.checkpoint(&mut db).expect("same-gen re-checkpoint");
                    }
                }
                _ => {
                    store.compact().expect("compact");
                }
            }
            let live = golden_view(&mut store);
            let cold = golden_view(&mut Store::open(scratch.path(), config).expect("reopen"));
            prop_assert_eq!(live, cold);
        }
    }
}
