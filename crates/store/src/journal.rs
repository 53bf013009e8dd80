//! The append-only mutation journal.
//!
//! Every record is length-prefixed and CRC-framed:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload = [kind: u8] [gen: u64 LE] [offset: u64 LE] [data ...]
//! ```
//!
//! `kind` 1 is a region write, `kind` 2 a golden-image commit — the
//! two mutation classes produced by `wtnc-db`'s unified capture hook
//! ([`CapturedMutation`]). `kind` 3 is a **compaction marker**: when
//! the journal is rotated after a checkpoint seals generation G, the
//! rotated file starts with a marker carrying `gen = G`, recording
//! that records with `gen ≤ G` were reclaimed (recovery must not
//! replay across that horizon from an older base image). The framing
//! makes the journal self-describing under power failure: a torn tail
//! (fewer bytes than the frame claims) or a corrupt record (CRC
//! mismatch) cuts replay at the last valid prefix, and the damage is
//! reported instead of a partial record ever being applied.

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

use wtnc_db::{crc32, CapturedMutation};

/// File name of the journal within a store directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// Temporary file used while rotating the journal during compaction;
/// atomically renamed over [`JOURNAL_FILE`] once fully synced.
pub const JOURNAL_TMP_FILE: &str = "journal.wal.tmp";

/// Frame header size: length prefix + CRC.
const FRAME_HEADER: usize = 8;

/// Payload prefix: kind byte + generation + offset.
const PAYLOAD_PREFIX: usize = 1 + 8 + 8;

/// Upper bound on one payload, as a framing sanity check — a length
/// prefix above this is treated as tail damage, not an allocation
/// request.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Journal I/O batch size: appends and rotations write their staged
/// frames out each time they reach this many bytes; scans read through
/// a buffer of the same size.
const STAGING: usize = 64 << 10;

const KIND_REGION: u8 = 1;
const KIND_GOLDEN: u8 = 2;
const KIND_COMPACTION: u8 = 3;

/// Damage found while scanning a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalDamage {
    /// The file ends mid-record (power failed during an append).
    TornTail {
        /// Byte offset of the incomplete record.
        at: u64,
    },
    /// A fully present record fails its CRC or carries an impossible
    /// kind/length (bit rot or tampering inside the file).
    CorruptRecord {
        /// Byte offset of the bad record.
        at: u64,
    },
}

/// Result of scanning a journal file.
#[derive(Debug, Default)]
pub struct JournalScan {
    /// The decoded records of the longest valid prefix, in order.
    pub records: Vec<CapturedMutation>,
    /// Byte length of that valid prefix.
    pub valid_bytes: u64,
    /// Damage that ended the scan, if any.
    pub damage: Option<JournalDamage>,
    /// Highest compaction-marker generation in the valid prefix:
    /// records with `gen ≤ compacted_through` were reclaimed by a
    /// journal rotation (0 when the journal was never compacted).
    pub compacted_through: u64,
}

/// Appends one captured mutation to `out` as a framed journal record:
/// header, payload and CRC written in place, no intermediate buffer.
pub fn encode_record_into(out: &mut Vec<u8>, m: &CapturedMutation) {
    let kind = if m.golden { KIND_GOLDEN } else { KIND_REGION };
    encode_frame_into(out, kind, m.gen, m.offset as u64, &m.bytes);
}

/// Encodes one captured mutation as a framed journal record.
pub fn encode_record(m: &CapturedMutation) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(&mut out, m);
    out
}

/// Encodes a compaction marker sealing everything at `gen` and below.
pub fn encode_compaction_marker(gen: u64) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, KIND_COMPACTION, gen, 0, &[]);
    out
}

fn encode_frame_into(out: &mut Vec<u8>, kind: u8, gen: u64, offset: u64, data: &[u8]) {
    let start = out.len();
    out.reserve(FRAME_HEADER + PAYLOAD_PREFIX + data.len());
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.push(kind);
    out.extend_from_slice(&gen.to_le_bytes());
    out.extend_from_slice(&offset.to_le_bytes());
    out.extend_from_slice(data);
    let payload = &out[start + FRAME_HEADER..];
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    out[start..start + 4].copy_from_slice(&len);
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&crc);
}

fn decode_payload(payload: &[u8]) -> Option<CapturedMutation> {
    if payload.len() < PAYLOAD_PREFIX {
        return None;
    }
    let golden = match payload[0] {
        KIND_REGION => false,
        KIND_GOLDEN => true,
        _ => return None,
    };
    let gen = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
    let offset = u64::from_le_bytes(payload[9..17].try_into().expect("8 bytes")) as usize;
    Some(CapturedMutation { gen, offset, bytes: payload[PAYLOAD_PREFIX..].to_vec(), golden })
}

/// Scans a journal file, returning the longest valid record prefix and
/// any tail damage. A missing file scans as empty. The scan streams
/// frame by frame through a 64 KiB read buffer and one reused payload
/// buffer; it never holds the whole file.
///
/// # Errors
///
/// Propagates I/O errors other than the file not existing.
pub fn scan_journal(path: &Path) -> std::io::Result<JournalScan> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(JournalScan::default()),
        Err(e) => return Err(e),
    };
    let file_len = file.metadata()?.len();
    let mut file = BufReader::with_capacity(STAGING, file);

    let mut scan = JournalScan::default();
    let mut header = [0u8; FRAME_HEADER];
    let mut payload: Vec<u8> = Vec::new();
    let mut at = 0u64;
    while at < file_len {
        let remaining = (file_len - at) as usize;
        if remaining < FRAME_HEADER {
            scan.damage = Some(JournalDamage::TornTail { at });
            break;
        }
        file.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if !(PAYLOAD_PREFIX..=MAX_PAYLOAD).contains(&len) {
            // An impossible length prefix: if the rest of the file
            // could not hold it anyway, call it a torn tail, else a
            // corrupt record.
            scan.damage = Some(if len > remaining - FRAME_HEADER {
                JournalDamage::TornTail { at }
            } else {
                JournalDamage::CorruptRecord { at }
            });
            break;
        }
        if remaining - FRAME_HEADER < len {
            scan.damage = Some(JournalDamage::TornTail { at });
            break;
        }
        payload.resize(len, 0);
        file.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            scan.damage = Some(JournalDamage::CorruptRecord { at });
            break;
        }
        if payload[0] == KIND_COMPACTION {
            let gen = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
            scan.compacted_through = scan.compacted_through.max(gen);
        } else {
            let Some(record) = decode_payload(&payload) else {
                scan.damage = Some(JournalDamage::CorruptRecord { at });
                break;
            };
            scan.records.push(record);
        }
        at += (FRAME_HEADER + len) as u64;
        scan.valid_bytes = at;
    }
    Ok(scan)
}

/// Appends framed records to an open journal file and makes them
/// durable with one `fdatasync`. Frames are encoded into a staging
/// buffer that is written out each time it reaches 64 KiB, so one
/// write carries at most 64 KiB plus one frame. Returns the number of
/// bytes written.
///
/// # Errors
///
/// Propagates I/O errors from the write or sync.
pub fn append_framed(file: &mut File, records: &[CapturedMutation]) -> std::io::Result<u64> {
    write_staged(file, Vec::with_capacity(STAGING), records)
}

/// Writes `staged` followed by the frames of `records` through the
/// staging buffer, then `sync_data` once if anything was written.
fn write_staged(
    file: &mut File,
    mut staged: Vec<u8>,
    records: &[CapturedMutation],
) -> std::io::Result<u64> {
    let mut written = 0u64;
    for m in records {
        encode_record_into(&mut staged, m);
        if staged.len() >= STAGING {
            file.write_all(&staged)?;
            written += staged.len() as u64;
            staged.clear();
        }
    }
    if !staged.is_empty() {
        file.write_all(&staged)?;
        written += staged.len() as u64;
    }
    if written > 0 {
        file.sync_data()?;
    }
    Ok(written)
}

/// Rotates the journal for compaction: writes a fresh journal holding
/// a compaction marker at `horizon` followed by `retained` records to
/// [`JOURNAL_TMP_FILE`] (staged like [`append_framed`]), syncs it once,
/// and atomically renames it over [`JOURNAL_FILE`]. A crash before the
/// rename leaves the old journal intact (the stray tmp file is ignored
/// and removed at open); a crash after it leaves the fully-synced
/// rotated journal. Returns the new journal's byte length.
///
/// # Errors
///
/// Propagates I/O errors from the write, sync, or rename.
pub fn rotate_journal(
    dir: &Path,
    horizon: u64,
    retained: &[CapturedMutation],
) -> std::io::Result<u64> {
    let tmp = dir.join(JOURNAL_TMP_FILE);
    let mut file = File::create(&tmp)?;
    let mut staged = Vec::with_capacity(STAGING);
    encode_frame_into(&mut staged, KIND_COMPACTION, horizon, 0, &[]);
    let bytes = write_staged(&mut file, staged, retained)?;
    drop(file);
    std::fs::rename(&tmp, dir.join(JOURNAL_FILE))?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchDir;
    use proptest::prelude::*;

    fn sample(gen: u64, golden: bool) -> CapturedMutation {
        CapturedMutation { gen, offset: 100 + gen as usize, bytes: vec![gen as u8; 5], golden }
    }

    fn record(gen: u64, len: usize, golden: bool) -> CapturedMutation {
        let bytes = (0..len).map(|i| (gen as usize).wrapping_add(i) as u8).collect();
        CapturedMutation { gen, offset: gen as usize & 0xFFFF, bytes, golden }
    }

    /// Bytes staged since the last batch write after appending `records`
    /// in one call (0 when the last frame filled a batch).
    fn staged_tail(head: usize, records: &[CapturedMutation]) -> usize {
        records.iter().fold(head, |acc, m| {
            let acc = acc + encode_record(m).len();
            if acc >= STAGING {
                0
            } else {
                acc
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Staged appends and rotations write exactly the bytes of the
        /// concatenated per-record frames, including a record larger
        /// than one batch and a batch that ends exactly on a staging
        /// boundary, and the scan returns the records unchanged.
        #[test]
        fn staged_writes_equal_concatenated_frames(
            shapes in proptest::collection::vec((any::<u64>(), 0usize..3_000, any::<bool>()), 0..40),
            big_len in 0usize..3 * STAGING,
            big_at in 0usize..40,
            exact in any::<bool>(),
            horizon in any::<u64>(),
        ) {
            let mut records: Vec<_> =
                shapes.into_iter().map(|(gen, len, golden)| record(gen, len, golden)).collect();
            // Draws past one batch carry a whole-region-sized record.
            if big_len >= STAGING {
                records.insert(big_at.min(records.len()), record(7, big_len, false));
            }
            for head in [0, encode_compaction_marker(horizon).len()] {
                let mut records = records.clone();
                if exact {
                    // Pad the call so its last batch ends exactly on
                    // the staging boundary.
                    let mut gap = STAGING - staged_tail(head, &records);
                    if gap < FRAME_HEADER + PAYLOAD_PREFIX {
                        gap += STAGING;
                    }
                    records.push(record(9, gap - FRAME_HEADER - PAYLOAD_PREFIX, true));
                    prop_assert_eq!(staged_tail(head, &records), 0);
                }
                let mut expected = if head == 0 { Vec::new() } else { encode_compaction_marker(horizon) };
                for m in &records {
                    expected.extend_from_slice(&encode_record(m));
                }

                let dir = ScratchDir::new("journal-staged");
                let path = dir.path().join(JOURNAL_FILE);
                let written = if head == 0 {
                    let mut file = File::create(&path).unwrap();
                    append_framed(&mut file, &records).unwrap()
                } else {
                    rotate_journal(dir.path(), horizon, &records).unwrap()
                };
                prop_assert_eq!(written, expected.len() as u64);
                prop_assert!(std::fs::read(&path).unwrap() == expected, "file bytes differ");

                let scan = scan_journal(&path).unwrap();
                prop_assert!(scan.damage.is_none());
                prop_assert_eq!(scan.valid_bytes, expected.len() as u64);
                prop_assert_eq!(scan.compacted_through, if head == 0 { 0 } else { horizon });
                prop_assert!(scan.records == records, "scan returns the records unchanged");
            }
        }
    }

    #[test]
    fn round_trip_and_scan() {
        let dir = ScratchDir::new("journal-roundtrip");
        let path = dir.path().join(JOURNAL_FILE);
        let records: Vec<_> = (1..=5).map(|g| sample(g, g % 2 == 0)).collect();
        let mut file = std::fs::File::create(&path).unwrap();
        append_framed(&mut file, &records).unwrap();
        drop(file);

        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_bytes, std::fs::metadata(&path).unwrap().len());
        assert!(scan.damage.is_none());
        assert_eq!(scan.compacted_through, 0);
    }

    #[test]
    fn missing_file_scans_empty() {
        let dir = ScratchDir::new("journal-missing");
        let scan = scan_journal(&dir.path().join(JOURNAL_FILE)).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_bytes, 0);
        assert!(scan.damage.is_none());
    }

    #[test]
    fn truncation_is_a_torn_tail_at_every_cut() {
        let dir = ScratchDir::new("journal-torn");
        let path = dir.path().join(JOURNAL_FILE);
        let records: Vec<_> = (1..=4).map(|g| sample(g, false)).collect();
        let mut file = std::fs::File::create(&path).unwrap();
        append_framed(&mut file, &records).unwrap();
        drop(file);
        let full = std::fs::read(&path).unwrap();

        // Every proper prefix recovers a whole number of records and
        // never a partial one. A cut exactly on a record boundary is a
        // clean (shorter) journal; any other cut is a torn tail.
        let mut boundaries = vec![0usize];
        for m in &records {
            boundaries.push(boundaries.last().unwrap() + encode_record(m).len());
        }
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_journal(&path).unwrap();
            assert!(scan.records.len() <= records.len());
            assert_eq!(scan.records, records[..scan.records.len()]);
            assert!(scan.valid_bytes as usize <= cut);
            if boundaries.contains(&cut) {
                assert!(scan.damage.is_none(), "cut {cut}");
            } else {
                assert!(matches!(scan.damage, Some(JournalDamage::TornTail { .. })), "cut {cut}");
            }
        }
    }

    #[test]
    fn bit_rot_is_a_corrupt_record() {
        let dir = ScratchDir::new("journal-rot");
        let path = dir.path().join(JOURNAL_FILE);
        let records: Vec<_> = (1..=3).map(|g| sample(g, false)).collect();
        let mut file = std::fs::File::create(&path).unwrap();
        append_framed(&mut file, &records).unwrap();
        drop(file);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the second record.
        let frame = FRAME_HEADER + PAYLOAD_PREFIX + 5;
        bytes[frame + FRAME_HEADER + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.damage, Some(JournalDamage::CorruptRecord { at: frame as u64 }));
    }

    #[test]
    fn rotation_writes_a_marker_plus_the_retained_tail() {
        let dir = ScratchDir::new("journal-rotate");
        let path = dir.path().join(JOURNAL_FILE);
        let records: Vec<_> = (1..=6).map(|g| sample(g, false)).collect();
        let mut file = std::fs::File::create(&path).unwrap();
        append_framed(&mut file, &records).unwrap();
        drop(file);
        let before = std::fs::metadata(&path).unwrap().len();

        let retained: Vec<_> = records.iter().filter(|m| m.gen > 4).cloned().collect();
        let bytes = rotate_journal(dir.path(), 4, &retained).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        assert!(bytes < before);
        assert!(!dir.path().join(JOURNAL_TMP_FILE).exists());

        let scan = scan_journal(&path).unwrap();
        assert!(scan.damage.is_none());
        assert_eq!(scan.compacted_through, 4);
        assert_eq!(scan.records, retained);

        // Appends after rotation keep working on the renamed file.
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        append_framed(&mut file, &[sample(7, true)]).unwrap();
        drop(file);
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.records.len(), retained.len() + 1);
        assert_eq!(scan.compacted_through, 4);
    }

    #[test]
    fn torn_rotated_journal_still_reports_its_marker_prefix() {
        let dir = ScratchDir::new("journal-rotate-torn");
        let path = dir.path().join(JOURNAL_FILE);
        let retained: Vec<_> = (5..=6).map(|g| sample(g, false)).collect();
        rotate_journal(dir.path(), 4, &retained).unwrap();
        let full = std::fs::read(&path).unwrap();
        let marker_len = encode_compaction_marker(4).len();

        // Cut inside the first retained record: the marker survives.
        std::fs::write(&path, &full[..marker_len + 3]).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.compacted_through, 4);
        assert!(scan.records.is_empty());
        assert!(matches!(scan.damage, Some(JournalDamage::TornTail { .. })));

        // Cut inside the marker itself: nothing valid at all.
        std::fs::write(&path, &full[..marker_len - 2]).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.compacted_through, 0);
        assert_eq!(scan.valid_bytes, 0);
        assert!(matches!(scan.damage, Some(JournalDamage::TornTail { .. })));
    }
}
