//! In-memory database substrate of the wireless telephone network
//! controller.
//!
//! This crate reproduces the database subsystem described in §3 of the
//! paper:
//!
//! * The entire database lives in one **contiguous, statically
//!   allocated memory region** ([`Database`] owns a `Vec<u8>`); no
//!   dynamic allocation happens during operation, so the image size is
//!   constant.
//! * The region begins with the **system catalog** — table and field
//!   descriptors serialized *into the region itself*, referenced on
//!   every API operation. Corrupting the catalog therefore corrupts
//!   every subsequent database operation, exactly the failure mode the
//!   paper calls the most serious.
//! * Every record starts with a **header** (record identifier computed
//!   from its offset, status byte, logical-group links) that the
//!   structural audit validates, and tables are a mixture of **static**
//!   fields (configuration, covered by a CRC-32 golden checksum) and
//!   **dynamic** fields (covered by range and semantic checks).
//! * Clients access the database through the **DB API** ([`DbApi`]):
//!   `DBinit`, `DBclose`, `DBread_rec`, `DBread_fld`, `DBwrite_rec`,
//!   `DBwrite_fld`, `DBmove` — with transparent per-record locking,
//!   shadow metadata (last writer, last access time, access counters)
//!   and event notification to the audit process.
//! * A **golden disk image** supports the paper's recovery actions
//!   (reload affected portion / reload entire database).
//!
//! Fault injection flips bits in the real backing bytes; a parallel
//! [`TaintMap`] ledger records ground truth for classifying experiment
//! outcomes without influencing detection, which always operates on the
//! actual bytes.
//!
//! # Example
//!
//! ```
//! use wtnc_db::{Database, DbApi, schema};
//! use wtnc_sim::{Pid, SimTime};
//!
//! let mut db = Database::build(schema::standard_schema()).unwrap();
//! let mut api = DbApi::new();
//! let client = Pid(7);
//! api.init(client);
//!
//! // Allocate a record in the Connection table and write a field.
//! let conn = schema::CONNECTION_TABLE;
//! let rec = api.alloc_record(&mut db, client, conn, SimTime::ZERO).unwrap();
//! api.write_fld(&mut db, client, conn, rec, schema::connection::CALLER_ID,
//!               42, SimTime::ZERO).unwrap();
//! let v = api.read_fld(&mut db, client, conn, rec, schema::connection::CALLER_ID,
//!                      SimTime::ZERO).unwrap();
//! assert_eq!(v, 42);
//! ```

// `deny`, not `forbid`: the one sanctioned exception is the
// runtime-feature-gated PCLMULQDQ CRC kernel (`crc::pclmul`), which
// carries its own scoped `allow` and safety argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod catalog;
mod crc;
mod database;
mod dirty;
mod error;
mod events;
pub mod layout;
pub mod schema;
mod taint;

pub use api::{ApiCosts, DbApi, IpcConfig, LockTable};
pub use catalog::{
    Catalog, FieldDef, FieldId, FieldKind, FieldWidth, TableDef, TableId, TableNature,
};
pub use crc::{
    crc32, crc32_bytewise, crc32_combine, crc32_slice8, crc32_with, crc_kernel,
    set_crc_kernel_override, Crc32Shift, CrcKernel,
};
pub use database::{CapturedMutation, Database, RecordMeta, RecordRef, TableStats};
pub use dirty::{DirtyTracker, DIRTY_BLOCK_SIZE};
pub use error::DbError;
pub use events::{DbEvent, DbOp};
pub use taint::{TaintEntry, TaintFate, TaintKind, TaintMap};
