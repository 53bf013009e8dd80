//! Quickstart: build a controller, corrupt its database, watch the
//! audit subsystem detect and repair the damage.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use wtnc::audit::AuditConfig;
use wtnc::db::{schema, RecordRef};
use wtnc::sim::{Pid, SimTime};
use wtnc::Controller;

fn main() {
    // A controller node with the standard telephone-controller schema
    // (catalog + config tables + the process/connection/resource loop)
    // and the audit process.
    let mut controller = Controller::standard().with_audit(AuditConfig::default());
    println!(
        "controller up: {} tables, {} byte database image, audit alive = {}",
        controller.db.catalog().table_count(),
        controller.db.region_len(),
        controller.audit_alive(),
    );

    // A client sets up a call: one record in each of the process,
    // connection and resource tables, linked into a closed semantic
    // loop.
    let client = Pid(100);
    controller.api.init(client);
    let now = SimTime::from_secs(1);
    let p = controller
        .api
        .alloc_record(&mut controller.db, client, schema::PROCESS_TABLE, now)
        .expect("allocate process record");
    let c = controller
        .api
        .alloc_record(&mut controller.db, client, schema::CONNECTION_TABLE, now)
        .expect("allocate connection record");
    let r = controller
        .api
        .alloc_record(&mut controller.db, client, schema::RESOURCE_TABLE, now)
        .expect("allocate resource record");
    for (table, rec, field, value) in [
        (schema::PROCESS_TABLE, p, schema::process::CONNECTION_ID, c as u64),
        (schema::CONNECTION_TABLE, c, schema::connection::CHANNEL_ID, r as u64),
        (schema::CONNECTION_TABLE, c, schema::connection::CALLER_ID, 5_234),
        (schema::RESOURCE_TABLE, r, schema::resource::PROCESS_ID, p as u64),
    ] {
        controller
            .api
            .write_fld(&mut controller.db, client, table, rec, field, value, now)
            .expect("write field");
    }
    println!("call set up: process {p}, connection {c}, resource {r}");

    // Three corruptions, one for each audit element class.
    let (cfg_off, _) = controller
        .db
        .field_extent(RecordRef::new(schema::SYSCONFIG_TABLE, 0), schema::sysconfig::MAX_CALLS)
        .unwrap();
    controller.inject_bit_flip(cfg_off, 5, SimTime::from_secs(2)); // static data
    let hdr_off = controller.db.record_offset(RecordRef::new(schema::PROCESS_TABLE, 7)).unwrap();
    controller.inject_bit_flip(hdr_off, 1, SimTime::from_secs(2)); // structural
    let (state_off, _) = controller
        .db
        .field_extent(RecordRef::new(schema::CONNECTION_TABLE, c), schema::connection::STATE)
        .unwrap();
    controller.inject_bit_flip(state_off, 7, SimTime::from_secs(2)); // dynamic range

    println!("injected 3 bit flips; latent corruptions = {}", controller.db.taint().latent_count());

    // The periodic audit tick sweeps the whole database.
    let report =
        controller.run_audit_cycle(SimTime::from_secs(10)).expect("audit process is alive");
    println!(
        "audit cycle: {} findings over {} records",
        report.findings.len(),
        report.records_checked
    );
    for finding in &report.findings {
        println!("  [{:?}] {} -> {:?}", finding.element, finding.detail, finding.action);
    }
    println!("latent corruptions after the cycle = {}", controller.db.taint().latent_count());
}
