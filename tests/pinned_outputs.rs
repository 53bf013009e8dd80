//! Pinned campaign outputs: one seeded run of each injection campaign,
//! hashed from its `Debug` form and compared against a recorded CRC-32.
//!
//! The determinism tests elsewhere compare two runs of the same build;
//! these constants compare this build against the outputs the campaigns
//! produced when the values were recorded, so a refactor that claims to
//! keep every output byte-identical is checked against that claim. Each
//! run uses the reduced configuration the campaign's own unit tests use,
//! so the file stays within a few seconds in a debug build. A change
//! that alters a campaign's results on purpose records the new CRC here.

use std::fmt::Debug;

use wtnc::db::crc32;
use wtnc::inject::{
    db_campaign, powerfail_campaign, priority_campaign, process_campaign, recovery_campaign,
    storm_campaign, text_campaign, ErrorModel,
};
use wtnc::sim::SimDuration;

fn pin(name: &str, result: &impl Debug, expected: u32) {
    let actual = crc32(format!("{result:?}").as_bytes());
    assert_eq!(actual, expected, "{name}: output changed (crc32 {actual:#010x})");
}

#[test]
fn db_campaign_output_is_pinned() {
    let config = db_campaign::DbCampaignConfig {
        duration: SimDuration::from_secs(300),
        error_iat: SimDuration::from_secs(10),
        ..db_campaign::DbCampaignConfig::default()
    };
    pin("db", &db_campaign::run_once(&config, 1), 0x2666_0ce9);
}

#[test]
fn text_campaign_output_is_pinned() {
    let config = text_campaign::TextCampaignConfig {
        model: ErrorModel::Datainf,
        target: text_campaign::InjectionTarget::RandomText,
        runs: 1,
        threads: 2,
        iterations: 8,
        audit_every_steps: 2_000,
        step_budget: 200_000,
        seed: 0xBEEF,
        ..text_campaign::TextCampaignConfig::default()
    };
    let outcomes: Vec<_> = (0..8).map(|seed| text_campaign::run_one(&config, seed)).collect();
    pin("text", &outcomes, 0xc4ba_9035);
}

#[test]
fn priority_campaign_output_is_pinned() {
    let config = priority_campaign::PriorityCampaignConfig {
        prioritized: true,
        proportional_errors: false,
        duration: SimDuration::from_secs(120),
        mtbf: SimDuration::from_secs(2),
        ..priority_campaign::PriorityCampaignConfig::default()
    };
    pin("priority", &priority_campaign::run_once(&config, 1), 0xcf6e_679b);
}

#[test]
fn recovery_campaign_output_is_pinned() {
    let config = recovery_campaign::RecoveryCampaignConfig {
        duration: SimDuration::from_secs(300),
        error_iat: SimDuration::from_secs(10),
        ..recovery_campaign::RecoveryCampaignConfig::default()
    };
    pin("recovery", &recovery_campaign::run_once(&config, 1), 0xd1c9_a555);
}

#[test]
fn process_campaign_output_is_pinned() {
    let config = process_campaign::ProcessCampaignConfig {
        duration: SimDuration::from_secs(300),
        fault_iat: SimDuration::from_secs(30),
        model: process_campaign::ProcessFaultModel::ClientCrash,
        ..process_campaign::ProcessCampaignConfig::default()
    };
    pin("process", &process_campaign::run_once(&config, 1), 0xbe37_5d49);
}

#[test]
fn powerfail_campaign_output_is_pinned() {
    let config = powerfail_campaign::PowerFailConfig {
        model: powerfail_campaign::PowerFailModel::JournalCorruption,
        ..powerfail_campaign::PowerFailConfig::default()
    };
    pin("powerfail", &powerfail_campaign::run_once(&config, 1), 0xe743_1d8c);
}

#[test]
fn storm_campaign_output_is_pinned() {
    let config = storm_campaign::StormCampaignConfig {
        model: storm_campaign::StormModel::SuperProducer,
        load: 4.0,
        isolation: true,
        ..storm_campaign::StormCampaignConfig::default()
    };
    pin("storm", &storm_campaign::run_once(&config, 1), 0xc756_850b);
}
