//! The heartbeat element and its probe parameters (§4.1).
//!
//! "Periodically, the manager process sends a heartbeat message to the
//! heartbeat element in the audit process and waits for a reply. If the
//! entire audit process has crashed or hung … the manager times out and
//! restarts the audit process." The manager's role is played by the
//! [`Supervisor`](crate::Supervisor), which probes this element with
//! the [`HeartbeatConfig`] cadence.

use serde::{Deserialize, Serialize};
use wtnc_sim::{SimDuration, SimTime};

/// The heartbeat element living inside the audit process: replies to
/// supervisor probes while the process is alive.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatElement {
    queries: u64,
    last_query: Option<SimTime>,
}

impl HeartbeatElement {
    /// Creates the element.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handles one heartbeat query, returning the reply payload (the
    /// query counter echoes back so the prober can match replies to
    /// queries).
    pub fn query(&mut self, at: SimTime) -> u64 {
        self.queries += 1;
        self.last_query = Some(at);
        self.queries
    }

    /// Queries served so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }
}

/// Heartbeat probe parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatConfig {
    /// Interval between heartbeat queries.
    pub interval: SimDuration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig { interval: SimDuration::from_secs(1) }
    }
}
