//! End-to-end benchmark of the assembled `wtnc::Controller`.
//!
//! A run executes *passes*. A pass is a fixed list of seeded episodes;
//! each episode sets up a fresh controller (timed as set-up) and drives
//! one workload through it (timed as the loop). Every pass of a run
//! repeats the same episodes, so virtual-time results must repeat
//! exactly between passes while wall-clock results give one sample per
//! pass; wall metrics are medians over passes.
//!
//! See `LAYERS.md` beside this crate for the metric map.

#![forbid(unsafe_code)]

pub mod calib;
pub mod des;
pub mod isa_client;
pub mod stats;
pub mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use wtnc::audit::{AuditElementKind, AuditReport, ExecutorMode};
use wtnc::sim::{SimDuration, SimRng};

use crate::des::DesSpec;
use crate::isa_client::IsaSpec;
use crate::trace::Tracer;

/// The gated end-to-end metrics (`--trace 0`), with their units. They
/// must match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] =
    [("calls_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics (`--trace 1`), with their units. They must
/// match `BENCHMARK.json`. A layer a workload does not attach reads 0
/// (counts, bytes, shares and rates only: per-call times of such
/// layers appear in the report, never here).
pub const PER_LAYER: [(&str, &str); 53] = [
    ("callproc.calls_offered", "count"),
    ("callproc.calls_refused", "count"),
    ("callproc.calls_dropped", "count"),
    ("callproc.calls_corrupted", "count"),
    ("callproc.share", "frac"),
    ("db.api_ops_per_call", "count"),
    ("db.events_shed", "count"),
    ("db.events_backpressured", "count"),
    ("db.captured_records", "count"),
    ("audit.cycle_us", "us"),
    ("audit.cycle_p99_us", "us"),
    ("audit.records_checked", "count"),
    ("audit.tables_checked", "count"),
    ("audit.tables_shed", "count"),
    ("audit.degraded_cycles", "count"),
    ("audit.findings", "count"),
    ("audit.records_per_ms", "1/ms"),
    ("audit.exec_serial", "count"),
    ("audit.exec_parallel", "count"),
    ("audit.exec_serial_fallback", "count"),
    ("audit.share", "frac"),
    ("recovery.attempted", "count"),
    ("recovery.verified", "count"),
    ("recovery.escalated", "count"),
    ("recovery.deferred", "count"),
    ("recovery.tokens_spent", "count"),
    ("recovery.rung_field", "count"),
    ("recovery.rung_record", "count"),
    ("recovery.rung_table", "count"),
    ("recovery.rung_client", "count"),
    ("recovery.rung_controller", "count"),
    ("recovery.verify_ratio", "frac"),
    ("recovery.disk_refreshed_bytes", "B"),
    ("supervisor.restarts", "count"),
    ("supervisor.controller_restarts", "count"),
    ("supervisor.share", "frac"),
    ("store.journal_bytes", "B"),
    ("store.checkpoint_bytes", "B"),
    ("store.write_amp", "ratio"),
    ("store.reclaimed_bytes", "B"),
    ("store.share", "frac"),
    ("isa.steps", "count"),
    ("isa.inst_per_s", "1/s"),
    ("isa.supersteps", "count"),
    ("isa.superblock_entries", "count"),
    ("isa.superblock_invalidations", "count"),
    ("isa.share", "frac"),
    ("pecos.detected", "count"),
    ("pecos.system_faults", "count"),
    ("pecos.fail_silent", "count"),
    ("bench.harness_us", "us"),
    ("bench.span_coverage", "frac"),
    ("bench.trace_overhead", "us"),
];

/// The counters (as bit patterns) and the virtual-time samples of a
/// pass: call-setup, detection and supervisor-detection latencies.
pub type Fingerprint = (Vec<(&'static str, u64)>, Vec<u64>, Vec<u64>, Vec<u64>);

/// What one episode (or a merged pass) measured.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// Deterministic counters, by name.
    pub virt: BTreeMap<&'static str, f64>,
    /// Virtual call-setup latencies, µs (DES workloads).
    pub setup_latency_us: Vec<u64>,
    /// Virtual fault-to-first-detection latencies, µs.
    pub detect_us: Vec<u64>,
    /// Virtual supervisor detection latencies, µs.
    pub supervisor_detect_us: Vec<u64>,
    /// Calls completed (DES call setups or ISA client iterations).
    pub calls: u64,
    /// Wall time of the driven loop, ns.
    pub loop_ns: u64,
    /// Wall time of set-up, ns, one sample per episode.
    pub setup_ns: Vec<u64>,
    /// Wall time of the store open with warm recovery (part of
    /// set-up), ns, one sample per durable episode.
    pub open_recover_ns: Vec<u64>,
    /// Reference-workload times measured around the episode, ns.
    pub ref_ns: Vec<u64>,
    /// Loop wall time at the nominal host speed, ns.
    pub norm_loop_ns: f64,
    /// Set-up times at the nominal host speed, ns.
    pub norm_setup_ns: Vec<f64>,
    /// Stall times at the nominal host speed, ns.
    pub norm_stall_ns: Vec<f64>,
    /// Controller operations that returned an error.
    pub op_errors: Vec<String>,
    /// Audit executor modes seen.
    pub exec_modes: BTreeSet<&'static str>,
    /// Failed correctness checks.
    pub violations: Vec<String>,
}

impl Episode {
    /// Sets a counter.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.virt.insert(name, v);
    }

    /// Adds to a counter.
    pub fn counters_add(&mut self, name: &'static str, v: f64) {
        *self.virt.entry(name).or_default() += v;
    }

    /// A counter's value (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.virt.get(name).copied().unwrap_or(0.0)
    }

    /// Records a failed correctness check.
    pub fn violation(&mut self, msg: String) {
        self.violations.push(msg);
    }

    /// Records a controller operation that returned an error.
    pub fn op_error(&mut self, msg: String) {
        self.op_errors.push(msg);
    }

    /// Adds one audit report to the audit counters: work done, shedding,
    /// findings by element and the executor mode that ran the cycle.
    pub fn record_cycle(&mut self, r: &AuditReport) {
        self.counters_add("audit.cycles", 1.0);
        self.counters_add("audit.records_checked", r.records_checked as f64);
        self.counters_add("audit.tables_checked", r.tables_checked as f64);
        self.counters_add("audit.tables_shed", r.tables_shed.len() as f64);
        self.counters_add("audit.degraded_cycles", f64::from(u8::from(r.degraded)));
        self.counters_add("audit.findings", r.findings.len() as f64);
        for f in &r.findings {
            let name = match f.element {
                AuditElementKind::StaticData => "audit.findings_static",
                AuditElementKind::Structural => "audit.findings_structural",
                AuditElementKind::Range => "audit.findings_range",
                AuditElementKind::Semantic => "audit.findings_semantic",
                _ => "audit.findings_other",
            };
            self.counters_add(name, 1.0);
        }
        let mode = match r.exec.mode {
            ExecutorMode::Serial => "audit.exec_serial",
            ExecutorMode::Parallel => "audit.exec_parallel",
            ExecutorMode::SerialFallback => "audit.exec_serial_fallback",
        };
        self.counters_add(mode, 1.0);
        self.exec_modes.insert(r.exec.mode.name());
    }

    /// Folds another episode into this one.
    pub fn merge(&mut self, other: Episode) {
        for (k, v) in other.virt {
            *self.virt.entry(k).or_default() += v;
        }
        self.setup_latency_us.extend(other.setup_latency_us);
        self.detect_us.extend(other.detect_us);
        self.supervisor_detect_us.extend(other.supervisor_detect_us);
        self.calls += other.calls;
        self.loop_ns += other.loop_ns;
        self.setup_ns.extend(other.setup_ns);
        self.open_recover_ns.extend(other.open_recover_ns);
        self.ref_ns.extend(other.ref_ns);
        self.norm_loop_ns += other.norm_loop_ns;
        self.norm_setup_ns.extend(other.norm_setup_ns);
        self.norm_stall_ns.extend(other.norm_stall_ns);
        self.op_errors.extend(other.op_errors);
        self.exec_modes.extend(other.exec_modes);
        self.violations.extend(other.violations);
    }

    /// Everything that must repeat exactly for one seed: the counters
    /// and the virtual-time samples.
    pub fn virtual_fingerprint(&self) -> Fingerprint {
        (
            self.virt.iter().map(|(k, v)| (*k, v.to_bits())).collect(),
            self.setup_latency_us.clone(),
            self.detect_us.clone(),
            self.supervisor_detect_us.clone(),
        )
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Store, capture hook and call path under the full stack; recovery
    /// nearly idle.
    CallsDurable,
    /// Memory-only, large region, high fault rate plus process faults:
    /// audit scan, recovery and supervision do most of the work.
    FaultsLarge,
    /// The PECOS-instrumented ISA client dominates; light database.
    PecosClient,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::CallsDurable, Workload::FaultsLarge, Workload::PecosClient];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CallsDurable => "calls_durable",
            Workload::FaultsLarge => "faults_large",
            Workload::PecosClient => "pecos_client",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Episodes per pass.
    pub fn episodes(self) -> usize {
        match self {
            Workload::CallsDurable => 8,
            Workload::FaultsLarge => 40,
            Workload::PecosClient => 4,
        }
    }
}

/// The DES shape of a DES workload; `quick` shortens episodes for tests.
pub fn des_spec(w: Workload, quick: bool) -> Option<DesSpec> {
    let scale = if quick { 1 } else { 6 };
    match w {
        Workload::CallsDurable => Some(DesSpec {
            slots: 512,
            threads: 400,
            interarrival: SimDuration::from_millis(100),
            flip_iat: Some(SimDuration::from_secs(20)),
            duration: SimDuration::from_secs(100 * scale),
            workers: 0,
            process_fault_iat: None,
            durable: true,
        }),
        Workload::FaultsLarge => Some(DesSpec {
            slots: 16_384,
            threads: 400,
            interarrival: SimDuration::from_millis(100),
            flip_iat: Some(SimDuration::from_secs(2)),
            duration: SimDuration::from_secs(100 * scale),
            workers: 4,
            process_fault_iat: Some(SimDuration::from_secs(120)),
            durable: false,
        }),
        Workload::PecosClient => None,
    }
}

/// The ISA client shape; `quick` shortens episodes for tests.
pub fn isa_spec(quick: bool) -> IsaSpec {
    IsaSpec {
        threads: 4,
        iterations: 24,
        generations: if quick { 8 } else { 2_000 },
        slots: 256,
        audit_every_steps: 4_000,
        inject_every_steps: 20_000,
        fault_window_steps: 2_000,
        generation_budget: 60_000,
    }
}

/// A scratch directory inside the working tree, removed on drop.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `<root>/.bench_build/e2e-scratch-<pid>-<n>-<tag>`.
    ///
    /// # Errors
    ///
    /// Returns a message if the directory cannot be created.
    pub fn new(root: &Path, tag: &str) -> Result<Scratch, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("e2e-scratch-{}-{n}-{tag}", std::process::id());
        let path = root.join(".bench_build").join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("scratch {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Puts the system allocator in the state a long-running process
/// reaches: glibc raises its mmap and trim thresholds the first time a
/// large mmapped block is freed, after which freed memory is kept for
/// reuse instead of going back to the system. Without this, whether a
/// set-up's 1.7 MB region arrives as fresh pages (800 page faults,
/// twice the time) or as reused ones depended on where glibc's
/// adaptive thresholds happened to sit in each process.
fn settle_allocator() {
    // Zeroed, so the pages are never touched and never resident. Just
    // under glibc's 32 MiB cap on the adaptive threshold.
    let block = vec![0u8; 31 << 20];
    std::hint::black_box(&block);
}

/// Per-run state that outlives passes: the populated store the durable
/// workload warm-restarts from.
#[derive(Debug)]
pub struct Bench {
    workload: Workload,
    seed: u64,
    quick: bool,
    scratch: Scratch,
    populated: Option<PathBuf>,
    reference: calib::Reference,
    first_episode_rss_mb: Option<f64>,
}

impl Bench {
    /// Prepares a run. For the durable workload this populates a store
    /// (untimed) that every episode warm-restarts from.
    ///
    /// # Errors
    ///
    /// Returns a message if the scratch directory or the store fails.
    pub fn new(workload: Workload, seed: u64, quick: bool, root: &Path) -> Result<Bench, String> {
        settle_allocator();
        let scratch = Scratch::new(root, workload.name())?;
        let mut bench = Bench {
            workload,
            seed,
            quick,
            scratch,
            populated: None,
            reference: calib::Reference::default(),
            first_episode_rss_mb: None,
        };
        if let Some(spec) = des_spec(workload, quick).filter(|s| s.durable) {
            let dir = bench.scratch.path().join("populated");
            let populate =
                DesSpec { duration: SimDuration::from_secs(120), flip_iat: None, ..spec };
            let (mut c, _) = des::setup(&populate, Some(&dir))?;
            let ep = des::drive(&mut c, &populate, seed ^ 0x5EED, &mut Tracer::new(false));
            if let Some(e) = ep.op_errors.first().or(ep.violations.first()) {
                return Err(format!("populating the store: {e}"));
            }
            c.checkpoint().map_err(|e| format!("populate checkpoint: {e}"))?;
            c.sync_store().map_err(|e| format!("populate sync: {e}"))?;
            bench.populated = Some(dir);
        }
        Ok(bench)
    }

    /// The resident-memory high-water mark after the run's first
    /// episode, MB (NaN before any episode ran). Later passes repeat the
    /// same work, so this is the workload's footprint without the
    /// allocator drift that repeating it adds.
    pub fn first_episode_rss_mb(&self) -> f64 {
        self.first_episode_rss_mb.unwrap_or(f64::NAN)
    }

    /// The directory holding the durable workload's stores.
    pub fn store_root(&self) -> &Path {
        self.scratch.path()
    }

    /// Seed of episode `i`.
    fn episode_seed(&self, i: usize) -> u64 {
        let mut rng = SimRng::seed_from(self.seed);
        let mut s = rng.bits();
        for _ in 0..i {
            s = rng.bits();
        }
        s
    }

    /// Runs one pass: every episode of the workload, each on a freshly
    /// set-up controller, with the reference timed around each. Returns
    /// the merged result; spans and stalls go to `tracer`.
    ///
    /// # Errors
    ///
    /// Returns a message when set-up fails.
    pub fn pass(&mut self, tracer: &mut Tracer) -> Result<Episode, String> {
        let mut total = Episode::default();
        let episodes = if self.quick { 2 } else { self.workload.episodes() };
        for i in 0..episodes {
            let seed = self.episode_seed(i);
            let before = self.reference.time_ns();
            let mut t = Tracer::new(tracer.traced());
            let mut ep = self.episode(seed, &mut t)?;
            let after = self.reference.time_ns();
            let scale = calib::NOMINAL_NS / ((before + after) as f64 / 2.0);
            ep.ref_ns.extend([before, after]);
            ep.norm_loop_ns = ep.loop_ns as f64 * scale;
            ep.norm_setup_ns = ep.setup_ns.iter().map(|&ns| ns as f64 * scale).collect();
            ep.norm_stall_ns = t.stalls().iter().map(|&ns| ns as f64 * scale).collect();
            tracer.absorb(t);
            total.merge(ep);
            self.first_episode_rss_mb.get_or_insert_with(peak_rss_mb);
        }
        Ok(total)
    }

    /// Sets up and drives one episode.
    fn episode(&self, seed: u64, tracer: &mut Tracer) -> Result<Episode, String> {
        if let Some(spec) = des_spec(self.workload, self.quick) {
            let dir = match &self.populated {
                Some(populated) => {
                    let dir = self.scratch.path().join("episode");
                    copy_dir(populated, &dir)?;
                    Some(dir)
                }
                None => None,
            };
            let t = Instant::now();
            let (mut c, open_ns) = des::setup(&spec, dir.as_deref())?;
            let setup_ns = t.elapsed().as_nanos() as u64;
            let mut ep = des::drive(&mut c, &spec, seed, tracer);
            ep.setup_ns.push(setup_ns);
            ep.open_recover_ns.extend(open_ns);
            if let Some(dir) = &dir {
                check_reopen(&mut c, &spec, dir, &mut ep);
            }
            Ok(ep)
        } else {
            let spec = isa_spec(self.quick);
            let t = Instant::now();
            let mut s = isa_client::setup(&spec)?;
            let setup_ns = t.elapsed().as_nanos() as u64;
            let mut ep = isa_client::drive(&mut s, &spec, seed, tracer);
            ep.setup_ns.push(setup_ns);
            Ok(ep)
        }
    }
}

/// The durable-store correctness check: sync, shut the controller down,
/// reopen the store into a fresh controller and compare both images.
fn check_reopen(c: &mut wtnc::Controller, spec: &DesSpec, dir: &Path, ep: &mut Episode) {
    if let Err(e) = c.sync_store() {
        ep.op_error(format!("final sync: {e}"));
        return;
    }
    let region = c.db.region().to_vec();
    let golden = c.db.golden().to_vec();
    let reopened = wtnc::Controller::new(wtnc::db::schema::standard_schema_with_slots(spec.slots))
        .map_err(|e| e.to_string())
        .and_then(|r| r.with_store(dir, des::store_config()).map_err(|e| e.to_string()));
    match reopened {
        Ok(r) if r.db.region() == region.as_slice() && r.db.golden() == golden.as_slice() => {}
        Ok(_) => {
            ep.violation("store reopen: recovered image differs from the pre-shutdown image".into())
        }
        Err(e) => ep.op_error(format!("store reopen: {e}")),
    }
}

/// The process's resident-memory high-water mark, MB (from
/// `/proc/self/status`; NaN where unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The metrics of one pass that are exact for a seed, by name, with
/// their units. `detect_p99_s` needs at least 1000 detections and is
/// omitted below that; the call-setup latencies exist only on the DES
/// workloads.
pub fn virtual_metrics(p: &Episode) -> BTreeMap<&'static str, (f64, &'static str)> {
    let mut m = BTreeMap::new();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.insert("call_fail_frac", (ratio(p.get("calls.failed"), p.get("calls.offered")), "frac"));
    m.insert("escape_frac", (ratio(p.get("faults.escaped"), p.get("faults.injected")), "frac"));
    let ms = |v: &[u64], q: f64| stats::quantile_u64(v, q) as f64 / 1e3;
    let s = |v: &[u64], q: f64| stats::quantile_u64(v, q) as f64 / 1e6;
    if !p.setup_latency_us.is_empty() {
        m.insert("call_setup_p50_ms", (ms(&p.setup_latency_us, 0.5), "ms"));
        m.insert("call_setup_p99_ms", (ms(&p.setup_latency_us, 0.99), "ms"));
    }
    if !p.detect_us.is_empty() {
        m.insert("detect_p50_s", (s(&p.detect_us, 0.5), "s"));
    }
    if p.detect_us.len() >= 1000 {
        m.insert("detect_p99_s", (s(&p.detect_us, 0.99), "s"));
    }
    if !p.supervisor_detect_us.is_empty() {
        m.insert("supervisor.detect_latency_s", (s(&p.supervisor_detect_us, 0.5), "s"));
    }
    let bytes = p.get("store.journal_bytes") + p.get("store.checkpoint_bytes");
    m.insert("write_bytes_per_call", (ratio(bytes, p.calls as f64), "B"));
    m
}
