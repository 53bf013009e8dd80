//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Drives the assembled controller on one workload for about `--seconds`
//! of wall time, checks the outputs, prints a human-readable report
//! (lines starting with `#`) and then, as its last line, one JSON
//! object: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the gated end-to-end ones; with
//! `--trace 1` they are the per-layer ones from traced passes.
//! Exits 1 when a correctness check fails and 2 on a usage or set-up
//! error (printing no result line).

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use wtnc_e2ebench::stats::{median, quantile_u64};
use wtnc_e2ebench::trace::{span_coverage, Tracer};
use wtnc_e2ebench::{
    peak_rss_mb, virtual_metrics, Bench, Episode, Workload, END_TO_END, PER_LAYER,
};

/// Passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (expected one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One pass's merged result plus its tracer.
struct Pass {
    result: Episode,
    tracer: Tracer,
}

impl Pass {
    /// Completed calls per second at the nominal host speed.
    fn calls_per_s(&self) -> f64 {
        self.result.calls as f64 / (self.result.norm_loop_ns.max(1.0) / 1e9)
    }

    /// Completed calls per second of raw wall time.
    fn raw_calls_per_s(&self) -> f64 {
        self.result.calls as f64 / (self.result.loop_ns.max(1) as f64 / 1e9)
    }
}

/// Named values with their units, for the report and the result line.
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn run(args: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let mut bench = Bench::new(args.workload, args.seed, false, &root)?;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let min_passes = if args.trace { MIN_PASSES - 1 } else { MIN_PASSES };
    while untraced.len() < min_passes || start.elapsed() < budget {
        let mut tracer = Tracer::new(false);
        let result = bench.pass(&mut tracer)?;
        untraced.push(Pass { result, tracer });
        if args.trace {
            let mut tracer = Tracer::new(true);
            let result = bench.pass(&mut tracer)?;
            traced.push(Pass { result, tracer });
        }
    }

    let first = &untraced[0].result;
    let mut e2e = end_to_end(&untraced, first);
    e2e.insert("peak_rss_mb".into(), (bench.first_episode_rss_mb(), "MB"));
    e2e.insert("raw.peak_rss_mb_at_exit".into(), (peak_rss_mb(), "MB"));
    let layers = per_layer(&untraced, &traced, first);

    // Correctness: every pass repeats the first exactly in virtual
    // time, no episode failed a check or an operation, and the traced
    // passes account for their wall time.
    let mut violations: Vec<String> = Vec::new();
    let mut op_errors: Vec<String> = Vec::new();
    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        if p.result.virtual_fingerprint() != first.virtual_fingerprint() {
            violations.push(format!("pass {i} diverged from pass 0 in virtual time"));
        }
        violations.extend(p.result.violations.iter().cloned());
        op_errors.extend(p.result.op_errors.iter().cloned());
    }
    violations.sort();
    violations.dedup();
    if args.trace {
        let span_ns: u64 = traced.iter().map(|p| p.tracer.span_total_ns()).sum();
        let wall_ns: u64 = traced.iter().map(|p| p.result.loop_ns).sum();
        violations.extend(span_coverage(span_ns, wall_ns).1);
    }

    print_report(args, &untraced, &traced, first, &e2e, &layers, &bench);
    for v in &violations {
        println!("# CHECK FAILED: {v}");
    }
    for e in &op_errors {
        println!("# OPERATION FAILED: {e}");
    }

    let selected: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER.iter().map(|&(k, u)| (k, layers.get(k).map_or(0.0, |m| m.0), u)).collect()
    } else {
        END_TO_END.iter().map(|&(k, u)| (k, e2e.get(k).map_or(f64::NAN, |m| m.0), u)).collect()
    };
    let metrics: Vec<String> = selected
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
        .collect();
    let correct = violations.is_empty() && op_errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        (first.get("calls.offered") as u64).max(1),
        op_errors.len(),
        metrics.join(", ")
    );
    Ok(correct)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Every end-to-end metric: wall metrics at the nominal host speed
/// (medians over passes), their raw counterparts, and the virtual-time
/// metrics of the first pass.
fn end_to_end(untraced: &[Pass], first: &Episode) -> Metrics {
    let mut m = Metrics::new();
    let rates: Vec<f64> = untraced.iter().map(Pass::calls_per_s).collect();
    m.insert("calls_per_s".into(), (median(&rates), "1/s"));
    let raw: Vec<f64> = untraced.iter().map(Pass::raw_calls_per_s).collect();
    m.insert("raw.calls_per_s".into(), (median(&raw), "1/s"));

    let setups: Vec<f64> =
        untraced.iter().flat_map(|p| p.result.norm_setup_ns.iter()).map(|ns| ns / 1e9).collect();
    m.insert("setup_s".into(), (median(&setups), "s"));
    let raw: Vec<f64> =
        untraced.iter().flat_map(|p| p.result.setup_ns.iter()).map(|&ns| ns as f64 / 1e9).collect();
    m.insert("raw.setup_s".into(), (median(&raw), "s"));

    // Stalls: p99 of every pass's samples, then the median over passes.
    let p99 = |v: Vec<u64>| quantile_u64(&v, 0.99) as f64 / 1e3;
    let norm: Vec<f64> = untraced
        .iter()
        .map(|p| p99(p.result.norm_stall_ns.iter().map(|&ns| ns as u64).collect()))
        .collect();
    m.insert("stall_p99_us".into(), (median(&norm), "us"));
    let raw: Vec<f64> = untraced.iter().map(|p| p99(p.tracer.stalls().to_vec())).collect();
    m.insert("raw.stall_p99_us".into(), (median(&raw), "us"));
    m.insert("stall_samples_per_pass".into(), (first.norm_stall_ns.len() as f64, "count"));

    for (k, (v, u)) in virtual_metrics(first) {
        m.insert(k.into(), (v, u));
    }
    m
}

/// Per-layer metrics: the first pass's counters, ratios of them, and,
/// from the traced passes, span self times (p50 as `<span>_us`, p99 as
/// `<span>_p99_us`), calls per pass, each layer's share of the traced
/// wall time, the harness time outside every span and the store's
/// open-with-warm-recovery time.
fn per_layer(untraced: &[Pass], traced: &[Pass], first: &Episode) -> Metrics {
    let mut m = Metrics::new();
    for (k, v) in &first.virt {
        m.insert((*k).to_string(), (*v, "count"));
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let offered = first.get("calls.offered");
    m.insert("db.api_ops_per_call".into(), (ratio(first.get("db.api_ops"), offered), "count"));
    let (attempted, verified) = (first.get("recovery.attempted"), first.get("recovery.verified"));
    m.insert("recovery.verify_ratio".into(), (ratio(verified, attempted), "frac"));
    let journal = first.get("store.journal_bytes");
    let written = journal + first.get("store.checkpoint_bytes");
    m.insert("store.write_amp".into(), (ratio(written, journal), "ratio"));
    if traced.is_empty() {
        return m;
    }

    let mut spans: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for p in traced {
        for (k, v) in p.tracer.spans() {
            spans.entry(k).or_default().extend(v);
        }
    }
    let passes = traced.len() as f64;
    let traced_wall: u64 = traced.iter().map(|p| p.result.loop_ns).sum();
    let share = |ns: u64| ns as f64 / traced_wall.max(1) as f64;
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, v) in &spans {
        let total: u64 = v.iter().sum();
        m.insert(format!("{name}_us"), (quantile_u64(v, 0.5) as f64 / 1e3, "us"));
        m.insert(format!("{name}_p99_us"), (quantile_u64(v, 0.99) as f64 / 1e3, "us"));
        m.insert(format!("{name}_calls"), (v.len() as f64 / passes, "count"));
        m.insert(format!("{name}_share"), (share(total), "frac"));
        let layer = name.split('.').next().unwrap_or(name);
        *by_layer.entry(layer).or_default() += total;
    }
    for layer in ["callproc", "audit", "supervisor", "store", "isa", "pecos", "inject"] {
        m.insert(
            format!("{layer}.share"),
            (share(by_layer.get(layer).copied().unwrap_or(0)), "frac"),
        );
    }
    let opens: Vec<u64> = untraced
        .iter()
        .chain(traced)
        .flat_map(|p| p.result.open_recover_ns.iter().copied())
        .collect();
    if !opens.is_empty() {
        m.insert("store.open_recover_us".into(), (quantile_u64(&opens, 0.5) as f64 / 1e3, "us"));
        m.insert(
            "store.open_recover_p99_us".into(),
            (quantile_u64(&opens, 0.99) as f64 / 1e3, "us"),
        );
    }
    let span_ms = |name: &str| spans.get(name).map_or(0, |v| v.iter().sum::<u64>()) as f64 / 1e6;
    let records = first.get("audit.records_checked") * passes;
    m.insert("audit.records_per_ms".into(), (ratio(records, span_ms("audit.cycle")), "1/ms"));
    let steps = first.get("isa.steps") * passes;
    m.insert("isa.inst_per_s".into(), (ratio(steps, span_ms("isa.run") / 1e3), "1/s"));

    let span_total: u64 = spans.values().flatten().sum();
    let harness = traced_wall.saturating_sub(span_total);
    m.insert("bench.harness_us".into(), (harness as f64 / 1e3 / passes, "us"));
    m.insert("bench.harness_share".into(), (share(harness), "frac"));
    m.insert("bench.span_coverage".into(), (span_coverage(span_total, traced_wall).0, "frac"));
    let wall =
        |ps: &[Pass]| median(&ps.iter().map(|p| p.result.loop_ns as f64).collect::<Vec<_>>());
    m.insert("bench.trace_overhead".into(), ((wall(traced) - wall(untraced)) / 1e3, "us"));
    m
}

/// The filesystem type of the mount holding `path` (longest matching
/// mount point in `/proc/mounts`).
fn filesystem_of(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then(|| (point.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn env_line(first: &Episode, bench: &Bench) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let modes: Vec<&str> = first.exec_modes.iter().copied().collect();
    let engine = wtnc::isa::MachineConfig::default().effective_engine().name();
    format!(
        "# env nproc={nproc} crc_kernel={} WTNC_NO_HWCRC={} isa_engine={engine} \
         audit_exec_modes={} store_fs={} WTNC_WORKERS={} (ignored: audit workers fixed at 1)",
        wtnc::db::crc_kernel().name(),
        var("WTNC_NO_HWCRC"),
        if modes.is_empty() { "none".to_string() } else { modes.join(",") },
        filesystem_of(bench.store_root()),
        var("WTNC_WORKERS"),
    )
}

fn print_report(
    args: &Args,
    untraced: &[Pass],
    traced: &[Pass],
    first: &Episode,
    e2e: &Metrics,
    layers: &Metrics,
    bench: &Bench,
) {
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", env_line(first, bench));
    let rates: Vec<String> = untraced.iter().map(|p| format!("{:.0}", p.calls_per_s())).collect();
    let raw: Vec<String> = untraced.iter().map(|p| format!("{:.0}", p.raw_calls_per_s())).collect();
    println!(
        "# passes: {} untraced, {} traced; {} episodes each; calls_per_s by pass [{}], raw [{}]",
        untraced.len(),
        traced.len(),
        args.workload.episodes(),
        rates.join(" "),
        raw.join(" ")
    );
    let refs: Vec<u64> = untraced.iter().flat_map(|p| p.result.ref_ns.iter().copied()).collect();
    println!(
        "# reference: median {:.3} ms over {} runs (nominal {:.3} ms)",
        quantile_u64(&refs, 0.5) as f64 / 1e6,
        refs.len(),
        wtnc_e2ebench::calib::NOMINAL_NS / 1e6
    );
    for (k, (v, u)) in e2e {
        let gated = END_TO_END.iter().any(|(g, _)| g == k);
        println!("# e2e {k} = {v} {u}{}", if gated { "" } else { " (not gated)" });
    }
    let n = first.detect_us.len();
    println!("# detections: {n} per pass");
    if n < 1000 {
        println!("# e2e detect_p99_s omitted: {n} detections < 1000");
    }
    for (k, (v, u)) in layers {
        println!("# layer {k} = {v} {u}");
    }
}
