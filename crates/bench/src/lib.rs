//! Shared support for the reproduction harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper; this library holds the formatting and configuration helpers
//! they share. Run counts default to the paper's but can be scaled
//! down for a quick pass with the `WTNC_RUNS_SCALE` environment
//! variable (e.g. `WTNC_RUNS_SCALE=0.1` for a 10× faster sweep).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use wtnc::inject::{OutcomeCounts, RunOutcome};

/// Scales a paper-default run count by `WTNC_RUNS_SCALE` (clamped to
/// at least one run).
pub fn scaled_runs(paper_default: usize) -> usize {
    let scale = std::env::var("WTNC_RUNS_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.001, 100.0);
    ((paper_default as f64 * scale).round() as usize).max(1)
}

/// A JSON object describing the machine a benchmark ran on, embedded
/// in every `results/BENCH_*.json`: wall-clock numbers measured on a
/// single-core container do not transfer to multi-core hosts, so the
/// artifact must say what it was measured on.
pub fn host_info_json() -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!(
        "{{\"cpus\": {cpus}, \"os\": \"{}\", \"arch\": \"{}\"}}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// The median of `samples` (the upper middle value for even counts),
/// sorting them in place. Wall-clock gates read medians over repeated
/// runs, not best-of-N minima.
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Serializes an [`OutcomeCounts`] tally as a JSON object keyed by
/// outcome name, plus the derived totals the tables print.
pub fn outcome_counts_json(counts: &OutcomeCounts) -> String {
    let mut fields: Vec<String> =
        RunOutcome::ALL.iter().map(|&o| format!("\"{o:?}\": {}", counts.count(o))).collect();
    fields.push(format!("\"total\": {}", counts.total()));
    fields.push(format!("\"activated\": {}", counts.activated()));
    fields.push(format!("\"coverage_pct\": {:.2}", counts.coverage()));
    format!("{{{}}}", fields.join(", "))
}

/// Serializes campaign columns (name → tally) as a JSON array, the
/// machine-readable mirror of [`print_outcome_matrix`].
pub fn outcome_columns_json(columns: &[(String, OutcomeCounts)]) -> String {
    let rows: Vec<String> = columns
        .iter()
        .map(|(name, counts)| {
            format!("    {{\"name\": \"{name}\", \"counts\": {}}}", outcome_counts_json(counts))
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// The workspace-root `results/` directory. Bench *bins* run with the
/// workspace root as cwd but `cargo bench` harnesses run with the
/// package dir as cwd, so anchor on the nearest ancestor that holds a
/// `Cargo.lock` instead of trusting the cwd.
fn results_dir() -> std::path::PathBuf {
    let start = std::env::current_dir().unwrap_or_else(|_| ".".into());
    let mut dir = start.clone();
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            return start.join("results");
        }
    }
}

/// Writes a `results/BENCH_<name>.json` artifact, reporting the path
/// (or the error — benches must not fail just because `results/` is
/// missing on some checkout).
pub fn write_results(name: &str, json: &str) {
    let path = results_dir().join(format!("BENCH_{name}.json"));
    let _ = std::fs::create_dir_all(results_dir());
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => println!("\ncould not write {}: {e}", path.display()),
    }
}

/// Formats a percentage with its binomial 95% confidence interval the
/// way the paper's Tables 8 and 9 do: `52% (47, 58)`.
pub fn pct_ci(counts: &OutcomeCounts, outcome: RunOutcome) -> String {
    let p = counts.proportion_of_activated(outcome);
    let (lo, hi) = p.ci95_percent();
    format!("{:.0}% ({:.0}, {:.0})", p.percent(), lo, hi)
}

/// Prints a Table 8/9-style outcome matrix: one column per campaign
/// configuration, one row per outcome category.
pub fn print_outcome_matrix(title: &str, columns: &[(String, OutcomeCounts)]) {
    println!("{title}");
    print!("{:<42}", "Category");
    for (name, _) in columns {
        print!(" | {name:<28}");
    }
    println!();
    println!("{}", "-".repeat(42 + columns.len() * 31));

    let pct_of_total = |c: &OutcomeCounts, o: RunOutcome| {
        if c.total() == 0 {
            0.0
        } else {
            100.0 * c.count(o) as f64 / c.total() as f64
        }
    };
    print!("{:<42}", "Errors Not Activated");
    for (_, c) in columns {
        print!(" | {:<28}", format!("{:.0}%", pct_of_total(c, RunOutcome::NotActivated)));
    }
    println!();
    for outcome in [
        RunOutcome::NotManifested,
        RunOutcome::PecosDetection,
        RunOutcome::AuditDetection,
        RunOutcome::SystemDetection,
        RunOutcome::ClientHang,
        RunOutcome::FailSilenceViolation,
    ] {
        print!("{:<42}", outcome.to_string());
        for (_, c) in columns {
            let cell = match outcome {
                RunOutcome::PecosDetection | RunOutcome::AuditDetection
                    if c.count(outcome) == 0 =>
                {
                    "N/A or 0".to_owned()
                }
                RunOutcome::ClientHang | RunOutcome::FailSilenceViolation
                    if c.count(outcome) < 10 =>
                {
                    // The paper prints raw counts for rare categories.
                    format!("{} case(s)", c.count(outcome))
                }
                _ => pct_ci(c, outcome),
            };
            print!(" | {cell:<28}");
        }
        println!();
    }
    print!("{:<42}", "Total Number of Injected Errors");
    for (_, c) in columns {
        print!(" | {:<28}", c.total());
    }
    println!();
    print!("{:<42}", "Coverage {100 - (crash+hang+FSV)}%");
    for (_, c) in columns {
        print!(" | {:<28}", format!("{:.0}%", c.coverage()));
    }
    println!("\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_runs_clamps_to_one() {
        std::env::remove_var("WTNC_RUNS_SCALE");
        assert_eq!(scaled_runs(30), 30);
    }

    #[test]
    fn pct_ci_formats_like_the_paper() {
        let mut c = OutcomeCounts::new();
        for _ in 0..52 {
            c.record(RunOutcome::SystemDetection);
        }
        for _ in 0..48 {
            c.record(RunOutcome::NotManifested);
        }
        let s = pct_ci(&c, RunOutcome::SystemDetection);
        assert!(s.starts_with("52% ("), "{s}");
    }

    #[test]
    fn matrix_prints_without_panicking() {
        let mut c = OutcomeCounts::new();
        c.record(RunOutcome::PecosDetection);
        c.record(RunOutcome::NotActivated);
        print_outcome_matrix("t", &[("col".to_owned(), c)]);
    }
}
