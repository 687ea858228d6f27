//! Machine-readable benchmark reporting: experiments record
//! [`BenchRecord`]s into a process-wide collector and the harness
//! binaries flush them to `BENCH_results.json` (CI uploads it as an
//! artifact). Nothing reads the file back to judge a regression: the
//! perf-regression gate is `stbench` (`benchmark/`), and `perf_suite`
//! asserts its behavioural bars in-process.
//!
//! The JSON schema (`"schema": 1`):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "git_sha": "abc123…",
//!   "smoke": true,
//!   "records": [
//!     {
//!       "experiment": "serving_throughput",
//!       "name": "spmm/c8/batched",
//!       "value": 2781000.0,
//!       "unit": "ns",
//!       "better": "lower",
//!       "config": "n=1000 d=16 workers=1"
//!     }
//!   ]
//! }
//! ```
//!
//! `value` is the median of the timed repetitions for `"unit": "ns"`
//! records, a dimensionless ratio for `"unit": "ratio"` records
//! (speedups — machine-portable, unlike absolute nanoseconds), and a
//! `[0, 1]` fraction for `"unit": "rate"` records (hit/success rates).
//! `better` gives the direction a reader should want `value` to move.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One benchmark measurement destined for `BENCH_results.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Experiment harness that produced the record.
    pub experiment: String,
    /// Metric identifier, unique within the experiment.
    pub name: String,
    /// Median nanoseconds (`unit == "ns"`), dimensionless ratio
    /// (`unit == "ratio"`), or `[0, 1]` fraction (`unit == "rate"`).
    pub value: f64,
    /// `"ns"`, `"ratio"`, or `"rate"`.
    pub unit: &'static str,
    /// Regression direction: `"lower"` or `"higher"` is better.
    pub better: &'static str,
    /// Free-form configuration note (sizes, thread count, repetitions).
    pub config: String,
}

fn collector() -> &'static Mutex<Vec<BenchRecord>> {
    static COLLECTOR: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());
    &COLLECTOR
}

/// Append a record to the process-wide collector.
pub fn record(rec: BenchRecord) {
    collector().lock().unwrap().push(rec);
}

/// Drain every record collected so far.
#[must_use]
pub fn take_records() -> Vec<BenchRecord> {
    std::mem::take(&mut *collector().lock().unwrap())
}

/// Current git revision: `GITHUB_SHA` when CI provides it, otherwise
/// `git rev-parse HEAD`, otherwise `"unknown"`.
#[must_use]
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Median wall-clock nanoseconds of `reps` runs of `f` (after one
/// untimed warmup run).
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut times)
}

/// Median of a sample vector (sorts in place).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the results document.
#[must_use]
pub fn render_results(records: &[BenchRecord], smoke: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"git_sha\": \"{}\",", escape(&git_sha()));
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"experiment\": \"{}\", \"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"config\": \"{}\"}}{comma}",
            escape(&r.experiment),
            escape(&r.name),
            r.value,
            r.unit,
            r.better,
            escape(&r.config),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write `records` to `path` as `BENCH_results.json`.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_results(
    path: &Path,
    records: &[BenchRecord],
    smoke: bool,
) -> Result<(), std::io::Error> {
    std::fs::write(path, render_results(records, smoke))
}

/// Schema version written to `BENCH_results.json`.
pub const SCHEMA_VERSION: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(exp: &str, name: &str, value: f64, better: &'static str) -> BenchRecord {
        BenchRecord {
            experiment: exp.to_string(),
            name: name.to_string(),
            value,
            unit: if better == "higher" { "ratio" } else { "ns" },
            better,
            // Quotes and the newline must be escaped, multi-byte UTF-8
            // written through.
            config: "cfg \"quoted\" ≥2× bar\nnext".to_string(),
        }
    }

    #[test]
    fn results_render_schema_header_and_escaped_fields() {
        let text = render_results(&[rec("serving", "spmm/c8/speedup", 7.5, "higher")], true);
        assert!(text.contains("\"schema\": 1,"));
        assert!(text.contains("\"smoke\": true"));
        assert!(text.contains("\"name\": \"spmm/c8/speedup\", \"value\": 7.5, \"unit\": \"ratio\""));
        assert!(text.contains(r#""config": "cfg \"quoted\" ≥2× bar\nnext""#), "{text}");
    }

    #[test]
    fn collector_drains_records() {
        record(rec("t", "a", 1.0, "lower"));
        record(rec("t", "b", 2.0, "lower"));
        let drained = take_records();
        assert!(drained.len() >= 2, "records collected");
        assert!(take_records().is_empty(), "collector drained");
    }

    #[test]
    fn median_is_robust_to_reps() {
        let v = median_ns(5, std::thread::yield_now);
        assert!(v >= 0.0);
    }
}
