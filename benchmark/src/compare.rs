//! `stbench compare <a> <b>`: judge result set `b` against result set `a`
//! with the bounds `BENCHMARK.json` fixes. One row per (workload,
//! end-to-end metric); the exact-count per-layer metrics must repeat
//! exactly for every (workload, seed) both sets traced.
//!
//! A result set is a file of lines
//! `{"workload": .., "seed": .., "trace": 0|1, "result": <the run's last line>}`
//! as `run.sh` writes them.

use crate::json::{self, Json};
use crate::stats::median;
use std::collections::BTreeMap;

/// Per-layer metrics that count something the compiler decided and must
/// therefore repeat exactly run to run.
const EXACT_PREFIXES: [&str; 4] =
    ["core.stage3_lines.", "ir.bytecode_instrs.", "ir.super_instrs.", "ir.static_bytes."];
/// Serving metrics a user sees that exist on the serving workloads only,
/// so they carry no bound; printed for the record.
const WATCHED: [&str; 3] =
    ["engine.latency_ms_p99", "engine.loaded_latency_ms_p99", "engine.update_ms_p50"];

#[derive(Default)]
struct ResultSet {
    /// `(workload, metric)` → one value per run.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// `(workload, seed, metric)` → value, for the exact counts.
    exact: BTreeMap<(String, u64, String), f64>,
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = ResultSet::default();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let row = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |k: &str| row.get(k).ok_or(format!("{path}:{}: no `{k}`", i + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        for (name, m) in field("result")?.get("metrics").map_or(&[][..], Json::fields) {
            let Some(v) = m.get("value").and_then(Json::as_f64) else { continue };
            if EXACT_PREFIXES.iter().any(|p| name.starts_with(p)) {
                set.exact.insert((workload.clone(), seed, name.clone()), v);
            } else {
                set.values.entry((workload.clone(), name.clone())).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// Python's `statistics.quantiles(v, n=4)` (exclusive method): the first
/// and third quartile. `None` below two samples.
fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    let m = d.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, d.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
fn spread(v: &[f64]) -> f64 {
    let med = median(v);
    match quartiles(v) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// `spread_exempt`: judge the medians alone (set-up time is seconds by
/// contract and its run-to-run spread on a shared host exceeds any bound;
/// the driver exempts it the same way).
fn verdict(
    base: &[f64],
    new: &[f64],
    lower_is_better: bool,
    bound: f64,
    spread_exempt: bool,
) -> &'static str {
    let (b, n) = (median(base), median(new));
    let worse = if lower_is_better { (n - b) / b } else { (b - n) / b };
    if worse > bound {
        return "regressed";
    }
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_better = new.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    if !spread_exempt && spread(base).max(spread(new)) > bound && !all_better {
        "unresolved"
    } else {
        "ok"
    }
}

/// Compare two result sets; `Ok(true)` when every row is `ok` and every
/// exact count matches.
pub fn compare(benchmark_json: &str, path_a: &str, path_b: &str) -> Result<bool, String> {
    let spec = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!(
        "{:<22} {:<16} {:>12} {:>12} {:>7} {:>6} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound", "spread"
    );
    let names = |key: &str| -> Vec<String> {
        let items = spec.get(key).map_or(&[][..], Json::as_arr);
        items.iter().filter_map(|w| w.get("name")?.as_str().map(str::to_string)).collect()
    };
    for workload in names("workloads") {
        for m in spec.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let lower = m.get("better").and_then(Json::as_str) != Some("higher");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let key = (workload.clone(), name.to_string());
            let (Some(base), Some(new)) = (a.values.get(&key), b.values.get(&key)) else {
                println!("{workload:<22} {name:<16} missing from a result set");
                clean = false;
                continue;
            };
            let v = verdict(base, new, lower, bound, name == "setup_s");
            clean &= v == "ok";
            println!(
                "{workload:<22} {name:<16} {:>12.4} {:>12.4} {:>7.3} {:>6.2} {:>7.3}  {v}",
                median(base),
                median(new),
                median(new) / median(base),
                bound,
                spread(base).max(spread(new)),
            );
        }
        for name in WATCHED {
            let key = (workload.clone(), name.to_string());
            if let (Some(base), Some(new)) = (a.values.get(&key), b.values.get(&key)) {
                if median(base) > 0.0 {
                    println!(
                        "{workload:<22} {name:<28} {:>12.4} {:>12.4} {:>7.3}  (no bound)",
                        median(base),
                        median(new),
                        median(new) / median(base)
                    );
                }
            }
        }
    }
    let mut compared = 0;
    for (key, va) in &a.exact {
        if let Some(vb) = b.exact.get(key) {
            compared += 1;
            if va != vb {
                println!("exact count differs: {} seed {} {}: {va} vs {vb}", key.0, key.1, key.2);
                clean = false;
            }
        }
    }
    println!("exact counts compared: {compared}");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(verdict(&base, &[103.0, 104.0, 102.0, 103.0], true, 0.05, false), "ok");
        assert_eq!(verdict(&base, &[110.0, 111.0, 109.0, 110.0], true, 0.05, false), "regressed");
        // Higher is better: a drop beyond the bound regresses.
        assert_eq!(verdict(&base, &[90.0, 91.0, 89.0, 90.0], false, 0.05, false), "regressed");
        assert_eq!(verdict(&base, &[110.0, 111.0, 109.0, 110.0], false, 0.05, false), "ok");
        // Spread wider than the bound: cannot tell — unless every new run
        // beats every base run.
        let noisy = [80.0, 120.0, 90.0, 110.0];
        assert_eq!(verdict(&noisy, &[85.0, 115.0, 95.0, 105.0], true, 0.05, false), "unresolved");
        assert_eq!(verdict(&noisy, &[50.0, 70.0, 55.0, 65.0], true, 0.05, false), "ok");
        assert_eq!(verdict(&noisy, &[85.0, 115.0, 95.0, 105.0], true, 0.05, true), "ok");
    }

    #[test]
    fn compare_reads_sets_and_flags_count_mismatches() {
        let dir = std::env::temp_dir().join(format!("stbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = r#"{"workloads": [{"name": "w", "why": "x"}],
            "end_to_end": [{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "ir.super_instrs.sddmm", "unit": "count", "better": "lower"}]}"#;
        let row = |seed: u32, trace: u32, metric: &str, value: f64| {
            format!(
                "{{\"workload\": \"w\", \"seed\": {seed}, \"trace\": {trace}, \"result\": \
                 {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                 {{\"{metric}\": {{\"value\": {value}, \"unit\": \"u\"}}}}}}}}\n"
            )
        };
        let set = |lat: [f64; 2], count: f64| {
            row(1, 0, "lat", lat[0])
                + &row(2, 0, "lat", lat[1])
                + &row(1, 1, "ir.super_instrs.sddmm", count)
        };
        let write = |name: &str, text: String| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p.to_string_lossy().into_owned()
        };
        let a = write("a.jsonl", set([10.0, 10.2], 3.0));
        let same = write("b.jsonl", set([10.1, 10.3], 3.0));
        let slower = write("c.jsonl", set([12.0, 12.2], 3.0));
        let recount = write("d.jsonl", set([10.0, 10.2], 4.0));
        assert_eq!(compare(spec, &a, &same), Ok(true));
        assert_eq!(compare(spec, &a, &slower), Ok(false));
        assert_eq!(compare(spec, &a, &recount), Ok(false));
        assert!(compare(spec, &a, "/nonexistent").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
