//! Table formatting, aggregation and timing helpers shared by the
//! experiment harnesses.

use std::time::Instant;

/// Geometric mean (0 when empty).
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
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

/// Render an aligned text table.
#[must_use]
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let mut header_line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        header_line.push_str(&format!("{h:<w$}  ", w = w));
    }
    out.push_str(header_line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            line.push_str(&format!("{cell:<w$}  ", w = w));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Format a speedup with two decimals.
#[must_use]
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Format milliseconds with three significant decimals.
#[must_use]
pub fn fmt_ms(x: f64) -> String {
    format!("{x:.3}ms")
}

/// Format a seconds value as microseconds (measured tuning trials).
#[must_use]
pub fn fmt_us(seconds: f64) -> String {
    format!("{:.1} µs", seconds * 1e6)
}

/// Format a percentage.
#[must_use]
pub fn fmt_pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// Format bytes as MB.
#[must_use]
pub fn fmt_mb(bytes: u64) -> String {
    format!("{:.1}MB", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_uniform_is_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn median_is_robust_to_reps() {
        let v = median_ns(5, std::thread::yield_now);
        assert!(v >= 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "T",
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["long-name".into(), "2".into()]],
        );
        assert!(t.contains("== T =="));
        assert!(t.contains("long-name"));
    }
}
