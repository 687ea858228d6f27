//! In-memory spans recorded from the benchmark's own files around the
//! calls into each layer. Spans carry a parent so a layer's *self time*
//! is its duration minus what its children cover; the whole set is
//! written out as Chrome trace-event JSON when the run ends. With tracing
//! off every method is a branch and a return.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
    tid: u32,
}

pub struct Trace {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

/// Thread ids in the trace file: the pass / unloaded-request stream,
/// detached standalone probes, and the first of the loaded-phase lanes
/// (one per outstanding slot, so overlapping requests do not mis-nest).
pub const TID_MAIN: u32 = 1;
pub const TID_DETACHED: u32 = 2;
pub const TID_LOADED: u32 = 100;

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace { on, t0: Instant::now(), spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Record a finished span; the returned id can parent later spans.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        tid: u32,
    ) -> usize {
        if !self.on {
            return 0;
        }
        let start_us = self.us(start);
        self.spans.push(Span { name, start_us, dur_us: self.us(end) - start_us, parent, tid });
        self.spans.len() - 1
    }

    /// Open a parent span whose end is not known yet; [`Trace::close`] it.
    pub fn open(&mut self, name: &'static str, start: Instant, tid: u32) -> usize {
        self.span(name, start, start, None, tid)
    }

    pub fn close(&mut self, id: usize, end: Instant) {
        if self.on {
            self.spans[id].dur_us = self.us(end) - self.spans[id].start_us;
        }
    }

    /// Time `f`, record it as a child of `parent`, and return its result
    /// with the elapsed milliseconds (measured whether or not tracing is
    /// on — the stage timers are the same two clock reads either way).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        tid: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.span(name, start, end, parent, tid);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Share of the `parent`-named spans' total duration that their direct
    /// children cover (1.0 = fully attributed); 0 when there are none.
    pub fn coverage(&self, parent: &str) -> f64 {
        let mut total = 0.0;
        let mut covered = 0.0;
        for s in &self.spans {
            if s.name == parent {
                total += s.dur_us;
            }
            if s.parent.is_some_and(|p| self.spans[p].name == parent) {
                covered += s.dur_us;
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// `(name, count, total ms, self ms)` per span name, largest self
    /// time first.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us;
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_us) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_us / 1e3;
            e.2 += (s.dur_us - c).max(0.0) / 1e3;
        }
        let mut rows: Vec<_> = by_name.into_iter().map(|(n, (c, t, s))| (n, c, t, s)).collect();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }

    pub fn self_time_table(&self) -> String {
        let mut out =
            format!("{:<24} {:>8} {:>12} {:>12}\n", "span", "count", "total ms", "self ms");
        for (name, count, total, own) in self.self_times() {
            let _ = writeln!(out, "{name:<24} {count:>8} {total:>12.3} {own:>12.3}");
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"ph":"X"`) event per span, parent ids in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"stbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}{sep}",
                s.name, s.start_us, s.dur_us, s.tid
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_coverage_sums_them() {
        let mut tr = Trace::new(true);
        let t = Instant::now();
        let at = |ms| t + Duration::from_millis(ms);
        let p = tr.open("pass", at(0), TID_MAIN);
        tr.span("ir.run", at(0), at(6), Some(p), TID_MAIN);
        tr.span("bench.check", at(6), at(9), Some(p), TID_MAIN);
        tr.close(p, at(10));
        assert!((tr.coverage("pass") - 0.9).abs() < 1e-9);
        let rows = tr.self_times();
        assert_eq!(rows[0].0, "ir.run");
        let pass = rows.iter().find(|r| r.0 == "pass").unwrap();
        assert!((pass.2 - 10.0).abs() < 1e-9 && (pass.3 - 1.0).abs() < 1e-9);
        let json = tr.chrome_json();
        assert!(json.contains("\"name\":\"ir.run\"") && json.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_trace_records_nothing_but_still_times() {
        let mut tr = Trace::new(false);
        let (v, ms) = tr.time("ir.run", None, TID_MAIN, || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(tr.self_times().is_empty());
        assert_eq!(tr.coverage("pass"), 0.0);
    }
}
