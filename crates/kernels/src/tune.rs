//! The served SpMM decision, beside the launches it times (§2: the search
//! cost "can be amortized"): [`SpmmMeasuredEvaluator::decide`] times the
//! whole launch of each [`spmm_shortlist`] config — [`spmm_execute_views_on`]
//! on a warm [`Runtime`], so `hyb`'s decomposition and bucket binds count —
//! and [`pick_spmm`] keeps CSR unless a challenger beats it by more than
//! [`CHALLENGER_MARGIN`]. A serving engine files the pick in a
//! [`TuneCache`] under [`measured_spmm_key`], keyed by a structural
//! [`SparsityFingerprint`], so repeated requests on one adjacency hit the
//! decision with zero recompilation and zero re-measurement.

use crate::spmm::{spmm_execute_views_on, SpmmConfig};
use sparsetir_ir::exec::Runtime;
use sparsetir_smat::prelude::*;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// A pure structural summary, so it lives in `sparsetir-smat`; re-exported
// for the cache's callers.
pub use sparsetir_smat::fingerprint::SparsityFingerprint;

/// Untimed launches of each candidate before timing (the first compiles,
/// or finds the kernel in the runtime's cache).
const WARMUP: usize = 1;
/// Timed rounds; each candidate keeps its minimum.
const REPEAT: usize = 3;

/// Cache key: workload kind, evaluation backend, device, extra workload
/// parameters (feature width, heads, …) and the matrix fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TuneKey {
    /// Workload kind (`"spmm"`, `"sddmm"`, `"attention"`).
    pub workload: &'static str,
    /// Evaluation backend: `"measured"` for a decision timed here, the
    /// simulator's name for one priced on a GPU model.
    pub backend: &'static str,
    /// The device decided for: `"host"` for the machine that serves, a
    /// GPU model's id otherwise.
    pub device: &'static str,
    /// Extra workload parameters (feature width, heads, …).
    pub extra: Vec<usize>,
    /// The matrix fingerprint.
    pub fingerprint: SparsityFingerprint,
}

/// Thread-safe map from [`TuneKey`] to a tuning result, with hit/miss
/// statistics.
#[derive(Default)]
pub struct TuneCache<V> {
    map: Mutex<HashMap<TuneKey, V>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<V: Clone> TuneCache<V> {
    /// Empty cache.
    #[must_use]
    pub fn new() -> TuneCache<V> {
        TuneCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Read-only probe: the cached value for `key`, counting a hit when
    /// present (a miss is not counted — callers falling through to
    /// [`TuneCache::get_or_insert_with`] would double-count it). Lets a
    /// caller with its own single-flight guard serve hits without taking
    /// that guard.
    pub fn get(&self, key: &TuneKey) -> Option<V> {
        let v = self.map.lock().unwrap().get(key).cloned();
        if v.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    /// Look up `key`, computing and inserting on a miss. Returns the value
    /// and whether it was a hit. `compute` runs outside the lock, so a
    /// slow tuning run never blocks unrelated lookups. No single-flight
    /// guard is provided: concurrent callers racing on the same key each
    /// pay the compute and the last insert wins (for the measured backend
    /// the racing results may differ by timing noise).
    pub fn get_or_insert_with(&self, key: TuneKey, compute: impl FnOnce() -> V) -> (V, bool) {
        if let Some(v) = self.map.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (v.clone(), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        self.map.lock().unwrap().insert(key, v.clone());
        (v, false)
    }

    /// Unconditionally install (or overwrite) the decision for `key`,
    /// without touching the hit/miss statistics. This is the atomic-swap
    /// primitive of stale-while-retune serving: the engine pre-seeds a new
    /// fingerprint's key with the stale-but-correct config so lookups never
    /// stall, then a background retune overwrites it in one locked insert —
    /// readers see either the stale or the fresh decision, never a gap.
    pub fn insert(&self, key: TuneKey, value: V) {
        self.map.lock().unwrap().insert(key, value);
    }

    /// Read-only probe that counts neither a hit nor a miss (for
    /// bookkeeping paths like retune seeding, which must not skew the
    /// serving statistics).
    pub fn peek(&self, key: &TuneKey) -> Option<V> {
        self.map.lock().unwrap().get(key).cloned()
    }

    /// Number of cached decisions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from cache.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to tune.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Measured SpMM evaluator: each candidate is timed as the whole launch a
/// serving worker runs — [`spmm_execute_views_on`] on a warm [`Runtime`],
/// so `hyb`'s decomposition and bucket binds count, not just the kernel
/// run — against one dense operand, one candidate at a time so timings
/// don't perturb each other.
pub struct SpmmMeasuredEvaluator<'a> {
    rt: &'a Runtime,
    matrix: &'a Csr,
    x: Cow<'a, Dense>,
}

impl<'a> SpmmMeasuredEvaluator<'a> {
    /// Evaluator for `matrix · X` at feature width `feat` on `rt`; the
    /// dense operand is seeded deterministically from the matrix structure.
    #[must_use]
    pub fn new(rt: &'a Runtime, matrix: &'a Csr, feat: usize) -> SpmmMeasuredEvaluator<'a> {
        let mut rng = gen::rng(0x7E57 ^ matrix.nnz() as u64);
        let x = Cow::Owned(gen::random_dense(matrix.cols(), feat, &mut rng));
        SpmmMeasuredEvaluator { rt, matrix, x }
    }

    /// Evaluator for `matrix · x` on `rt`, timed on the caller's operand.
    #[must_use]
    pub fn with_operand(
        rt: &'a Runtime,
        matrix: &'a Csr,
        x: &'a Dense,
    ) -> SpmmMeasuredEvaluator<'a> {
        SpmmMeasuredEvaluator { rt, matrix, x: Cow::Borrowed(x) }
    }

    /// Score each of `configs`: one untimed launch of each (the first
    /// compiles, or finds the kernel in the runtime's cache), then three
    /// rounds that launch each once, keeping each one's minimum in
    /// seconds. A round takes the configs in turn, so a change of the
    /// machine's clock state lands on all of them alike. `None` for a
    /// config whose launch failed; it is not launched again.
    #[must_use]
    pub fn scores(&self, configs: &[SpmmConfig]) -> Vec<Option<f64>> {
        let xs = [self.x.as_ref()];
        let mut outs = [Dense::zeros(self.matrix.rows(), self.x.cols())];
        let mut launch = |config: &SpmmConfig| {
            let t0 = Instant::now();
            spmm_execute_views_on(self.rt, self.matrix, &xs, &mut outs, config).ok()?;
            Some(t0.elapsed().as_secs_f64())
        };
        let mut best: Vec<Option<f64>> = configs
            .iter()
            .map(|c| (0..WARMUP).try_for_each(|_| launch(c).map(drop)))
            .map(|warm| warm.map(|()| f64::INFINITY))
            .collect();
        for _ in 0..REPEAT {
            for (config, best) in configs.iter().zip(&mut best) {
                *best = best.and_then(|b| launch(config).map(|t| b.min(t)));
            }
        }
        best
    }

    /// The served decision: the [`spmm_shortlist`] scored together, and
    /// [`pick_spmm`] over the scores.
    #[must_use]
    pub fn decide(&self) -> SpmmConfig {
        let shortlist = spmm_shortlist();
        let scores = self.scores(&shortlist);
        let timed: Vec<(SpmmConfig, Option<f64>)> = shortlist.into_iter().zip(scores).collect();
        pick_spmm(&timed)
    }
}

/// How much faster than the incumbent CSR launch a challenger must be to
/// be served instead: more than this fraction of CSR's score. Measured
/// with `launch_probe`'s tune table (x86-64, 2 cores, pinned to one CPU,
/// four runs): two CSR scores taken in the same rounds read 2–13 % apart
/// in seven of eight pairs, and 73 % apart once, when the clock state
/// changed inside the first round; the `hyb` arms score 2.5–5× CSR on the
/// tenant and `serve_shared_dynamic` graphs. So the margin keeps near-ties
/// on CSR and is far from every gap the shortlist shows there; it cannot
/// tell a real gain of a few percent from noise.
pub const CHALLENGER_MARGIN: f64 = 0.10;

/// The configurations a served SpMM decision chooses among, the
/// incumbent first: the untuned CSR launch, and the two `hyb(c, k)`
/// decompositions the V100 model picks on `stbench`'s two serving graphs.
#[must_use]
pub fn spmm_shortlist() -> [SpmmConfig; 3] {
    let hyb = |c| SpmmConfig { col_parts: Some(c), bucket_k: 3, ..SpmmConfig::default_csr() };
    [SpmmConfig::default_csr(), hyb(1), hyb(2)]
}

/// The decision rule over measured `(config, seconds)` pairs, `None` for a
/// launch that failed. The incumbent is [`SpmmConfig::default_csr`]; the
/// fastest challenger replaces it only when it beats the incumbent's time
/// by more than [`CHALLENGER_MARGIN`]. Equal challengers go to the earlier
/// one, a failed candidate is never picked, and when every candidate
/// failed the answer is the incumbent.
#[must_use]
pub fn pick_spmm(timed: &[(SpmmConfig, Option<f64>)]) -> SpmmConfig {
    let incumbent = SpmmConfig::default_csr();
    let seconds_of = |want: &SpmmConfig| timed.iter().find(|(c, _)| c == want).and_then(|t| t.1);
    let bar = seconds_of(&incumbent).map_or(f64::INFINITY, |t| t * (1.0 - CHALLENGER_MARGIN));
    timed
        .iter()
        .filter_map(|&(c, t)| Some((c, t?)))
        .filter(|&(c, t)| c != incumbent && t < bar)
        .min_by(|x, y| x.1.total_cmp(&y.1))
        .map_or(incumbent, |(c, _)| c)
}

/// Where a served SpMM decision taken under the tuning anchor `anchor` is
/// cached: one key per adjacency, whatever the request width (the
/// decision is timed at the triggering request's width and reused for all
/// — the §2 amortization trade), on the `"host"` that serves.
#[must_use]
pub fn measured_spmm_key(anchor: &SparsityFingerprint) -> TuneKey {
    TuneKey {
        workload: "spmm",
        backend: "measured",
        device: "host",
        extra: vec![],
        fingerprint: anchor.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: usize) -> TuneKey {
        TuneKey {
            workload: "spmm",
            backend: "measured",
            device: "host",
            extra: vec![tag],
            fingerprint: SparsityFingerprint {
                rows: 4,
                cols: 4,
                nnz: 2,
                degree_hist: vec![2, 2],
                relation_dims: vec![],
            },
        }
    }

    #[test]
    fn hit_after_miss_and_stats() {
        let cache = TuneCache::new();
        let (v, hit) = cache.get_or_insert_with(key(1), || 42);
        assert!(!hit);
        assert_eq!(v, 42);
        let (v, hit) = cache.get_or_insert_with(key(1), || unreachable!("must hit"));
        assert!(hit);
        assert_eq!(v, 42);
        let (_, hit) = cache.get_or_insert_with(key(2), || 7);
        assert!(!hit);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));
    }

    #[test]
    fn insert_overwrites_atomically_without_stats() {
        let cache = TuneCache::new();
        cache.insert(key(1), 42); // pre-seed (stale config under new key)
        assert_eq!(cache.peek(&key(1)), Some(42));
        cache.insert(key(1), 43); // background retune swaps it
        assert_eq!(cache.peek(&key(1)), Some(43));
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "seeding must not skew stats");
        let (v, hit) = cache.get_or_insert_with(key(1), || unreachable!("seeded"));
        assert!(hit);
        assert_eq!(v, 43);
    }

    /// The served decision rule on synthetic timings: CSR is the
    /// incumbent, a challenger needs more than [`CHALLENGER_MARGIN`], and
    /// a failed launch is never the answer.
    #[test]
    fn the_served_rule_keeps_csr_unless_a_challenger_wins_by_the_margin() {
        let [csr, hyb1, hyb2] = spmm_shortlist();
        let pick = |t: [Option<f64>; 3]| pick_spmm(&[(csr, t[0]), (hyb1, t[1]), (hyb2, t[2])]);
        let within = 1.0 - CHALLENGER_MARGIN / 2.0;
        let beyond = 1.0 - 2.0 * CHALLENGER_MARGIN;
        assert_eq!(pick([Some(1.0), Some(within), Some(2.0)]), csr, "kept within the margin");
        assert_eq!(pick([Some(1.0), Some(2.0), Some(beyond)]), hyb2, "won beyond it");
        assert_eq!(pick([Some(1.0), Some(0.5), Some(0.4)]), hyb2, "the faster challenger");
        assert_eq!(pick([Some(1.0), Some(0.5), Some(0.5)]), hyb1, "equal challengers: the first");
        assert_eq!(pick([Some(1.0); 3]), csr, "equal timings pick CSR");
        assert_eq!(pick([Some(1.0), None, None]), csr, "failed challengers are skipped");
        assert_eq!(pick([None, Some(2.0), None]), hyb1, "a failed incumbent is not picked");
        assert_eq!(pick([None; 3]), csr, "everything failed: CSR");
        assert_eq!(pick_spmm(&[]), csr);
    }

    /// ROADMAP 5's gate: on a `stbench serve_shared_dynamic`-shaped graph
    /// (n = 2 000, the power-law degree curve at mean 4.5, d = 32), ten
    /// operand seeds time to one decision.
    #[test]
    fn ten_operand_seeds_choose_one_config() {
        let (n, mean_deg, d) = (2000usize, 4.5f64, 32usize);
        let eps = 0.015f64;
        let alpha = mean_deg / ((1.0 + eps).ln() - eps.ln());
        let mut degrees = (0..n).map(|r| (alpha / ((r as f64 + 0.5) / n as f64 + eps)) as usize);
        let a = gen::random_csr_with_row_lengths(
            n,
            n,
            |_| degrees.next().unwrap_or(1).clamp(1, n / 2),
            &mut gen::rng(1001),
        );
        let rt = sparsetir_ir::exec::Runtime::new();
        let picks: Vec<SpmmConfig> = (0..10)
            .map(|seed| {
                let x = gen::random_dense(n, d, &mut gen::rng(seed));
                SpmmMeasuredEvaluator::with_operand(&rt, &a, &x).decide()
            })
            .collect();
        assert!(spmm_shortlist().contains(&picks[0]));
        assert!(picks.iter().all(|p| *p == picks[0]), "{picks:?}");
    }
}
