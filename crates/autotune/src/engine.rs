//! The generic tuning engine: a [`SearchSpace`] enumerates candidates, an
//! [`Evaluator`] scores them, and [`tune`] keeps the minimum — evaluating
//! trials in parallel across OS threads.
//! SpMM, SDDMM and block-sparse attention all tune through this one engine
//! instead of bespoke grid loops.

/// A finite space of tuning candidates.
pub trait SearchSpace {
    /// One point of the space.
    type Candidate: Clone + Send + Sync;

    /// Enumerate every candidate in deterministic order. Score ties
    /// resolve to the earliest candidate, so put preferred defaults first.
    fn candidates(&self) -> Vec<Self::Candidate>;
}

/// Scores candidates; smaller is better. `None` marks an infeasible
/// candidate (e.g. a decomposition that fails to build).
pub trait Evaluator<C>: Sync {
    /// Cost of one candidate.
    fn evaluate(&self, candidate: &C) -> Option<f64>;
}

/// An explicit candidate list as a space (e.g. the RGMS bucket
/// exponents).
pub struct ListSpace<C>(pub Vec<C>);

impl<C: Clone + Send + Sync> SearchSpace for ListSpace<C> {
    type Candidate = C;

    fn candidates(&self) -> Vec<C> {
        self.0.clone()
    }
}

/// One scored trial.
#[derive(Debug, Clone)]
pub struct Trial<C> {
    /// The evaluated candidate.
    pub candidate: C,
    /// Its cost (in the evaluator's unit; simulated milliseconds for the
    /// typed tuners).
    pub score: f64,
}

/// Result of a [`tune`] run.
#[derive(Debug, Clone)]
pub struct TuneOutcome<C> {
    /// The minimum-cost trial (earliest on ties).
    pub best: Trial<C>,
    /// Every feasible trial, in candidate order.
    pub trials: Vec<Trial<C>>,
}

/// Evaluate every candidate of `space` with `evaluator` and return the
/// best, or `None` when no candidate is feasible.
pub fn tune<S, E>(space: &S, evaluator: &E) -> Option<TuneOutcome<S::Candidate>>
where
    S: SearchSpace,
    E: Evaluator<S::Candidate>,
{
    let candidates = space.candidates();
    let scores = parallel_scores(&candidates, evaluator);
    let trials: Vec<Trial<S::Candidate>> = candidates
        .into_iter()
        .zip(scores)
        .filter_map(|(candidate, score)| score.map(|score| Trial { candidate, score }))
        .collect();
    let mut best: Option<&Trial<S::Candidate>> = None;
    for t in &trials {
        if best.is_none_or(|b| t.score < b.score) {
            best = Some(t);
        }
    }
    let best = best.cloned()?;
    Some(TuneOutcome { best, trials })
}

/// Score `candidates` across OS threads (rayon is unavailable offline),
/// preserving candidate order in the returned vector.
fn parallel_scores<C, E>(candidates: &[C], evaluator: &E) -> Vec<Option<f64>>
where
    C: Sync,
    E: Evaluator<C>,
{
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let chunk = candidates.len().div_ceil(threads).max(1);
    let mut scores = vec![None; candidates.len()];
    std::thread::scope(|s| {
        for (cands, out) in candidates.chunks(chunk).zip(scores.chunks_mut(chunk)) {
            s.spawn(move || {
                for (c, slot) in cands.iter().zip(out.iter_mut()) {
                    *slot = evaluator.evaluate(c);
                }
            });
        }
    });
    scores
}
