//! The options-carrying submission surface: one request type per served
//! op plus the SLO envelope it travels in — deadline, priority class and
//! per-request tuning override. `Submission` is the one public face of
//! [`Engine::submit`](crate::Engine::submit).

use crate::op::OpRequest;
use sparsetir_kernels::prelude::AttnHead;
use sparsetir_smat::prelude::Dense;
use std::fmt;
use std::time::Duration;

/// Priority class of a submission. Declaration order is serving order:
/// the queue serves all `Hi` work before any `Normal` work before any
/// `Lo` work (ties broken by deadline, then arrival). A full queue evicts
/// its newest strictly-lower-priority entry to admit higher-priority
/// work, so `Hi` traffic is never starved by a saturating `Lo` flood.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort background work: first to be shed under load.
    Lo,
    /// The default class — what a submission without `.priority(..)`
    /// (or a bare [`OpRequest`] converted `Into<Submission>`) gets.
    #[default]
    Normal,
    /// Latency-sensitive work: served ahead of every other class and
    /// admitted by evicting queued `Lo`/`Normal` work when the queue is
    /// full.
    Hi,
}

impl Priority {
    /// Every class, in per-priority-counter slot order (`Lo`, `Normal`,
    /// `Hi`).
    pub const ALL: [Priority; 3] = [Priority::Lo, Priority::Normal, Priority::Hi];

    /// Stable display name (`"lo"`, `"normal"`, `"hi"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Priority::Lo => "lo",
            Priority::Normal => "normal",
            Priority::Hi => "hi",
        }
    }

    /// Index into per-priority counter arrays.
    #[must_use]
    pub(crate) fn slot(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why the admission controller refused (or a serving caller dropped) a
/// submission — the payload of
/// [`EngineError::Rejected`](crate::EngineError::Rejected).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RejectReason {
    /// The bounded queue was at capacity and the submission was neither
    /// willing to block nor of higher priority than anything queued.
    /// Also answered to a queued request evicted to admit
    /// higher-priority work.
    QueueFull,
    /// The deadline cannot be met even by the engine's own estimate of
    /// queue wait plus execution time, so the request was shed at
    /// admission instead of wasting a slot.
    DeadlineInfeasible,
    /// The deadline had already passed — at admission, while blocking on
    /// a full queue, or in the queue (a serving caller drops expired
    /// requests without executing them).
    Expired,
}

impl RejectReason {
    /// Stable display name (`"queue_full"`, `"deadline_infeasible"`,
    /// `"expired"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::DeadlineInfeasible => "deadline_infeasible",
            RejectReason::Expired => "expired",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-request serving options, set through the [`Submission`] builder
/// methods.
#[derive(Debug, Clone, Default)]
pub(crate) struct SubmitOpts {
    pub(crate) deadline: Option<Duration>,
    pub(crate) priority: Priority,
    pub(crate) tune: bool,
}

/// One op request plus its serving options — what [`Engine::submit`]
/// accepts. Constructed per op and refined builder-style:
///
/// ```
/// use sparsetir_engine::{Priority, Submission};
/// use sparsetir_smat::prelude::Dense;
/// use std::time::Duration;
///
/// let feat = Dense::zeros(8, 4);
/// let sub = Submission::spmm(feat)
///     .deadline(Duration::from_millis(5))
///     .priority(Priority::Hi);
/// assert_eq!(sub.kind(), "spmm");
/// ```
///
/// A bare [`OpRequest`] converts `Into<Submission>` with default options
/// (no deadline, [`Priority::Normal`], untuned), so
/// `engine.submit(&adj, req)` takes a request as it is.
///
/// [`Engine::submit`]: crate::Engine::submit
#[derive(Debug, Clone)]
pub struct Submission {
    pub(crate) req: OpRequest,
    pub(crate) opts: SubmitOpts,
}

impl Submission {
    /// Wrap any [`OpRequest`] with default options.
    #[must_use]
    pub fn new(req: OpRequest) -> Submission {
        Submission { req, opts: SubmitOpts::default() }
    }

    /// An SpMM request (`adj · feat`).
    #[must_use]
    pub fn spmm(feat: Dense) -> Submission {
        Submission::new(OpRequest::Spmm(feat))
    }

    /// An SDDMM request (`adj ⊙ (x · y)` sampled at the non-zeros).
    #[must_use]
    pub fn sddmm(x: Dense, y: Dense) -> Submission {
        Submission::new(OpRequest::Sddmm((x, y)))
    }

    /// A cross-op fused attention pipeline request (one `(Q, Kᵀ, V)`
    /// triple per head).
    #[must_use]
    pub fn fused_attention(heads: Vec<AttnHead>) -> Submission {
        Submission::new(OpRequest::FusedAttention(heads))
    }

    /// A fused GraphSAGE layer-step request (operands `(X, W)`).
    #[must_use]
    pub fn fused_sage(x: Dense, w: Dense) -> Submission {
        Submission::new(OpRequest::FusedSage((x, w)))
    }

    /// Set the answer-by budget, relative to submission time. Without
    /// one (the default) a request never expires. With one, the
    /// admission controller sheds the request when the deadline is
    /// infeasible or already passed, a blocking submit makes queue space
    /// at most until the deadline, and a serving caller drops the request
    /// unexecuted once the deadline passes. A budget too long
    /// for the clock to represent never expires.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Submission {
        self.opts.deadline = Some(deadline);
        self
    }

    /// Set the priority class; [`Priority::Normal`] by default.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Submission {
        self.opts.priority = priority;
        self
    }

    /// Ask for (or decline) a tuned launch; untuned by default. When set,
    /// the first tuned request for each `(adjacency, op)` pair of an op
    /// whose launch reads a searched configuration (SpMM) times
    /// `kernels::tune`'s shortlist on the engine's runtime and its own
    /// operand, and the picked configuration is cached in the engine's
    /// `TuneCache` (see [`Engine::tune_cache`](crate::Engine::tune_cache))
    /// for every later tuned request on that pair. An op whose launch reads
    /// no configuration has nothing to decide and is served the same either
    /// way. Every request runs in its own launch under its own flag.
    #[must_use]
    pub fn tune(mut self, tune: bool) -> Submission {
        self.opts.tune = tune;
        self
    }

    /// The op kind tag this submission routes to (`"spmm"`, `"sddmm"`,
    /// …).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.req.kind()
    }
}

impl From<OpRequest> for Submission {
    fn from(req: OpRequest) -> Submission {
        Submission::new(req)
    }
}
