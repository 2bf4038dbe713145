//! Steady-state optimization built from the [`Enumerate`] and [`Score`]
//! stages: the greedy refinement loop shared by the live controller, the
//! static planners and the multi-job best-response dynamics.

use std::collections::VecDeque;

use ap_cluster::ClusterState;
use ap_pipesim::{AnalyticModel, Partition};
use ap_planner::sort_stage_workers_by;

use super::enumerate::MoveEnumerator;
use super::score::Scorer;
use super::stages::{Enumerate, Score, ScoreCtx};

/// What a [`refine`] run produced.
#[derive(Debug, Clone)]
pub struct Refined {
    /// The refined partition (the start when no move won).
    pub partition: Partition,
    /// Its score.
    pub score: f64,
    /// Rounds that scored candidates.
    pub rounds: usize,
    /// Candidate partitions scored across all rounds.
    pub scored: usize,
    /// Whether `stop` ended refinement before its natural end.
    pub stopped: bool,
}

/// Greedy refinement: chain incremental moves from `start`, each round
/// keeping the best-scoring candidate, until no candidate beats the
/// incumbent (beyond float noise), `max_rounds` is exhausted, or `stop`
/// (checked before each round, e.g. a deadline) says to quit.
pub fn refine<E: Enumerate, S: Score>(
    enumerator: &E,
    scorer: &S,
    ctx: &ScoreCtx<'_>,
    start: Partition,
    start_score: f64,
    max_rounds: usize,
    mut stop: impl FnMut() -> bool,
) -> Refined {
    let mut out = Refined {
        partition: start,
        score: start_score,
        rounds: 0,
        scored: 0,
        stopped: false,
    };
    for _ in 0..max_rounds {
        if stop() {
            out.stopped = true;
            break;
        }
        let candidates = enumerator.candidates(&out.partition, ctx.profile, &[]);
        if candidates.is_empty() {
            break;
        }
        out.rounds += 1;
        out.scored += candidates.len();
        match scorer.best(ctx, candidates) {
            Some((score, p)) if score > out.score * (1.0 + 1e-9) => {
                out.partition = p;
                out.score = score;
            }
            _ => break,
        }
    }
    out
}

/// Greedy hill-climbing with two-worker moves under the analytic model:
/// AutoPipe's steady-state optimizer, used for the static experiments.
/// A thin composition of [`MoveEnumerator`] and [`Scorer::Analytic`] over
/// [`refine`].
pub fn hill_climb(
    model: &AnalyticModel<'_>,
    start: Partition,
    state: &ClusterState,
    max_rounds: usize,
) -> Partition {
    let mut current = start;
    // Group replicas by effective speed so split moves can isolate
    // stragglers (order within a stage has no execution semantics).
    sort_stage_workers_by(&mut current, |g| state.effective_flops(g));
    let history = VecDeque::new();
    let ctx = ScoreCtx {
        profile: model.profile,
        scheme: model.scheme,
        framework: model.framework,
        schedule: model.schedule,
        calibration: model.calibration,
        history: &history,
        state,
    };
    let scorer = Scorer::Analytic;
    let start_score = scorer.predict(&ctx, &current);
    refine(
        &MoveEnumerator::new(),
        &scorer,
        &ctx,
        current,
        start_score,
        max_rounds,
        || false,
    )
    .partition
}
