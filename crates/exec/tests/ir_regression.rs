//! The IR generator must reproduce the runtime's legacy 1F1B schedule,
//! and the runtime must train correctly under every schedule in the zoo.

use ap_exec::runtime::{run_pipeline, ExecResult, ExecSpec};
use ap_exec::ScheduleKind;
use ap_ir::{generate, IrOp};
use ap_nn::ActKind;

/// One entry of the legacy coarse schedule: forward mini-batch `mb` (at
/// the last stage: forward + loss + backward, fused), or its backward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Forward(u64),
    Backward(u64),
}

/// Frozen oracle: the hand-written 1F1B op sequence the runtime executed
/// before the schedule IR existed. Warmup depth shrinks with stage index
/// (`in_flight - stage`, floored at one), then strict B/F alternation,
/// then drain backwards; the last stage emits only (fused) forwards.
fn stage_ops(stage: usize, n_stages: usize, total: u64, in_flight: usize) -> Vec<Op> {
    assert!(n_stages > 0 && stage < n_stages, "bad stage index");
    assert!(in_flight >= 1, "need at least one in-flight mini-batch");
    if stage == n_stages - 1 {
        return (0..total).map(Op::Forward).collect();
    }
    let warmup = (in_flight.saturating_sub(stage)).max(1) as u64;
    let w = warmup.min(total);
    let mut ops = Vec::with_capacity(2 * total as usize);
    for v in 0..w {
        ops.push(Op::Forward(v));
    }
    let mut b = 0;
    let mut f = w;
    while f < total {
        ops.push(Op::Backward(b));
        ops.push(Op::Forward(f));
        b += 1;
        f += 1;
    }
    for v in b..total {
        ops.push(Op::Backward(v));
    }
    ops
}

/// Bit pattern of a stage's weights, for exact comparisons.
fn weight_bits(w: &ap_nn::mlp::MlpWeights) -> Vec<u64> {
    w.layers
        .iter()
        .flat_map(|(wm, bm)| wm.data().iter().chain(bm.data()).map(|v| v.to_bits()))
        .collect()
}

/// Project a stage's IR program down to the legacy compute-op alphabet:
/// `Forward`/`FusedFwdLossBwd` → `Op::Forward`, `Backward` → `Op::Backward`,
/// everything else (transport, stash bookkeeping, applies) dropped.
fn fold(ops: &[IrOp]) -> Vec<Op> {
    ops.iter()
        .filter_map(|op| match op {
            IrOp::Forward { unit } | IrOp::FusedFwdLossBwd { unit } => Some(Op::Forward(unit.mb)),
            IrOp::Backward { unit } => Some(Op::Backward(unit.mb)),
            _ => None,
        })
        .collect()
}

/// The PipeDream program of one stage, folded to the legacy alphabet.
fn ir_ops(stage: usize, n_stages: usize, total: u64, in_flight: usize) -> Vec<Op> {
    let program = generate(ScheduleKind::PipeDreamAsync, n_stages, total, in_flight);
    fold(&program.stages[stage].ops)
}

#[test]
fn pipedream_ir_reproduces_the_legacy_stage_ops_exactly() {
    // A grid of shapes, plus the shapes the legacy schedule's own unit
    // tests pinned (deep pipelines, a cap sweep, empty and one-batch runs).
    let mut shapes: Vec<(usize, u64, usize)> = Vec::new();
    for n_stages in 1..=5usize {
        for in_flight in 1..=5usize {
            for total in [1u64, 2, 5, 9, 16] {
                shapes.push((n_stages, total, in_flight));
            }
        }
    }
    shapes.extend([
        (4, 10, 4),
        (3, 8, 3),
        (2, 10, 4),
        (2, 3, 1),
        (2, 0, 4),
        (2, 1, 4),
    ]);
    shapes.extend((1..=5).map(|cap| (3, 12, cap)));
    for (n_stages, total, in_flight) in shapes {
        for s in 0..n_stages {
            let legacy = stage_ops(s, n_stages, total, in_flight);
            assert_eq!(
                ir_ops(s, n_stages, total, in_flight),
                legacy,
                "stage {s}/{n_stages}, total {total}, in_flight {in_flight}"
            );
        }
    }
}

#[test]
fn pipedream_ir_keeps_the_legacy_shapes() {
    // The exact sequences the legacy schedule's own unit tests pinned:
    // warmup fills to the cap then alternates, a cap of one is
    // sequential, tiny totals do not panic, and stage 0 never holds more
    // than the cap before draining fully.
    use Op::{Backward as B, Forward as F};
    assert_eq!(
        &ir_ops(0, 2, 10, 4)[..6],
        &[F(0), F(1), F(2), F(3), B(0), F(4)]
    );
    assert_eq!(ir_ops(0, 2, 3, 1), vec![F(0), B(0), F(1), B(1), F(2), B(2)]);
    assert_eq!(ir_ops(0, 2, 0, 4), vec![]);
    assert_eq!(ir_ops(0, 2, 1, 4), vec![F(0), B(0)]);
    for cap in 1..=5usize {
        let mut live = 0i64;
        let mut peak = 0i64;
        for op in ir_ops(0, 3, 12, cap) {
            live += if matches!(op, F(_)) { 1 } else { -1 };
            peak = peak.max(live);
        }
        assert!(peak <= cap as i64, "cap {cap}: peak {peak}");
        assert_eq!(live, 0, "pipeline must fully drain");
    }
}

fn zoo_spec(kind: ScheduleKind) -> ExecSpec {
    ExecSpec {
        sizes: vec![6, 8, 8, 8, 6, 4],
        act: ActKind::Tanh,
        seed: 42,
        batch: 8,
        lr: 0.01,
        cuts: vec![2, 4],
        schedule: kind,
        in_flight: 3,
        total: 12,
        bytes_per_sec: None,
        distinct_batches: 4,
        switch: None,
        record_timeline: false,
    }
}

fn assert_trains(kind: ScheduleKind, r: &ExecResult) {
    assert_eq!(r.completed, 12, "{}: completion count", kind.id());
    assert_eq!(r.losses.len(), 12, "{}: loss count", kind.id());
    assert!(
        r.losses.iter().all(|l| l.is_finite()),
        "{}: non-finite loss",
        kind.id()
    );
    // The data cycles through 4 distinct batches; by the third lap the
    // loss on each must have dropped from its first visit.
    for b in 0..4 {
        assert!(
            r.losses[b + 8] < r.losses[b],
            "{}: batch {b} did not improve ({} -> {})",
            kind.id(),
            r.losses[b],
            r.losses[b + 8]
        );
    }
}

#[test]
fn every_schedule_in_the_zoo_trains_and_is_deterministic() {
    for kind in ScheduleKind::zoo() {
        let spec = zoo_spec(kind);
        let a = run_pipeline(&spec).unwrap();
        assert_trains(kind, &a);
        let b = run_pipeline(&spec).unwrap();
        assert_eq!(
            a.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            b.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "{}: losses not bit-deterministic across reruns",
            kind.id()
        );
        for (wa, wb) in a.final_weights.iter().zip(&b.final_weights) {
            assert_eq!(wa.0, wb.0, "{}: stage layout drifted", kind.id());
            assert_eq!(
                weight_bits(&wa.1),
                weight_bits(&wb.1),
                "{}: final weights not bit-deterministic",
                kind.id()
            );
        }
    }
}

#[test]
fn sync_schedules_match_their_full_batch_reference() {
    // GPipe / DAPPLE / Chimera apply the mean micro-gradient once per
    // mini-batch: with in_flight = 1 that is plain full-batch SGD, except
    // micro-batched MSE backprop scales each row-slice's gradient by
    // m / batch — equivalent to SGD at lr·m on the mean. Verify the three
    // flush schedules agree bit-exactly with *each other* (same updates,
    // different overlap), which pins the semantics without re-deriving
    // the reference here.
    let run = |kind| {
        let spec = ExecSpec {
            in_flight: 1,
            ..zoo_spec(kind)
        };
        run_pipeline(&spec).unwrap()
    };
    let gpipe = run(ScheduleKind::parse("gpipe").unwrap());
    let dapple = run(ScheduleKind::parse("dapple").unwrap());
    let chimera = run(ScheduleKind::parse("chimera").unwrap());
    for other in [&dapple, &chimera] {
        assert_eq!(
            gpipe.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            other.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "flush schedules disagree on losses"
        );
        for (wa, wb) in gpipe.final_weights.iter().zip(&other.final_weights) {
            assert_eq!(
                weight_bits(&wa.1),
                weight_bits(&wb.1),
                "flush schedules disagree on final weights"
            );
        }
    }
}

#[test]
fn gpipe_moves_more_frames_for_the_same_work() {
    // 4 micro-batches per mini-batch ⇒ 4× the activation/gradient frames
    // of the async schedule on each boundary.
    let pd = run_pipeline(&zoo_spec(ScheduleKind::PipeDreamAsync)).unwrap();
    let gp = run_pipeline(&zoo_spec(ScheduleKind::parse("gpipe").unwrap())).unwrap();
    for (c_pd, c_gp) in pd.fwd_channels.iter().zip(&gp.fwd_channels) {
        assert_eq!(c_gp.frames, 4 * c_pd.frames, "forward frame ratio");
    }
}
