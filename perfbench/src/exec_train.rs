//! `exec-train`: real pipeline-parallel training with ap-exec.
//!
//! One op is one mini-batch. A run is `ap_exec::run_pipeline` on a
//! 2-stage MLP (one stage thread per core) under PipeDream async 1F1B,
//! with unthrottled channels (so it times the program, not sleeps) and
//! one live §4.4 migration of a layer between the stages half-way
//! through. Runs repeat back to back until the loop time is spent; each
//! repetition trains the same model on the same data, so its losses must
//! be bit-identical to the first's. This is the only workload with real
//! tensor math, frame encoding and byte channels.

use std::time::Instant;

use ap_exec::codec::{decode_view, encode, Frame, FrameView};
use ap_exec::runtime::{run_pipeline, ExecResult, ExecSpec, SwitchSpec};
use ap_exec::ScheduleKind;
use ap_nn::{ActKind, Matrix};
use ap_rng::Rng;

use crate::report::{median, Run};
use crate::{trace, LoopClock, Opts};

/// Layer widths: 20 layers, each small enough that every matmul stays
/// below ap-nn's row-parallel cutoff, so each stage runs on exactly one
/// thread.
const SIZES: [usize; 21] = [
    128, 192, 192, 192, 192, 192, 192, 192, 192, 192, 192, 192, 192, 192, 192, 192, 192, 192, 192,
    192, 128,
];
const BATCH: usize = 32;
/// Mini-batches per run.
const TOTAL: u64 = 120;
const IN_FLIGHT: usize = 2;
/// Stage boundary before and after the migration.
const CUT: usize = 10;
const CUT_AFTER: usize = 11;
/// Mini-batches of a set-up run (spawn, weight init, pipeline fill).
const WARM_UP: u64 = 12;
const SETUPS: usize = 5;
/// Runs of each traced-pass arm.
const TRACED_RUNS: usize = 4;
/// Losses averaged at each end for the quality ratio.
const LOSS_WINDOW: usize = 8;
/// Encode/decode repetitions per frame shape in the traced pass.
const CODEC_REPS: usize = 2000;

fn spec(seed: u64) -> ExecSpec {
    ExecSpec {
        sizes: SIZES.to_vec(),
        act: ActKind::Tanh,
        seed,
        batch: BATCH,
        lr: 0.01,
        cuts: vec![CUT],
        schedule: ScheduleKind::PipeDreamAsync,
        in_flight: IN_FLIGHT,
        total: TOTAL,
        bytes_per_sec: None,
        distinct_batches: 8,
        switch: Some(SwitchSpec {
            at_mb: TOTAL / 2,
            new_cuts: vec![CUT_AFTER],
        }),
        record_timeline: false,
    }
}

fn run_once(spec: &ExecSpec) -> Result<ExecResult, String> {
    run_pipeline(spec).map_err(|e| format!("run_pipeline: {e}"))
}

/// Latency of each mini-batch after the first: the gap between
/// consecutive completions at stage 0. The first completion also pays
/// thread spawn, weight init and pipeline fill, which set-up measures.
fn gaps(r: &ExecResult) -> impl Iterator<Item = f64> + '_ {
    r.completion_times.windows(2).map(|w| w[1] - w[0])
}

fn loss_ratio(losses: &[f64]) -> f64 {
    let w = LOSS_WINDOW.min(losses.len());
    let head: f64 = losses[..w].iter().sum();
    let tail: f64 = losses[losses.len() - w..].iter().sum();
    head / tail
}

/// Check one run against the reference run of the same spec.
fn check_run(r: &ExecResult, reference: &ExecResult, run: &mut Run) {
    run.check(r.completed == TOTAL, || {
        format!("run completed {} of {TOTAL} mini-batches", r.completed)
    });
    run.check(r.losses.iter().all(|l| l.is_finite()), || {
        "non-finite training loss".to_string()
    });
    let same = r.losses.len() == reference.losses.len()
        && r.losses
            .iter()
            .zip(&reference.losses)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    run.check(same, || {
        "losses differ between runs of one spec".to_string()
    });
    run.check(r.migration.is_some(), || {
        "the migration did not run".to_string()
    });
}

fn setup(seed: u64, run: &mut Run) -> Result<(), String> {
    for _ in 0..SETUPS {
        let warm = ExecSpec {
            total: WARM_UP,
            switch: None,
            ..spec(seed)
        };
        let (r, s) = crate::timed_setup(|| run_once(&warm));
        let r = r?;
        run.setup_s.push(s);
        run.check(r.completed == WARM_UP, || {
            "warm-up run incomplete".to_string()
        });
    }
    Ok(())
}

/// End-to-end run (or, with `--trace 1`, the traced pass).
pub fn run(opts: &Opts) -> Result<Run, String> {
    let mut run = Run::default();
    setup(opts.seed, &mut run)?;
    let spec = spec(opts.seed);
    run.facts.push(("stages".into(), 2.0));
    run.facts.push(("stage_threads".into(), 2.0));
    if opts.traced {
        return traced(opts.seed, &spec, run);
    }

    let mut clock = LoopClock::sampled();
    let reference = run_once(&spec)?;
    let mut runs = 1u64;
    run.latencies_s.extend(gaps(&reference));
    clock.mark(run.latencies_s.len());
    while clock.seconds() < opts.seconds.as_secs_f64() || runs < 2 {
        let r = run_once(&spec)?;
        clock.off(|| check_run(&r, &reference, &mut run));
        run.latencies_s.extend(gaps(&r));
        clock.mark(run.latencies_s.len());
        runs += 1;
    }
    run.loop_s = clock.seconds();
    (run.windows, run.rss_samples) = clock.finish(run.latencies_s.len());
    check_run(&reference, &reference, &mut run);
    run.attempted = run.latencies_s.len() as u64;
    run.quality = loss_ratio(&reference.losses);
    let m = reference.migration.as_ref();
    run.counter("completed_per_run", reference.completed as f64);
    run.counter("wire_bytes_per_run", reference.total_wire_bytes() as f64);
    run.counter(
        "frames_per_run",
        reference
            .fwd_channels
            .iter()
            .chain(&reference.bwd_channels)
            .map(|c| c.frames)
            .sum::<u64>() as f64,
    );
    run.counter(
        "peak_stage_bytes",
        reference
            .peak_stage_bytes
            .iter()
            .copied()
            .max()
            .unwrap_or(0) as f64,
    );
    run.counter(
        "migration_wire_bytes",
        m.map_or(0.0, |m| m.wire_bytes as f64),
    );
    run.counter(
        "migration_versions_moved",
        m.map_or(0.0, |m| m.versions_moved as f64),
    );
    run.mix("runs", runs as f64);
    run.mix("mini_batches_per_run", TOTAL as f64);
    Ok(run)
}

/// Mean encode and decode time of `frame`, microseconds, each call in a
/// span.
fn codec_us(frame: &Frame) -> (f64, f64) {
    let mut bytes = Vec::new();
    let t = Instant::now();
    for _ in 0..CODEC_REPS {
        bytes = trace::span("codec.encode", || encode(std::hint::black_box(frame)));
    }
    let enc = t.elapsed().as_secs_f64() / CODEC_REPS as f64;
    let t = Instant::now();
    for _ in 0..CODEC_REPS {
        let m = trace::span("codec.decode", || match decode_view(&bytes) {
            Ok(FrameView::Act { data, .. }) | Ok(FrameView::Grad { data, .. }) => {
                Some(data.to_matrix())
            }
            _ => None,
        });
        assert!(std::hint::black_box(m).is_some(), "frame decodes");
    }
    let dec = t.elapsed().as_secs_f64() / CODEC_REPS as f64;
    (enc * 1e6, dec * 1e6)
}

fn traced(seed: u64, spec: &ExecSpec, mut run: Run) -> Result<Run, String> {
    let reference = run_once(spec)?;
    // Untraced and traced runs alternate, and alternate which goes first,
    // so drift on the host hits both arms.
    let mut plain_s = 0.0;
    let mut results = Vec::new();
    let clock = LoopClock::start();
    trace::start();
    for op in 0..TRACED_RUNS {
        for arm in [op % 2, 1 - op % 2] {
            if arm == 0 {
                let t = Instant::now();
                let r = trace::suspended(|| run_once(spec))?;
                plain_s += t.elapsed().as_secs_f64();
                check_run(&r, &reference, &mut run);
            } else {
                trace::set_op(op as u64);
                let r = trace::span("op", || run_once(spec))?;
                check_run(&r, &reference, &mut run);
                run.latencies_s.extend(gaps(&r));
                results.push(r);
            }
        }
    }
    // The boundary frames of this spec: activations forward, gradients
    // back, `BATCH × width` at the cut.
    let mut rng = Rng::seed_from_u64(7);
    let width = SIZES[CUT];
    let data = Matrix::from_vec(
        BATCH,
        width,
        (0..BATCH * width)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect(),
    );
    let (enc_act, dec_act) = codec_us(&Frame::Act {
        mb: 1,
        data: data.clone(),
    });
    let (enc_grad, dec_grad) = codec_us(&Frame::Grad { mb: 1, data });
    let tr = trace::finish();
    run.steal_share = clock.steal_share();
    crate::write_trace("exec-train", seed, &tr);

    let traced_s: f64 = tr.durations("op").iter().sum();
    run.loop_s = traced_s;
    run.attempted = run.latencies_s.len() as u64;
    let completed: u64 = results.iter().map(|r| r.completed).sum();
    let wall: f64 = results.iter().map(|r| r.wall_seconds).sum();
    let stage_s: f64 = results
        .iter()
        .map(|r| r.wall_seconds * r.n_stages as f64)
        .sum();
    let fwd: f64 = results.iter().flat_map(|r| &r.times.fwd_sum).sum();
    let bwd: f64 = results.iter().flat_map(|r| &r.times.bwd_sum).sum();
    let frames: u64 = results
        .iter()
        .flat_map(|r| r.fwd_channels.iter().chain(&r.bwd_channels))
        .map(|c| c.frames)
        .sum();
    let codec_s = frames as f64 * 0.5 * (enc_act + dec_act + enc_grad + dec_grad) * 1e-6;

    // The single-worker baseline: the same model and data on one stage.
    let single = ExecSpec {
        cuts: Vec::new(),
        switch: None,
        ..spec.clone()
    };
    let one = run_once(&single)?;
    let r0 = &results[0];
    run.layer("exec.stage_busy_share", (fwd + bwd) / stage_s.max(1e-12));
    run.layer("nn.fwd_us", fwd / completed.max(1) as f64 * 1e6);
    run.layer("nn.bwd_us", bwd / completed.max(1) as f64 * 1e6);
    run.layer("codec.encode_us", 0.5 * (enc_act + enc_grad));
    run.layer("codec.decode_us", 0.5 * (dec_act + dec_grad));
    run.layer(
        "exec.wire_bytes_per_op",
        r0.total_wire_bytes() as f64 / r0.completed.max(1) as f64,
    );
    run.layer(
        "exec.peak_stage_bytes",
        r0.peak_stage_bytes.iter().copied().max().unwrap_or(0) as f64,
    );
    run.layer(
        "exec.migration_s",
        median(
            &results
                .iter()
                .filter_map(|r| r.migration.as_ref().map(|m| m.switch_seconds))
                .collect::<Vec<_>>(),
        ),
    );
    run.layer(
        "exec.pipeline_speedup",
        (completed as f64 / wall.max(1e-12)) / one.throughput().max(1e-12),
    );
    run.layer("trace.overhead", traced_s / plain_s.max(1e-12) - 1.0);
    run.layer(
        "trace.unaccounted_share",
        (1.0 - (fwd + bwd + codec_s) / stage_s.max(1e-12)).max(0.0),
    );
    run.quality = loss_ratio(&reference.losses);
    Ok(run)
}
