//! `adapt-dynamic`: the AutoPipe controller adapting a running job.
//!
//! One op is one scenario replayed through `run_dynamic_scenario` with a
//! live controller (analytic scorer, RL arbiter, fine-grained switching)
//! on the paper testbed (5 servers × 2 P100). Scenarios are seeded
//! variations of three kinds — bandwidth steps, background jobs landing
//! on part of the GPUs, and a worker failing and recovering — across
//! resnet50, vgg16 and bert48. Set-up trains the arbiter offline and
//! anchors every scenario's changes to iterations of the static plan.
//! The timed loop cycles through the scenario pool; quality compares
//! each scenario's mean throughput with static PipeDream's, computed off
//! the clock.

use std::time::Instant;

use ap_cluster::dynamics::BgJobId;
use ap_cluster::ResourceTimeline;
use ap_cluster::{gbps, ClusterState, ClusterTopology, DetectorConfig, EventKind, GpuId, GpuKind};
use ap_models::{bert48, resnet50, vgg16, ModelProfile};
use ap_pipesim::{Engine, EngineConfig, Partition};
use ap_planner::{pipedream_plan, PipeDreamView};
use ap_rng::Rng;
use autopipe::arbiter::{default_episode_sampler, Arbiter, ArbiterMode};
use autopipe::controller::{
    run_dynamic_scenario, AutoPipeConfig, AutoPipeController, Decision, DecisionEvent,
    ScenarioResult, Scorer,
};
use autopipe::SwitchMode;

use crate::report::Run;
use crate::{trace, LoopClock, Opts};

const KINDS: [&str; 3] = ["bandwidth", "background", "failure"];
const MODELS: [&str; 3] = ["resnet50", "vgg16", "bert48"];
/// Starting line rates, Gbps: every kind × model runs at each.
const LINKS: [f64; 2] = [10.0, 25.0];
/// Seeded variants of each kind × model × line rate.
const VARIANTS: usize = 6;
/// Iterations per scenario.
const ITERATIONS: usize = 150;
/// Arbiter training, as in the paper-figure runs.
const ARBITER_EPISODES: usize = 4000;
const SETUPS: usize = 3;
/// Scenarios of each traced-pass arm (one pass over the pool).
const TRACED_OPS: usize = KINDS.len() * MODELS.len() * LINKS.len() * VARIANTS;

fn profile_of(model: &str) -> ModelProfile {
    ModelProfile::of(&match model {
        "resnet50" => resnet50(),
        "vgg16" => vgg16(),
        _ => bert48(),
    })
}

/// The controller configuration of the paper's dynamic figures.
fn controller_config(seed: u64) -> AutoPipeConfig {
    AutoPipeConfig {
        check_every: 6,
        horizon_iterations: 60.0,
        detector: DetectorConfig {
            threshold: 0.12,
            persistence: 1,
        },
        switch_mode: SwitchMode::FineGrained,
        profiler_noise: 0.01,
        moves_per_decision: 4,
        seed,
        ..AutoPipeConfig::default()
    }
}

fn engine_config(cfg: &AutoPipeConfig) -> EngineConfig {
    EngineConfig {
        scheme: cfg.scheme,
        framework: cfg.framework,
        schedule: cfg.schedule,
        record_timeline: false,
        calibration: cfg.calibration,
    }
}

/// One seeded scenario.
struct Scenario {
    kind: usize,
    model: usize,
    profile: ModelProfile,
    topo: ClusterTopology,
    timeline: ResourceTimeline,
    init: Partition,
    cfg: AutoPipeConfig,
}

/// Completion times of iterations `marks` under the static plan: where
/// "a change at iteration k" lands on the simulated clock.
fn iteration_times(
    profile: &ModelProfile,
    topo: &ClusterTopology,
    plan: &Partition,
    cfg: &AutoPipeConfig,
    marks: &[usize],
) -> Result<Vec<f64>, String> {
    let engine = Engine::new(
        profile,
        plan.clone(),
        ClusterState::new(topo.clone()),
        ResourceTimeline::empty(),
        engine_config(cfg),
    )
    .map_err(|e| format!("baseline engine: {e}"))?;
    let r = engine
        .run(marks.iter().copied().max().unwrap_or(1) + 1)
        .map_err(|e| format!("baseline pre-run: {e}"))?;
    Ok(marks
        .iter()
        .map(|&k| r.iterations[k.min(r.iterations.len() - 1)].finish)
        .collect())
}

fn build(
    kind: usize,
    model: usize,
    link: f64,
    rng: &mut Rng,
    seed: u64,
) -> Result<Scenario, String> {
    let topo = ClusterTopology::paper_testbed(link);
    let n = topo.n_gpus();
    let profile = profile_of(MODELS[model]);
    let gpus: Vec<GpuId> = (0..n).map(GpuId).collect();
    let init = pipedream_plan(
        &profile,
        &gpus,
        PipeDreamView {
            bandwidth: gbps(link),
            gpu_flops: GpuKind::P100.peak_flops(),
        },
    );
    let cfg = controller_config(seed);
    let first = rng.gen_range(30..55usize);
    let second = first + rng.gen_range(30..55usize);
    let times = iteration_times(&profile, &topo, &init, &cfg, &[first, second])?;
    let mut timeline = ResourceTimeline::empty();
    match kind {
        0 => {
            let rates = [5.0, 10.0, 25.0, 40.0, 100.0];
            for t in &times {
                timeline.push(
                    *t,
                    EventKind::SetAllLinksGbps(rates[rng.gen_range(0..5usize)]),
                );
            }
        }
        1 => {
            for (j, t) in times.iter().enumerate() {
                let lo = rng.gen_range(0..n / 2);
                let hi = lo + n / 2;
                timeline.push(
                    *t,
                    EventKind::JobArrive {
                        id: BgJobId(21 + j as u64),
                        gpus: (lo..hi).map(GpuId).collect(),
                        net_bytes_per_sec: gbps(link) * [0.0, 0.25][rng.gen_range(0..2usize)],
                    },
                );
            }
        }
        _ => {
            // A replica of a replicated stage: the static plan survives
            // by shedding it, so the baseline finishes too.
            let replicas: Vec<GpuId> = init
                .stages
                .iter()
                .filter(|st| st.workers.len() > 1)
                .flat_map(|st| st.workers.iter().copied())
                .collect();
            let victim = replicas[rng.gen_range(0..replicas.len())];
            timeline.push(times[0], EventKind::WorkerFail(victim));
            timeline.push(times[1], EventKind::WorkerRecover(victim));
        }
    }
    Ok(Scenario {
        kind,
        model,
        profile,
        topo,
        timeline,
        init,
        cfg,
    })
}

/// Set-up: train the arbiter and build the scenario pool.
fn setup(seed: u64) -> Result<(Arbiter, Vec<Scenario>), String> {
    let mut arbiter = Arbiter::new(17);
    arbiter.train_offline(default_episode_sampler, ARBITER_EPISODES, 29);
    let mut rng = Rng::stream(seed, 0);
    let mut pool = Vec::new();
    for kind in 0..KINDS.len() {
        for model in 0..MODELS.len() {
            for (l, &link) in LINKS.iter().enumerate() {
                for v in 0..VARIANTS {
                    let s = seed
                        ^ ((kind * 64 + model * 16 + l * 4 + v) as u64).wrapping_mul(0x9e37_79b9);
                    pool.push(build(kind, model, link, &mut rng, s)?);
                }
            }
        }
    }
    Ok((arbiter, pool))
}

fn controller<'a>(s: &'a Scenario, arbiter: &Arbiter) -> Result<AutoPipeController<'a>, String> {
    AutoPipeController::new(
        &s.profile,
        s.init.clone(),
        Scorer::Analytic,
        ArbiterMode::Rl(arbiter.clone()),
        s.cfg.clone(),
    )
    .map_err(|e| format!("controller: {e}"))
}

fn adapt(s: &Scenario, arbiter: &Arbiter) -> Result<ScenarioResult, String> {
    let mut ctrl = controller(s, arbiter)?;
    run_dynamic_scenario(
        &s.profile,
        &s.topo,
        &s.timeline,
        s.init.clone(),
        Some(&mut ctrl),
        &s.cfg,
        ITERATIONS,
    )
    .map_err(|e| format!("scenario: {e}"))
}

fn static_baseline(s: &Scenario) -> Result<f64, String> {
    run_dynamic_scenario(
        &s.profile,
        &s.topo,
        &s.timeline,
        s.init.clone(),
        None,
        &s.cfg,
        ITERATIONS,
    )
    .map(|r| r.mean_throughput)
    .map_err(|e| format!("static scenario: {e}"))
}

/// The seeded order the loop visits the pool in, repeated.
fn order(seed: u64, n: usize) -> Vec<usize> {
    let mut o: Vec<usize> = (0..n).collect();
    Rng::stream(seed, 1).shuffle(&mut o);
    o
}

/// End-to-end run (or, with `--trace 1`, the traced pass).
pub fn run(opts: &Opts) -> Result<Run, String> {
    let mut run = Run::default();
    let mut built = None;
    for _ in 0..if opts.traced { 1 } else { SETUPS } {
        let (b, s) = crate::timed_setup(|| setup(opts.seed));
        run.setup_s.push(s);
        built = Some(b?);
    }
    let (arbiter, pool) = built.expect("at least one set-up");
    let order = order(opts.seed, pool.len());
    run.facts.push(("scenarios".into(), pool.len() as f64));
    run.facts
        .push(("iterations_per_scenario".into(), ITERATIONS as f64));

    // The first pass over the pool is the reference every later visit of
    // a scenario must reproduce bit for bit.
    let mut reference: Vec<Option<f64>> = vec![None; pool.len()];
    let mut first: Vec<Option<ScenarioResult>> = (0..pool.len()).map(|_| None).collect();
    let mut clock = LoopClock::sampled();
    let mut op = 0usize;
    let target = if opts.traced { TRACED_OPS } else { pool.len() };
    while op < target || (!opts.traced && clock.seconds() < opts.seconds.as_secs_f64()) {
        let k = order[op % pool.len()];
        let t = Instant::now();
        let r = adapt(&pool[k], &arbiter)?;
        run.latencies_s.push(t.elapsed().as_secs_f64());
        clock.mark(run.latencies_s.len());
        clock.off(|| {
            run.check(r.speed_series.len() == ITERATIONS, || {
                format!(
                    "scenario {k} completed {} of {ITERATIONS} iterations",
                    r.speed_series.len()
                )
            });
            match reference[k] {
                None => {
                    reference[k] = Some(r.mean_throughput);
                    first[k] = Some(r);
                }
                Some(m) => run.check(m.to_bits() == r.mean_throughput.to_bits(), || {
                    format!("scenario {k} replayed differently")
                }),
            }
        });
        op += 1;
    }
    run.loop_s = clock.seconds();
    (run.windows, run.rss_samples) = clock.finish(run.latencies_s.len());
    run.attempted = run.latencies_s.len() as u64;

    // Quality, off the clock: geometric mean over the pool of AutoPipe
    // over static PipeDream.
    let mut log_sum = 0.0;
    for (k, s) in pool.iter().enumerate() {
        let pd = static_baseline(s)?;
        let ap = reference[k].ok_or("scenario never ran")?;
        log_sum += (ap / pd).ln();
    }
    run.quality = (log_sum / pool.len() as f64).exp();

    let results: Vec<&ScenarioResult> = first.iter().flatten().collect();
    let journal_count = |pred: &dyn Fn(&DecisionEvent) -> bool| -> f64 {
        results
            .iter()
            .flat_map(|r| &r.journal.records)
            .filter(|rec| pred(&rec.event))
            .count() as f64
    };
    let switches: f64 = results.iter().map(|r| r.switches.len() as f64).sum();
    let verdicts = journal_count(&|e| matches!(e, DecisionEvent::ArbiterVerdict { .. }));
    let approved =
        journal_count(&|e| matches!(e, DecisionEvent::ArbiterVerdict { approved: true, .. }));
    let reverts = journal_count(&|e| matches!(e, DecisionEvent::Reverted { .. }));
    let scored: f64 = results
        .iter()
        .flat_map(|r| &r.journal.records)
        .map(|rec| match rec.event {
            DecisionEvent::CandidatesScored { scored, .. } => scored as f64,
            _ => 0.0,
        })
        .sum();
    let pause: f64 = results
        .iter()
        .flat_map(|r| &r.switches)
        .map(|(_, p)| p)
        .sum();
    for (k, name) in KINDS.iter().enumerate() {
        let n = pool.iter().filter(|s| s.kind == k).count();
        run.mix(&format!("{name}_scenarios"), n as f64);
    }
    for (m, name) in MODELS.iter().enumerate() {
        let n = pool.iter().filter(|s| s.model == m).count();
        run.mix(&format!("{name}_scenarios"), n as f64);
    }
    run.mix(
        "passes_over_pool",
        run.latencies_s.len() as f64 / pool.len() as f64,
    );

    if !opts.traced {
        run.counter("switches", switches);
        run.counter("verdicts", verdicts);
        run.counter("approved", approved);
        run.counter("reverts", reverts);
        run.counter("candidates_scored", scored);
        return Ok(run);
    }

    // Traced arm: the same scenarios through `Engine::run_controlled`
    // with each `observe_and_decide_at` call in a span, alternating with
    // untraced replays of the same scenario (and which goes first).
    let clock = LoopClock::start();
    trace::start();
    let mut decisions = 0u64;
    let mut traced_s = 0.0;
    let mut plain_s = 0.0;
    for (op, &k) in order.iter().enumerate().take(TRACED_OPS) {
        let s = &pool[k];
        for arm in [op % 2, 1 - op % 2] {
            let t = Instant::now();
            if arm == 0 {
                trace::suspended(|| adapt(s, &arbiter))?;
                plain_s += t.elapsed().as_secs_f64();
                continue;
            }
            trace::set_op(op as u64);
            let mean = trace::span("op", || traced_scenario(s, &arbiter, &mut decisions))?;
            traced_s += t.elapsed().as_secs_f64();
            run.check(
                reference[k].map(f64::to_bits) == Some(mean.to_bits()),
                || format!("scenario {k}: traced replay differs from run_dynamic_scenario"),
            );
        }
    }
    let tr = trace::finish();
    // Per-layer times scale by the traced section's steal share, not by
    // the windows of the untraced first pass.
    run.steal_share = clock.steal_share();
    run.windows.clear();
    crate::write_trace("adapt-dynamic", opts.seed, &tr);
    let stats = tr.stats();
    let decide = stats.get("controller.decide").copied().unwrap_or_default();
    let ops = TRACED_OPS as f64;
    run.layer("controller.decide_us", decide.mean_us());
    let engine = stats.get("engine.run").copied().unwrap_or_default();
    run.layer(
        "engine.sim_us_per_iter",
        engine.self_s / (ops * ITERATIONS as f64) * 1e6,
    );
    run.layer("controller.decisions", decisions as f64 / ops);
    run.layer("controller.candidates_scored", scored / ops);
    run.layer("controller.switches", switches / ops);
    run.layer("controller.reverts", reverts / ops);
    run.layer("arbiter.approve_share", approved / verdicts.max(1.0));
    run.layer("switching.pause_s", pause / ops);
    run.layer("trace.overhead", traced_s / plain_s.max(1e-12) - 1.0);
    run.layer("trace.unaccounted_share", tr.unaccounted_share("op"));
    Ok(run)
}

/// One scenario through `Engine::run_controlled` with the decision call
/// in a span, mirroring `run_dynamic_scenario`. Returns mean throughput.
fn traced_scenario(s: &Scenario, arbiter: &Arbiter, decisions: &mut u64) -> Result<f64, String> {
    let mut ctrl = controller(s, arbiter)?;
    let engine = Engine::new(
        &s.profile,
        s.init.clone(),
        ClusterState::new(s.topo.clone()),
        s.timeline.clone(),
        engine_config(&s.cfg),
    )
    .map_err(|e| format!("engine: {e}"))?;
    let global_stall = s.cfg.switch_mode == SwitchMode::StopRestart;
    let mut result = trace::span("engine.run", || {
        engine.run_controlled(
            ITERATIONS,
            s.cfg.check_every,
            |state, done, now, measured| {
                *decisions += 1;
                match trace::span("controller.decide", || {
                    ctrl.observe_and_decide_at(state, measured, done, now)
                }) {
                    Decision::Keep => None,
                    Decision::Switch {
                        partition,
                        pause_seconds,
                    } => Some((partition, pause_seconds, global_stall)),
                }
            },
        )
    })
    .map_err(|e| format!("run_controlled: {e}"))?;
    result.iterations.truncate(ITERATIONS);
    let total = result
        .iterations
        .last()
        .map(|r| r.finish)
        .unwrap_or(result.makespan)
        .max(1e-12);
    Ok(result.iterations.len() as f64 * s.profile.batch as f64 / total)
}
