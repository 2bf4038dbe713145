//! Cross-crate validation: the fast analytic model and the discrete-event
//! engine must agree on steady-state throughput where the analytic model's
//! assumptions hold exactly (uniform stages, ample in-flight depth).

use ap_cluster::gpu::GpuKind;
use ap_cluster::{ClusterState, ClusterTopology, GpuId, ResourceTimeline};
use ap_models::{resnet50, synthetic_uniform, vgg16, ModelProfile};
use ap_pipesim::{AnalyticModel, Engine, EngineConfig, Partition, Stage};

fn agreement(profile: &ModelProfile, partition: &Partition, link_gbps: f64) -> (f64, f64) {
    agreement_under(
        profile,
        partition,
        link_gbps,
        ap_pipesim::ScheduleKind::PipeDreamAsync,
    )
}

/// (analytic, engine) steady throughput of `partition` on the paper
/// testbed under `schedule`.
fn agreement_under(
    profile: &ModelProfile,
    partition: &Partition,
    link_gbps: f64,
    schedule: ap_pipesim::ScheduleKind,
) -> (f64, f64) {
    let topo = ClusterTopology::paper_testbed(link_gbps);
    let state = ClusterState::new(topo);
    let model = AnalyticModel {
        profile,
        scheme: ap_pipesim::SyncScheme::RingAllReduce,
        framework: ap_pipesim::Framework::pytorch(),
        schedule,
        calibration: None,
    };
    let analytic = model.throughput(partition, &state);
    let cfg = EngineConfig {
        schedule,
        ..EngineConfig::default()
    };
    let engine = Engine::new(
        profile,
        partition.clone(),
        state,
        ResourceTimeline::empty(),
        cfg,
    )
    .expect("valid partition")
    .run(3 * partition.in_flight.max(20))
    .expect("engine run")
    .steady_throughput(partition.in_flight);
    (analytic, engine)
}

#[test]
fn uniform_pipeline_agreement_within_ten_percent() {
    let model = synthetic_uniform(8, 4e9, 2e6, 4e6);
    let profile = ModelProfile::with_batch(&model, 32);
    let partition = Partition {
        stages: (0..4)
            .map(|s| Stage::new(s * 2..(s + 1) * 2, vec![GpuId(s)]))
            .collect(),
        in_flight: 8,
    };
    let (a, e) = agreement(&profile, &partition, 100.0);
    let rel = (a - e).abs() / e;
    assert!(rel < 0.10, "analytic {a:.1} vs engine {e:.1} ({rel:.2})");
}

#[test]
fn real_model_agreement_within_twenty_percent() {
    for m in [vgg16(), resnet50()] {
        let profile = ModelProfile::of(&m);
        let gpus: Vec<GpuId> = (0..10).map(GpuId).collect();
        let partition = ap_planner::pipedream_plan(
            &profile,
            &gpus,
            ap_planner::PipeDreamView {
                bandwidth: ap_cluster::gbps(25.0),
                gpu_flops: GpuKind::P100.peak_flops(),
            },
        );
        let (a, e) = agreement(&profile, &partition, 25.0);
        let rel = (a - e).abs() / e;
        assert!(
            rel < 0.20,
            "{}: analytic {a:.1} vs engine {e:.1} ({rel:.2})",
            m.name
        );
    }
}

#[test]
fn both_models_agree_on_partition_ranking() {
    // The planner's whole premise: if the analytic model prefers A to B by
    // a clear margin, the engine must not prefer B.
    let profile = ModelProfile::of(&resnet50());
    let good = Partition {
        stages: vec![
            Stage::new(0..45, (0..9).map(GpuId).collect()),
            Stage::new(45..52, vec![GpuId(9)]),
        ],
        in_flight: 18,
    };
    let bad = Partition {
        stages: vec![
            Stage::new(0..4, (0..9).map(GpuId).collect()),
            Stage::new(4..52, vec![GpuId(9)]),
        ],
        in_flight: 18,
    };
    let (a_good, e_good) = agreement(&profile, &good, 25.0);
    let (a_bad, e_bad) = agreement(&profile, &bad, 25.0);
    assert!(
        a_good > 1.5 * a_bad,
        "analytic must separate: {a_good} vs {a_bad}"
    );
    assert!(
        e_good > 1.5 * e_bad,
        "engine must separate: {e_good} vs {e_bad}"
    );
}

/// The analytic-vs-engine envelope declared in DESIGN.md §10: on every
/// draw, engine / analytic steady throughput lies inside the band of its
/// schedule family. Flush schedules get the wider band: the closed form
/// prices Chimera's halved bubble, which the engine does not execute,
/// and spreads a mini-batch over all replicas of a stage even when it
/// has fewer micro-batches than replicas.
const ASYNC_ENVELOPE: (f64, f64) = (0.45, 1.25);
const FLUSH_ENVELOPE: (f64, f64) = (0.2, 1.5);

#[test]
fn seeded_draws_stay_inside_the_declared_envelope() {
    use ap_pipesim::ScheduleKind;
    let models = [
        vgg16(),
        resnet50(),
        ap_models::alexnet(),
        ap_models::bert48(),
    ];
    let mut rng = ap_rng::Rng::seed_from_u64(13);
    let mut outside = Vec::new();
    for _ in 0..60 {
        let m = &models[rng.gen_range(0..models.len())];
        let profile = ModelProfile::of(m);
        let link = 5.0 + 95.0 * rng.f64();
        let n_gpus = rng.gen_range(2..=10usize);
        let gpus: Vec<GpuId> = (0..n_gpus).map(GpuId).collect();
        let mut partition = if rng.f64() < 0.5 {
            let view = ap_planner::PipeDreamView {
                bandwidth: ap_cluster::gbps(link),
                gpu_flops: GpuKind::P100.peak_flops(),
            };
            ap_planner::pipedream_plan(&profile, &gpus, view)
        } else {
            ap_planner::uniform_plan(&profile, rng.gen_range(1..=n_gpus), &gpus)
        };
        partition.in_flight = partition.default_in_flight();
        let kind = ScheduleKind::zoo()[rng.gen_range(0..5usize)];
        let (a, e) = agreement_under(&profile, &partition, link, kind);
        let (lo, hi) = if kind.is_async() {
            ASYNC_ENVELOPE
        } else {
            FLUSH_ENVELOPE
        };
        if !(lo..=hi).contains(&(e / a)) {
            let cell = format!("{} {} {link:.0} Gbps", m.name, kind.id());
            outside.push(format!("{cell} {}: {:.3}", partition.summary(), e / a));
        }
    }
    assert!(outside.is_empty(), "outside the envelope: {outside:#?}");
}
