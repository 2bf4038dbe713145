//! Engine work and output pins: a few fixed cells whose steady
//! throughput, makespan and mean staleness (exact `f64` bits) and engine
//! step count ([`SimResult::events`]) are pinned at known-good values.
//!
//! A change to the engine's internals that should not change what it
//! computes must leave every pin exact. A change that adds engine work
//! shows up here as a different `events` count — an exact, noise-free
//! signal, unlike wall time.

use ap_cluster::dynamics::BgJobId;
use ap_cluster::{gbps, ClusterState, ClusterTopology, EventKind, GpuId, GpuKind};
use ap_cluster::{ResourceTimeline, ServerId};
use ap_models::{bert48, gpt2_medium, resnet50, vgg16, ModelProfile};
use ap_pipesim::{
    Calibration, Engine, EngineConfig, Framework, Partition, ScheduleKind, SimResult, Stage,
    SyncScheme,
};
use ap_planner::{pipedream_plan, PipeDreamView};

/// `(steady_throughput bits, events, makespan bits, mean_staleness bits)`.
type Pin = (u64, u64, u64, u64);

fn pin_of(r: &SimResult, skip: usize) -> Pin {
    (
        r.steady_throughput(skip).to_bits(),
        r.events,
        r.makespan.to_bits(),
        r.mean_staleness.to_bits(),
    )
}

fn cfg(schedule: ScheduleKind, calibration: Option<Calibration>) -> EngineConfig {
    EngineConfig {
        scheme: SyncScheme::RingAllReduce,
        framework: Framework::pytorch(),
        schedule,
        record_timeline: false,
        calibration,
    }
}

fn pipedream_seed(profile: &ModelProfile, state: &ClusterState, link_gbps: f64) -> Partition {
    let gpus: Vec<GpuId> = (0..state.topology.n_gpus()).map(GpuId).collect();
    pipedream_plan(
        profile,
        &gpus,
        PipeDreamView {
            bandwidth: gbps(link_gbps),
            gpu_flops: GpuKind::P100.peak_flops(),
        },
    )
}

/// One plan verification as the planning daemon runs it: the run length
/// and measurement window of its default `measure_iters`.
fn verify_cell(
    profile: &ModelProfile,
    partition: Partition,
    state: ClusterState,
    schedule: ScheduleKind,
    calibration: Option<Calibration>,
) -> Pin {
    let n = 10usize.max(3 * partition.in_flight).max(12);
    let r = Engine::new(
        profile,
        partition,
        state,
        ResourceTimeline::empty(),
        cfg(schedule, calibration),
    )
    .expect("valid partition")
    .run(n)
    .expect("engine run");
    pin_of(&r, n / 3)
}

fn gpt2_medium_24_gpu_pipedream() -> Pin {
    let profile = ModelProfile::of(&gpt2_medium());
    let state = ClusterState::new(ClusterTopology::single_switch(6, 4, GpuKind::P100, 25.0));
    let plan = pipedream_seed(&profile, &state, 25.0);
    verify_cell(&profile, plan, state, ScheduleKind::PipeDreamAsync, None)
}

fn bert48_dapple_with_background_jobs() -> Pin {
    let profile = ModelProfile::of(&bert48());
    let mut state = ClusterState::new(ClusterTopology::single_switch(4, 2, GpuKind::P100, 10.0));
    state.apply(&EventKind::JobArrive {
        id: BgJobId(1),
        gpus: vec![GpuId(0), GpuId(1)],
        net_bytes_per_sec: gbps(4.0),
    });
    let plan = pipedream_seed(&profile, &state, 10.0);
    verify_cell(
        &profile,
        plan,
        state,
        ScheduleKind::Dapple { micro_batches: 4 },
        None,
    )
}

fn resnet50_2bw_calibrated() -> Pin {
    let profile = ModelProfile::of(&resnet50());
    let state = ClusterState::new(ClusterTopology::paper_testbed(40.0));
    let plan = pipedream_seed(&profile, &state, 40.0);
    let calibration = Calibration {
        per_frame_s: 2e-4,
        per_byte_s: 1e-10,
        stage_overhead_s: 1e-3,
        stash_byte_s: 1e-11,
        compute_slots: 2,
    };
    verify_cell(
        &profile,
        plan,
        state,
        ScheduleKind::PipeDream2Bw,
        Some(calibration),
    )
}

fn vgg16_live_switch() -> Pin {
    let profile = ModelProfile::of(&vgg16());
    let l = profile.n_layers();
    let state = ClusterState::new(ClusterTopology::paper_testbed(25.0));
    let lopsided = Partition {
        stages: vec![
            Stage::new(0..2, vec![GpuId(0), GpuId(1), GpuId(2)]),
            Stage::new(2..l, vec![GpuId(3)]),
        ],
        in_flight: 6,
    };
    let balanced = Partition {
        stages: vec![
            Stage::new(0..l / 2, vec![GpuId(0), GpuId(1)]),
            Stage::new(l / 2..l, vec![GpuId(2), GpuId(3)]),
        ],
        in_flight: 6,
    };
    let mut timeline = ResourceTimeline::empty();
    timeline.push(0.5, EventKind::SetServerLinkGbps(ServerId(1), 10.0));
    let mut switched = false;
    let r = Engine::new(
        &profile,
        lopsided,
        state,
        timeline,
        cfg(ScheduleKind::PipeDreamAsync, None),
    )
    .expect("valid partition")
    .run_controlled(48, 8, |_, _, _, _| {
        (!std::mem::replace(&mut switched, true)).then(|| (balanced.clone(), 0.05, false))
    })
    .expect("controlled run");
    assert!(switched);
    pin_of(&r, 16)
}

fn fail_and_recover() -> Pin {
    let profile = ModelProfile::of(&resnet50());
    let l = profile.n_layers();
    let state = ClusterState::new(ClusterTopology::paper_testbed(25.0));
    let three = Partition {
        stages: vec![
            Stage::new(0..l / 2, vec![GpuId(0), GpuId(2)]),
            Stage::new(l / 2..l, vec![GpuId(4)]),
        ],
        in_flight: 4,
    };
    let two = Partition {
        stages: vec![
            Stage::new(0..l / 2, vec![GpuId(0)]),
            Stage::new(l / 2..l, vec![GpuId(4)]),
        ],
        in_flight: 3,
    };
    let mut timeline = ResourceTimeline::empty();
    timeline.push(1.0, EventKind::WorkerFail(GpuId(2)));
    timeline.push(4.0, EventKind::WorkerRecover(GpuId(2)));
    let (mut shrunk, mut regrown) = (false, false);
    let r = Engine::new(
        &profile,
        three.clone(),
        state,
        timeline,
        cfg(ScheduleKind::PipeDreamAsync, None),
    )
    .expect("valid partition")
    .run_controlled(60, 6, |state, _, _, _| {
        if !state.is_available(GpuId(2)) {
            return (!std::mem::replace(&mut shrunk, true)).then(|| (two.clone(), 0.02, false));
        }
        (shrunk && !std::mem::replace(&mut regrown, true)).then(|| (three.clone(), 0.02, false))
    })
    .expect("fail/recover run");
    assert!(
        shrunk && regrown,
        "the controller saw both the failure and the recovery"
    );
    pin_of(&r, 20)
}

/// Pinned at the values the engine produced before its event step was
/// made allocation-free; every later engine change must keep them exact
/// or say why they moved.
const PINS: [(&str, Pin); 5] = [
    (
        "gpt2_medium_24_gpu_pipedream",
        (
            0x4049be980360599e,
            5725,
            0x402eff9fc12f54aa,
            0x403587e6b74f0329,
        ),
    ),
    (
        "bert48_dapple_with_background_jobs",
        (
            0x4036b16281ef5570,
            1008,
            0x40731efc62efe690,
            0x0000000000000000,
        ),
    ),
    (
        "resnet50_2bw_calibrated",
        (
            0x407bba2ca1845a1c,
            340,
            0x4031ea7eb2ea0707,
            0x3fe425ed097b425f,
        ),
    ),
    (
        "vgg16_live_switch",
        (
            0x4066a9dc4e1854b8,
            275,
            0x4039c750b3344f12,
            0x40117829cbc14e5e,
        ),
    ),
    (
        "fail_and_recover",
        (
            0x407d2e5ba0a8befc,
            417,
            0x4030f3f0db9b1922,
            0x4005bbbbbbbbbbbc,
        ),
    ),
];

#[test]
fn engine_outputs_and_event_counts_match_their_pins() {
    let got = [
        gpt2_medium_24_gpu_pipedream(),
        bert48_dapple_with_background_jobs(),
        resnet50_2bw_calibrated(),
        vgg16_live_switch(),
        fail_and_recover(),
    ];
    for ((name, want), got) in PINS.iter().zip(got) {
        let show = |p: &Pin| {
            format!(
                "throughput {} events {} makespan {} staleness {}",
                f64::from_bits(p.0),
                p.1,
                f64::from_bits(p.2),
                f64::from_bits(p.3)
            )
        };
        assert_eq!(
            got,
            *want,
            "{name}: got {}, pinned {}",
            show(&got),
            show(want)
        );
    }
}
