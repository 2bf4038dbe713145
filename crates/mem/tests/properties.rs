//! Property suite over the schedule zoo: the modeled peak memory must be
//! schedule-monotone in the ways the papers promise.
//!
//! * Deeper in-flight admission can never *reduce* the modeled footprint
//!   (PipeDream stashes one version per active mini-batch; sync kinds
//!   ignore the knob, so equality is allowed).
//! * Recompute (activation discard) never prices above retention.
//! * PipeDream-2BW's double buffering holds exactly two weight versions
//!   no matter how deep the pipeline runs.

use ap_cluster::GpuId;
use ap_mem::{footprint, MemoryModel, StageFootprint};
use ap_models::{bert48, vgg16, ModelProfile};
use ap_pipesim::{Partition, ScheduleKind, Stage};

fn partitions(n_layers: usize, in_flight: usize) -> Vec<Partition> {
    vec![
        Partition::single_stage(n_layers, vec![GpuId(0)]),
        Partition {
            stages: vec![
                Stage::new(0..n_layers / 2, vec![GpuId(0)]),
                Stage::new(n_layers / 2..n_layers, vec![GpuId(1)]),
            ],
            in_flight,
        },
        Partition {
            stages: vec![
                Stage::new(0..n_layers / 3, vec![GpuId(0)]),
                Stage::new(n_layers / 3..2 * n_layers / 3, vec![GpuId(1)]),
                Stage::new(2 * n_layers / 3..n_layers, vec![GpuId(2)]),
            ],
            in_flight,
        },
    ]
    .into_iter()
    .map(|mut p| {
        p.in_flight = in_flight;
        p
    })
    .collect()
}

fn profiles() -> Vec<ModelProfile> {
    vec![ModelProfile::of(&vgg16()), ModelProfile::of(&bert48())]
}

fn totals(f: &[StageFootprint]) -> Vec<f64> {
    f.iter().map(StageFootprint::total).collect()
}

#[test]
fn activation_bytes_are_monotone_in_in_flight_across_the_zoo() {
    let model = MemoryModel::default();
    for profile in profiles() {
        for kind in ScheduleKind::zoo() {
            for pi in 0..3 {
                let mut prev: Option<Vec<f64>> = None;
                for in_flight in 1..=6 {
                    let part = partitions(profile.n_layers(), in_flight)
                        .into_iter()
                        .nth(pi)
                        .unwrap();
                    let f = footprint(&profile, &part, kind, &model);
                    let acts: Vec<f64> = f.iter().map(|s| s.activation_bytes).collect();
                    let tot = totals(&f);
                    if let Some(p) = prev {
                        for (s, (a, b)) in p.iter().zip(&tot).enumerate() {
                            assert!(
                                b + 1e-6 >= *a,
                                "{} {} stage {s}: total shrank {a} -> {b} at depth {in_flight}",
                                profile.name,
                                kind.id()
                            );
                        }
                    }
                    for (s, a) in acts.iter().enumerate() {
                        assert!(
                            *a >= 0.0,
                            "{} {} stage {s}: negative activations",
                            profile.name,
                            kind.id()
                        );
                    }
                    prev = Some(tot);
                }
            }
        }
    }
}

#[test]
fn recompute_discard_never_prices_above_retention() {
    let discard = MemoryModel::default();
    let retain = MemoryModel {
        recompute_discard: false,
        ..MemoryModel::default()
    };
    for profile in profiles() {
        for kind in ScheduleKind::zoo() {
            for part in partitions(profile.n_layers(), 4) {
                let d = footprint(&profile, &part, kind, &discard);
                let r = footprint(&profile, &part, kind, &retain);
                for (ds, rs) in d.iter().zip(&r) {
                    assert!(
                        ds.total() <= rs.total() + 1e-6,
                        "{} {} stage {}: discard {} > retain {}",
                        profile.name,
                        kind.id(),
                        ds.stage,
                        ds.total(),
                        rs.total()
                    );
                }
            }
        }
    }
}

#[test]
fn two_bw_weight_memory_is_two_versions_flat_regardless_of_depth() {
    let model = MemoryModel::default();
    for profile in profiles() {
        for in_flight in [2, 4, 8, 16] {
            for part in partitions(profile.n_layers(), in_flight) {
                let f = footprint(&profile, &part, ScheduleKind::PipeDream2Bw, &model);
                let n = f.len();
                for s in &f {
                    let cap = if s.stage + 1 == n { 1 } else { 2 };
                    assert!(
                        s.weight_versions <= cap,
                        "{} depth {in_flight} stage {}: {} versions",
                        profile.name,
                        s.stage,
                        s.weight_versions
                    );
                    assert!(s.stash_bytes <= s.weight_bytes + 1e-6);
                }
                // The stashing stages really do hold the second version.
                if n > 1 && in_flight >= 2 {
                    assert_eq!(f[0].weight_versions, 2, "{}", profile.name);
                }
            }
        }
    }
}

#[test]
fn async_stash_grows_linearly_while_two_bw_stays_flat() {
    let model = MemoryModel::default();
    let profile = ModelProfile::of(&bert48());
    let l = profile.n_layers();
    let mut prev_async = 0.0;
    for in_flight in 2..=6 {
        let part = Partition {
            stages: vec![
                Stage::new(0..l / 2, vec![GpuId(0)]),
                Stage::new(l / 2..l, vec![GpuId(1)]),
            ],
            in_flight,
        };
        let a = footprint(&profile, &part, ScheduleKind::PipeDreamAsync, &model);
        let b = footprint(&profile, &part, ScheduleKind::PipeDream2Bw, &model);
        assert_eq!(a[0].weight_versions, in_flight);
        assert_eq!(b[0].weight_versions, 2);
        assert!(a[0].stash_bytes > prev_async);
        assert!(a[0].stash_bytes >= b[0].stash_bytes);
        prev_async = a[0].stash_bytes;
    }
}

/// The walk ap-mem used before it kept a refcount per live weight
/// version: after every op it collected the distinct versions of all live
/// stashes into a fresh set. Kept as the oracle the library walk must
/// match exactly.
fn oracle_walk_stage(
    program: &ap_ir::Program,
    stage: usize,
    weight_bytes: f64,
    act_full: f64,
    act_input: f64,
    model: &MemoryModel,
) -> (usize, usize, f64) {
    use ap_ir::{IrOp, UnitId};
    use std::collections::{BTreeMap, BTreeSet};
    let ops = &program.stages[stage].ops;
    let recomputed: BTreeSet<UnitId> = ops
        .iter()
        .filter_map(|op| match op {
            IrOp::Recompute { unit } => Some(*unit),
            _ => None,
        })
        .collect();
    let mut live_versions: BTreeMap<UnitId, u64> = BTreeMap::new();
    let mut full: BTreeSet<UnitId> = BTreeSet::new();
    let mut input_only: BTreeSet<UnitId> = BTreeSet::new();
    let mut peak_bytes = 0.0f64;
    let mut at_peak = (1usize, 0usize, 0.0f64);
    for op in ops {
        let mut transient = 0.0;
        match *op {
            IrOp::StashPush {
                unit,
                weight_version,
            } => {
                live_versions.insert(unit, weight_version);
            }
            IrOp::StashPop { unit } => {
                live_versions.remove(&unit);
            }
            IrOp::Forward { unit } => {
                if model.recompute_discard && recomputed.contains(&unit) {
                    input_only.insert(unit);
                } else {
                    full.insert(unit);
                }
            }
            IrOp::Recompute { unit } => {
                input_only.remove(&unit);
                full.insert(unit);
            }
            IrOp::Backward { unit } => {
                full.remove(&unit);
                input_only.remove(&unit);
            }
            IrOp::FusedFwdLossBwd { unit } => {
                live_versions.remove(&unit);
                transient = act_full;
            }
            IrOp::Recv { .. } | IrOp::Send { .. } | IrOp::ApplyUpdate { .. } => {}
        }
        let distinct: BTreeSet<u64> = live_versions.values().copied().collect();
        let act = full.len() as f64 * act_full + input_only.len() as f64 * act_input + transient;
        let units = full.len() + input_only.len() + usize::from(transient > 0.0);
        let v = distinct.len().max(1);
        let bytes = (v - 1) as f64 * weight_bytes + act;
        if bytes > peak_bytes {
            peak_bytes = bytes;
            at_peak = (v, units, act);
        }
    }
    at_peak
}

/// The refcounted walk prices every stage exactly as the per-op set walk
/// did: model zoo × schedule zoo × in-flight depths 1..=32, under both
/// activation policies.
#[test]
fn refcounted_walk_matches_the_set_walk_oracle() {
    use ap_models::{alexnet, bert_n, gpt2_medium, gpt2_small, resnet101, resnet152, resnet50};
    let models = [
        alexnet(),
        vgg16(),
        resnet50(),
        resnet101(),
        resnet152(),
        bert_n(12),
        bert_n(24),
        bert48(),
        gpt2_small(),
        gpt2_medium(),
    ];
    let policies = [
        MemoryModel::default(),
        MemoryModel {
            recompute_discard: false,
            ..MemoryModel::default()
        },
    ];
    for desc in &models {
        let profile = ModelProfile::of(desc);
        let l = profile.n_layers();
        for kind in ScheduleKind::zoo() {
            let m = kind.micro_batches() as f64;
            for in_flight in 1..=32 {
                let part = &partitions(l, in_flight)[2];
                let n_stages = part.n_stages();
                let total = (2 * (n_stages + in_flight)).max(4) as u64;
                let program = ap_ir::generate(kind, n_stages, total, in_flight);
                for (pi, policy) in policies.iter().enumerate() {
                    let got = footprint(&profile, part, kind, policy);
                    for (s, st) in part.stages.iter().enumerate() {
                        let (lo, hi) = (st.layers.start, st.layers.end);
                        let w = profile.range_params(lo, hi);
                        let input = profile.out_bytes[lo.saturating_sub(1)];
                        let acts: f64 = (lo..hi).map(|j| profile.out_bytes[j]).sum();
                        let (v, units, act) = oracle_walk_stage(
                            &program,
                            s,
                            w,
                            (input + acts) / m,
                            input / m,
                            policy,
                        );
                        let f = &got[s];
                        let cell = format!(
                            "{} {} depth {in_flight} policy {pi} stage {s}",
                            desc.name,
                            kind.id()
                        );
                        assert_eq!(f.stage, s, "{cell}");
                        assert_eq!(f.weight_versions, v, "{cell}");
                        assert_eq!(f.peak_units, units, "{cell}");
                        assert_eq!(f.activation_bytes.to_bits(), act.to_bits(), "{cell}");
                        assert_eq!(
                            f.stash_bytes.to_bits(),
                            ((v - 1) as f64 * w).to_bits(),
                            "{cell}"
                        );
                        assert_eq!(f.weight_bytes.to_bits(), w.to_bits(), "{cell}");
                    }
                }
            }
        }
    }
}
