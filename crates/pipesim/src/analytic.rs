//! Closed-form steady-state throughput model.
//!
//! Planners need thousands of partition evaluations per decision; the
//! discrete-event engine is too slow for that inner loop. This model
//! computes the steady-state iteration time of a partition under the
//! *actual* cluster state — heterogeneous per-worker bandwidth and compute,
//! PS or Ring sync, framework constants, per-schedule bubbles — in O(L + N).
//!
//! It is a scorer, not a definition of what a schedule does: the event
//! engine runs the schedule's `ap-ir` program, and the two stay inside the
//! envelope DESIGN.md §10 declares (`tests/engine_vs_analytic.rs`).

use ap_cluster::ClusterState;
use ap_models::ModelProfile;

use crate::calibration::Calibration;
use crate::framework::Framework;
use crate::partition::Partition;
use crate::schedule::ScheduleKind;
use crate::sync::{pair_bw, SyncScheme};

/// Everything fixed about the workload except the partition and cluster
/// state.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticModel<'a> {
    /// Static model profile (Table 1 constants).
    pub profile: &'a ModelProfile,
    /// Gradient synchronization scheme for replicated stages.
    pub scheme: SyncScheme,
    /// Framework constant factors.
    pub framework: Framework,
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// Fitted runtime overheads (codec, stash, dispatch); `None` predicts
    /// the raw compute/wire model.
    pub calibration: Option<Calibration>,
}

/// The result of evaluating one partition.
#[derive(Debug, Clone)]
pub struct Eval {
    /// Steady-state seconds per mini-batch.
    pub iteration_time: f64,
    /// Samples (images) per second.
    pub throughput: f64,
    /// Per-stage occupancy time (compute + sync) per mini-batch.
    pub stage_times: Vec<f64>,
    /// Per-cut communication time per mini-batch.
    pub cut_times: Vec<f64>,
    /// Index of the bottleneck stage (or cut, offset by stage count;
    /// `stages + cuts` means the host's aggregate compute capacity).
    pub bottleneck: usize,
}

impl<'a> AnalyticModel<'a> {
    /// Time stage `s` spends per mini-batch: compute spread over its
    /// replicas plus (for replicated stages) gradient synchronization.
    pub fn stage_time(&self, partition: &Partition, s: usize, state: &ClusterState) -> f64 {
        let st = &partition.stages[s];
        let (lo, hi) = (st.layers.start, st.layers.end);
        // Replicated stages round-robin whole mini-batches (PipeDream's
        // scheme), so a straggling replica throttles the stage: the
        // sustained rate is m x the slowest replica, not the pooled sum.
        let m = st.workers.len() as f64;
        let occ = self.stage_occupancy(partition, s, state);
        let sync_bytes = self.profile.range_params(lo, hi);
        if self.schedule.is_async() {
            // Each replica's update cadence is paced by whichever is
            // slower: computing its own mini-batch or pushing its update
            // through the contended fabric (the next backward is gated on
            // the previous sync). The stage produces one mini-batch per
            // `cadence / m`.
            let sync_one = self
                .scheme
                .async_update_time(sync_bytes, &st.workers, state)
                / self.framework.comm_efficiency;
            occ.max(sync_one) / m
        } else {
            // Flush schedules synchronize the full stage once per
            // mini-batch at the barrier.
            let t_sync = self.scheme.sync_time(sync_bytes, &st.workers, state)
                / self.framework.comm_efficiency;
            occ / m + t_sync
        }
    }

    /// Per-mini-batch *CPU occupancy* of one replica of stage `s`:
    /// compute at the slowest replica's rate plus calibrated runtime
    /// overheads (codec ops on each boundary — one act + one grad frame
    /// per mini-batch, each encoded once and decoded once — the
    /// weight-stash snapshot, and the fixed dispatch/loss residual), all
    /// of which occupy the stage thread serially with compute. Excludes
    /// wire and sync time: those wait, they don't burn a core. Exactly
    /// one replica pays this per mini-batch, so it doubles as the stage's
    /// per-mini-batch contribution to host CPU demand.
    fn stage_occupancy(&self, partition: &Partition, s: usize, state: &ClusterState) -> f64 {
        let st = &partition.stages[s];
        let (lo, hi) = (st.layers.start, st.layers.end);
        let mut work = self.profile.range_work(lo, hi);
        // GPipe-style recomputation re-runs the forward (1/3 of fwd+bwd).
        work *= 1.0 + self.schedule.recompute_factor() / 3.0;
        let min_rate = st
            .workers
            .iter()
            .map(|&w| state.effective_flops(w) * self.framework.compute_efficiency)
            .fold(f64::INFINITY, f64::min);
        let extra = match self.calibration {
            Some(c) => {
                let last = partition.n_stages() - 1;
                let in_bytes = (s > 0).then(|| self.profile.cut_bytes(lo - 1));
                let out_bytes = (s < last).then(|| self.profile.cut_bytes(hi - 1));
                let stashes = self.schedule.is_async() && partition.in_flight > 1 && s < last;
                let stash_bytes = if stashes {
                    partition.stage_param_bytes(s, self.profile)
                } else {
                    0.0
                };
                c.stage_extra_s(in_bytes, out_bytes, stash_bytes)
            }
            None => 0.0,
        };
        work / min_rate + extra
    }

    /// Seconds per mini-batch the execution host's cores need to push
    /// every stage's work through `compute_slots` slots, or `None` when
    /// the calibration is absent or uncontended. With fewer cores than
    /// stages, pipelining cannot hide compute behind compute: the host
    /// can finish at most `slots` stage-seconds per wall-second, so the
    /// aggregate `Σ occupancy / slots` is a hard throughput floor — on a
    /// one-core host it is exactly the serialized sum of stage work.
    fn host_capacity_time(&self, partition: &Partition, state: &ClusterState) -> Option<f64> {
        let c = self.calibration?;
        if c.compute_slots == 0 || partition.n_stages() <= c.compute_slots {
            return None;
        }
        let total: f64 = (0..partition.n_stages())
            .map(|s| self.stage_occupancy(partition, s, state))
            .sum();
        Some(total / c.compute_slots as f64)
    }

    /// Activation/gradient transfer time across cut `c` (between stages
    /// `c` and `c+1`) per mini-batch. Forward activations and backward
    /// gradients ride opposite directions of full-duplex links, so the cut
    /// costs one activation tensor's worth of time.
    pub fn cut_time(&self, partition: &Partition, c: usize, state: &ClusterState) -> f64 {
        let cut_layer = partition.stages[c].layers.end - 1;
        let bytes = self.profile.cut_bytes(cut_layer);
        let senders = &partition.stages[c].workers;
        let receivers = &partition.stages[c + 1].workers;
        // Transfers pair replicas round-robin, so the mean *time* per
        // mini-batch is the average of per-pair times — i.e. the harmonic
        // mean of the pairwise bandwidths. (An arithmetic mean would let
        // one fast colocated pair hide many slow cross-server pairs.)
        let mut inv_sum = 0.0;
        let mut n = 0usize;
        for &a in senders {
            for &b in receivers {
                inv_sum += 1.0 / pair_bw(a, b, state);
                n += 1;
            }
        }
        let mean_time_per_byte = inv_sum / n as f64;
        bytes * mean_time_per_byte / self.framework.comm_efficiency
    }

    /// Evaluate a partition in the given cluster state.
    pub fn evaluate(&self, partition: &Partition, state: &ClusterState) -> Eval {
        debug_assert!(partition.validate(self.profile.n_layers()).is_ok());
        let s_count = partition.n_stages();
        let micro = self.schedule.micro_batches() as f64;

        // Per-mini-batch stage and cut times (micro-batching divides the
        // per-unit time but not the total).
        let stage_times: Vec<f64> = (0..s_count)
            .map(|s| self.stage_time(partition, s, state))
            .collect();
        let cut_times: Vec<f64> = (0..s_count.saturating_sub(1))
            .map(|c| self.cut_time(partition, c, state))
            .collect();

        let (mut bottleneck, mut unit) = (0usize, 0.0f64);
        for (i, &t) in stage_times.iter().enumerate() {
            if t > unit {
                unit = t;
                bottleneck = i;
            }
        }
        for (i, &t) in cut_times.iter().enumerate() {
            if t > unit {
                unit = t;
                bottleneck = s_count + i;
            }
        }
        // A host with fewer compute slots than stages adds one more
        // bottleneck: its aggregate capacity across all stage threads.
        if let Some(cap) = self.host_capacity_time(partition, state) {
            if cap > unit {
                unit = cap;
                bottleneck = s_count + cut_times.len();
            }
        }

        // Async: one mini-batch completes per bottleneck unit.
        // Sync-flush: m micro-batches at 1/m unit each, inflated by the
        // bubble fraction.
        let bubble = self.schedule.bubble_fraction(s_count);
        let iteration_time = if self.schedule.is_async() {
            unit + self.framework.per_iter_overhead
        } else {
            // Per-micro unit = unit / m; m units of useful work stretched
            // by fill/drain.
            let useful = micro * (unit / micro);
            useful / (1.0 - bubble) + self.framework.per_iter_overhead
        };
        let throughput = self.profile.batch as f64 / iteration_time;
        Eval {
            iteration_time,
            throughput,
            stage_times,
            cut_times,
            bottleneck,
        }
    }

    /// Throughput shortcut.
    pub fn throughput(&self, partition: &Partition, state: &ClusterState) -> f64 {
        self.evaluate(partition, state).throughput
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Stage;
    use ap_cluster::gpu::GpuKind;
    use ap_cluster::{ClusterTopology, GpuId};
    use ap_models::{synthetic_uniform, ModelProfile};

    fn setup(link_gbps: f64) -> (ClusterState, ModelProfile) {
        let topo = ClusterTopology::single_switch(4, 1, GpuKind::P100, link_gbps);
        let model = synthetic_uniform(8, 1e9, 8e6, 4e6);
        let profile = ModelProfile::with_batch(&model, 32);
        (ClusterState::new(topo), profile)
    }

    fn model<'a>(profile: &'a ModelProfile, schedule: ScheduleKind) -> AnalyticModel<'a> {
        AnalyticModel {
            profile,
            scheme: SyncScheme::RingAllReduce,
            framework: Framework::pytorch(),
            schedule,
            calibration: None,
        }
    }

    fn two_stage() -> Partition {
        Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 2,
        }
    }

    #[test]
    fn balanced_pipeline_bottleneck_is_half_the_work() {
        let (st, p) = setup(100.0);
        let m = model(&p, ScheduleKind::PipeDreamAsync);
        let e = m.evaluate(&two_stage(), &st);
        // Each stage has half the model's work on one P100.
        let want = p.total_work() / 2.0 / GpuKind::P100.peak_flops();
        assert!((e.stage_times[0] - want).abs() / want < 1e-9);
        assert!((e.stage_times[1] - want).abs() / want < 1e-9);
        assert!(e.bottleneck < 2);
    }

    #[test]
    fn throughput_is_batch_over_iteration_time() {
        let (st, p) = setup(25.0);
        let m = model(&p, ScheduleKind::PipeDreamAsync);
        let e = m.evaluate(&two_stage(), &st);
        assert!((e.throughput - 32.0 / e.iteration_time).abs() < 1e-9);
    }

    #[test]
    fn low_bandwidth_makes_the_cut_the_bottleneck() {
        let (_, p) = setup(100.0);
        let slow = ClusterState::new(ClusterTopology::single_switch(
            4,
            1,
            GpuKind::P100,
            0.05, // 50 Mbps: activations dominate
        ));
        let m = model(&p, ScheduleKind::PipeDreamAsync);
        let e = m.evaluate(&two_stage(), &slow);
        assert_eq!(e.bottleneck, 2, "bottleneck should be the cut");
        assert!(e.cut_times[0] > e.stage_times[0]);
    }

    #[test]
    fn replication_speeds_up_the_bottleneck_stage() {
        let (st, p) = setup(100.0);
        let m = model(&p, ScheduleKind::PipeDreamAsync);
        let single = m.throughput(&two_stage(), &st);
        let replicated = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0), GpuId(2)]),
                Stage::new(4..8, vec![GpuId(1), GpuId(3)]),
            ],
            in_flight: 2,
        };
        let double = m.throughput(&replicated, &st);
        assert!(
            double > 1.5 * single,
            "2x replicas should nearly double throughput: {single} -> {double}"
        );
    }

    #[test]
    fn sync_flush_schedules_pay_a_bubble() {
        let (st, p) = setup(100.0);
        let part = two_stage();
        let async_tp = model(&p, ScheduleKind::PipeDreamAsync).throughput(&part, &st);
        let dapple_tp = model(&p, ScheduleKind::Dapple { micro_batches: 4 }).throughput(&part, &st);
        assert!(dapple_tp < async_tp);
        // More micro-batches shrink the gap.
        let dapple16 = model(&p, ScheduleKind::Dapple { micro_batches: 16 }).throughput(&part, &st);
        assert!(dapple16 > dapple_tp);
    }

    #[test]
    fn gpipe_recompute_costs_extra() {
        let (st, p) = setup(100.0);
        let part = two_stage();
        let gpipe = model(&p, ScheduleKind::GPipe { micro_batches: 8 }).throughput(&part, &st);
        let dapple = model(&p, ScheduleKind::Dapple { micro_batches: 8 }).throughput(&part, &st);
        assert!(gpipe < dapple, "recompute must cost: {gpipe} vs {dapple}");
    }

    #[test]
    fn chimera_beats_dapple_at_equal_micro_batches() {
        let (st, p) = setup(100.0);
        let part = two_stage();
        let dapple = model(&p, ScheduleKind::Dapple { micro_batches: 4 }).throughput(&part, &st);
        let chimera = model(&p, ScheduleKind::Chimera { micro_batches: 4 }).throughput(&part, &st);
        assert!(chimera > dapple);
    }

    #[test]
    fn calibration_lowers_predictions_and_zero_is_identity() {
        let (st, p) = setup(100.0);
        let mut m = model(&p, ScheduleKind::PipeDreamAsync);
        let part = two_stage();
        let raw = m.throughput(&part, &st);
        m.calibration = Some(Calibration::zero());
        assert_eq!(m.throughput(&part, &st), raw, "zero calibration is raw");
        m.calibration = Some(Calibration {
            per_frame_s: 1e-4,
            per_byte_s: 1e-9,
            stage_overhead_s: 1e-3,
            stash_byte_s: 1e-9,
            compute_slots: 0,
        });
        let cal = m.throughput(&part, &st);
        assert!(
            cal < raw,
            "calibrated must price in overheads: {cal} vs {raw}"
        );
    }

    #[test]
    fn one_compute_slot_serializes_the_stages() {
        let (st, p) = setup(100.0);
        let mut m = model(&p, ScheduleKind::PipeDreamAsync);
        m.calibration = Some(Calibration::zero());
        let part = two_stage();
        let uncontended = m.evaluate(&part, &st);
        // One slot: both stage threads share a single core, so the
        // iteration unit is the *sum* of stage occupancies, not the max.
        let mut c = Calibration::zero();
        c.compute_slots = 1;
        m.calibration = Some(c);
        let serialized = m.evaluate(&part, &st);
        let sum: f64 = uncontended.stage_times.iter().sum();
        let unit = serialized.iteration_time - m.framework.per_iter_overhead;
        assert!((unit - sum).abs() < 1e-12, "{unit} vs {sum}");
        assert_eq!(
            serialized.bottleneck,
            part.n_stages() + 1,
            "bottleneck index past stages and cuts means host capacity"
        );
        // Slots >= stages: capacity can't bind, prediction is unchanged.
        c.compute_slots = 2;
        m.calibration = Some(c);
        let fits = m.evaluate(&part, &st);
        assert_eq!(fits.iteration_time, uncontended.iteration_time);
    }

    #[test]
    fn contention_halves_compute_bound_throughput() {
        let (mut st, p) = setup(100.0);
        let m = model(&p, ScheduleKind::PipeDreamAsync);
        let part = two_stage();
        let before = m.throughput(&part, &st);
        for g in 0..2 {
            st.topology.gpu_mut(GpuId(g)).colocated_jobs = 2;
        }
        let after = m.throughput(&part, &st);
        assert!((before / after - 2.0).abs() < 0.2, "{before} vs {after}");
    }
}
