//! Discrete-event simulation of pipelined training.
//!
//! A fluid-flow event engine: compute drains FLOPs at the worker's current
//! effective rate and transfers drain bytes at max-min fair-share rates
//! over the live links, re-evaluated at every completion and resource
//! event, so bandwidth drops and GPU contention bite mid-iteration.
//!
//! It interprets [`ap_ir`] op-programs, the ones ap-exec replays (DESIGN.md
//! §10): the program decides each stage's work and order, stashes,
//! recomputes, updates and flushes. A stage's replica runs the stage's ops
//! for the units it owns (`unit % live replicas`) in the order
//! [`ap_ir::generate_replicated`] defines: strictly in program order
//! where a stage and its neighbours have one replica each, earliest ready
//! unit first elsewhere. Every op is charged its [`Calibration`] term; an
//! asynchronous `ApplyUpdate` launches the replica's gradient-sync flow, a
//! synchronous one is a flush barrier priced by [`SyncScheme::sync_time`].
//! The engine keeps only fluid compute, link sharing, resource timelines,
//! fail-stop shedding and stranding, epochs for live switching (§4.4), and
//! migration abort/rollback.

use std::collections::{BTreeSet, HashMap};

use ap_cluster::{
    ClusterState, EventKind, FairShare, Flow, GpuId, LinkId, ResourceTimeline, ServerId,
};
use ap_ir::{IrOp, Payload};
use ap_models::ModelProfile;

use crate::calibration::Calibration;
use crate::framework::Framework;
use crate::partition::{Partition, PartitionError};
use crate::schedule::ScheduleKind;
use crate::sync::SyncScheme;

/// Why a simulation run could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The run was configured with a structurally invalid partition.
    InvalidPartition(PartitionError),
    /// Nothing is runnable and no future resource event can unblock the
    /// pipeline: the configuration cannot make progress.
    Deadlock {
        /// Simulated time at which progress stopped.
        at: f64,
        /// Mini-batches completed before the deadlock.
        done: u64,
        /// Mini-batches that were requested.
        target: u64,
    },
    /// The event loop exceeded its step budget — the run is degenerate
    /// (e.g. a pathological rate collapse producing infinitesimal steps).
    StepBudgetExhausted {
        /// Steps taken before giving up.
        steps: usize,
    },
    /// A pipeline stage lost every worker to fail-stop failures and no
    /// repartition restored it: the job cannot continue on the current
    /// assignment. Controlled runs get a chance to repartition before this
    /// fires; uncontrolled runs surface it directly.
    WorkerLost {
        /// The stage with zero surviving workers (current partition).
        stage: usize,
        /// Simulated time at which the loss became terminal.
        at: f64,
        /// Mini-batches completed before the loss.
        done: u64,
        /// Mini-batches that were requested.
        target: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidPartition(e) => write!(f, "invalid partition: {e}"),
            SimError::Deadlock { at, done, target } => {
                write!(
                    f,
                    "deadlock at t={at} with {done} / {target} iterations done"
                )
            }
            SimError::StepBudgetExhausted { steps } => {
                write!(f, "engine step budget exhausted after {steps} steps")
            }
            SimError::WorkerLost {
                stage,
                at,
                done,
                target,
            } => {
                write!(
                    f,
                    "stage {stage} lost all workers at t={at} with {done} / {target} iterations done"
                )
            }
        }
    }
}

impl From<PartitionError> for SimError {
    fn from(e: PartitionError) -> Self {
        SimError::InvalidPartition(e)
    }
}

impl std::error::Error for SimError {}

/// Forward or backward work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkKind {
    /// Forward pass.
    Forward,
    /// Backward pass (a fused op's second half included).
    Backward,
}

/// One busy interval of one worker, for timeline/utilization plots.
#[derive(Debug, Clone)]
pub struct TimelineSegment {
    /// Global worker index (position in `Partition::all_workers`).
    pub worker: usize,
    /// Work unit (mini-batch id for async, micro-batch id for sync).
    pub unit: u64,
    /// Forward or backward.
    pub kind: WorkKind,
    /// Segment start, seconds.
    pub start: f64,
    /// Segment end, seconds.
    pub end: f64,
}

/// A fault-path incident the engine handled during a run. These are the
/// engine-side half of the recovery story: the controller folds them into
/// its decision journal (and the chrome trace) so every fault, rollback
/// and restart is auditable.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultRecord {
    /// A worker of this job died fail-stop.
    WorkerFailed {
        /// The dead worker.
        worker: GpuId,
        /// When it died, seconds.
        at: f64,
    },
    /// A previously failed worker came back (cold — it rejoins the
    /// pipeline only when a later repartition assigns it work).
    WorkerRecovered {
        /// The recovered worker.
        worker: GpuId,
        /// When it recovered, seconds.
        at: f64,
    },
    /// A worker involved in an in-progress fine-grained migration died;
    /// the partial migration was rolled back to the pre-switch partition
    /// (completed steps revert in reverse stash-version order — the later
    /// active mini-batch's copy first, the dual of the §4.4 forward
    /// order).
    MigrationRolledBack {
        /// The worker whose death aborted the migration.
        worker: GpuId,
        /// When the rollback happened, seconds.
        at: f64,
        /// Fraction of the migration window that had elapsed in `[0, 1)`.
        progress: f64,
        /// Stall charged to undo the partially copied state.
        rollback_seconds: f64,
    },
    /// In-flight mini-batches stranded by a failure (their pipeline stage
    /// had no surviving replica) were restarted from stage 0 under the
    /// current partition — work is re-done, never silently dropped.
    UnitsRestarted {
        /// How many mini-batches restarted.
        count: usize,
        /// When, seconds.
        at: f64,
    },
    /// The controller proposed a switch the engine could not apply (e.g. a
    /// partition naming a worker outside the job); the switch was ignored
    /// rather than panicking mid-run.
    SwitchRejected {
        /// When, seconds.
        at: f64,
    },
}

/// Completion record of one mini-batch.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// Mini-batch index (0-based).
    pub iteration: u64,
    /// Wall-clock completion time, seconds.
    pub finish: f64,
}

/// Aggregated simulation output.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Mini-batch completions in order.
    pub iterations: Vec<IterationRecord>,
    /// Samples per mini-batch (the configured batch size).
    pub batch: usize,
    /// Per-worker busy seconds.
    pub busy: Vec<f64>,
    /// Total simulated seconds.
    pub makespan: f64,
    /// Worker busy segments (empty unless timeline recording was on).
    pub segments: Vec<TimelineSegment>,
    /// Mean weight staleness observed at stage 0 (async schedules only).
    pub mean_staleness: f64,
    /// Fault-path incidents handled during the run, in time order.
    pub faults: Vec<FaultRecord>,
    /// Engine steps processed: one per event the run advanced through. A
    /// deterministic measure of the run's work.
    pub events: u64,
}

impl SimResult {
    /// Overall throughput in samples/sec across the whole run.
    pub fn throughput(&self) -> f64 {
        if self.iterations.is_empty() || self.makespan == 0.0 {
            return 0.0;
        }
        self.iterations.len() as f64 * self.batch as f64 / self.makespan
    }

    /// Steady-state throughput, skipping the first `skip` iterations
    /// (pipeline fill).
    ///
    /// Replicated stages complete mini-batches in near-simultaneous
    /// *waves*; naively dividing record count by elapsed time over-counts
    /// partial waves at the window edges. Records are therefore grouped by
    /// distinct completion instants, and the rate counts whole groups
    /// after the first.
    pub fn steady_throughput(&self, skip: usize) -> f64 {
        if self.iterations.len() <= skip + 1 {
            return self.throughput();
        }
        let window = &self.iterations[skip..];
        let mut groups: Vec<(f64, usize)> = Vec::new();
        for rec in window {
            match groups.last_mut() {
                Some((t, c)) if (rec.finish - *t).abs() < 1e-9 => *c += 1,
                _ => groups.push((rec.finish, 1)),
            }
        }
        let (Some(first), Some(last)) = (groups.first(), groups.last()) else {
            return self.throughput();
        };
        if groups.len() < 2 {
            return self.throughput();
        }
        let span = last.0 - first.0;
        let counted: usize = groups[1..].iter().map(|&(_, c)| c).sum();
        counted as f64 * self.batch as f64 / span.max(1e-12)
    }

    /// Per-iteration instantaneous speed: `(iteration, samples/sec)`
    /// smoothed over a window of completions.
    pub fn speed_series(&self, window: usize) -> Vec<(u64, f64)> {
        let w = window.max(1);
        let mut out = Vec::new();
        for i in w..self.iterations.len() {
            let dt = self.iterations[i].finish - self.iterations[i - w].finish;
            if dt > 0.0 {
                out.push((
                    self.iterations[i].iteration,
                    w as f64 * self.batch as f64 / dt,
                ));
            }
        }
        out
    }

    /// Mean utilization of each worker over the makespan.
    pub fn utilization(&self) -> Vec<f64> {
        self.busy
            .iter()
            .map(|&b| {
                if self.makespan > 0.0 {
                    b / self.makespan
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Gradient sync scheme for replicated stages.
    pub scheme: SyncScheme,
    /// Framework constant factors.
    pub framework: Framework,
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// Record per-worker busy segments (costs memory).
    pub record_timeline: bool,
    /// Fitted runtime overheads (codec, stash, dispatch) charged as
    /// extra task time; `None` simulates the raw compute/wire model.
    pub calibration: Option<Calibration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            scheme: SyncScheme::RingAllReduce,
            framework: Framework::pytorch(),
            schedule: ScheduleKind::PipeDreamAsync,
            record_timeline: false,
            calibration: None,
        }
    }
}

/// A frame that reached its destination stage and awaits that stage's
/// `Recv`: (stage, payload, wire unit id).
type FrameKey = (usize, Payload, u64);

/// Frames delivered and not yet received: one bit per destination stage,
/// payload and wire id.
#[derive(Debug, Default)]
struct Arrived {
    rows: Vec<Vec<u64>>,
}

impl Arrived {
    /// Row, word and bit of a frame.
    fn slot(&(stage, payload, wire): &FrameKey) -> (usize, usize, u64) {
        let p = match payload {
            Payload::Act => 0,
            Payload::Grad => 1,
            Payload::WeightState => 2,
        };
        (3 * stage + p, (wire / 64) as usize, 1 << (wire % 64))
    }

    fn contains(&self, k: &FrameKey) -> bool {
        let (r, w, bit) = Self::slot(k);
        self.rows
            .get(r)
            .and_then(|row| row.get(w))
            .is_some_and(|word| word & bit != 0)
    }

    fn insert(&mut self, k: FrameKey) {
        let (r, w, bit) = Self::slot(&k);
        if r >= self.rows.len() {
            self.rows.resize_with(r + 1, Vec::new);
        }
        let row = &mut self.rows[r];
        if w >= row.len() {
            row.resize(w + 1, 0);
        }
        row[w] |= bit;
    }

    fn remove(&mut self, k: &FrameKey) {
        let (r, w, bit) = Self::slot(k);
        if let Some(word) = self.rows.get_mut(r).and_then(|row| row.get_mut(w)) {
            *word &= !bit;
        }
    }

    /// Drop every frame of `unit`, at any stage: wire ids `unit * micro`
    /// up to the next unit's.
    fn remove_unit(&mut self, unit: u64, micro: u64) {
        for row in &mut self.rows {
            for wire in unit * micro..(unit + 1) * micro {
                if let Some(word) = row.get_mut((wire / 64) as usize) {
                    *word &= !(1 << (wire % 64));
                }
            }
        }
    }
}

/// Something that takes time: it drains `left` FLOPs, bytes or seconds
/// at a rate re-evaluated at every event.
#[derive(Debug)]
struct Activity {
    left: f64,
    work: Work,
}

#[derive(Debug)]
enum Work {
    /// One piece of the worker's running chain.
    Compute { worker: usize, started: f64 },
    /// A frame toward `worker` at its destination stage, or `worker`'s
    /// gradient sync (`None`: completion frees its next `ApplyUpdate`).
    Transfer {
        flow: Flow,
        frame: Option<FrameKey>,
        worker: usize,
    },
    /// Synchronous-schedule flush barrier (gradient sync).
    Flush,
    /// A pure time delay (e.g. a fine-grained migration stall); completion
    /// has no effect beyond advancing the clock so frozen workers re-check.
    Timer,
}

impl Work {
    /// Rate floor for completion estimates and the drain tolerance: one
    /// FLOP / one byte / a nanosecond are all far below model scale.
    fn floor_and_slack(&self) -> (f64, f64) {
        match self {
            Work::Compute { .. } => (1e-6, 1.0),
            Work::Transfer { .. } => (1e-3, 1.0),
            Work::Flush | Work::Timer => (1.0, 1e-9),
        }
    }
}

/// One stretch of a chain's compute: FLOPs plus calibrated seconds
/// (converted at the worker's rate when the piece starts).
#[derive(Debug, Clone, Copy)]
struct Piece {
    kind: WorkKind,
    flops: f64,
    seconds: f64,
}

/// The ops one worker runs back to back for one unit: inputs (`Recv`,
/// stash, recompute), one compute op, then outputs (`ApplyUpdate`,
/// `Send`), which take effect when the compute ends.
#[derive(Debug)]
struct Chain {
    epoch: usize,
    stage: usize,
    /// Mini-batch unit id, and the wire id of the first op (the
    /// micro-batch unit under flush schedules).
    unit: u64,
    wire: u64,
    /// Its ops: a run of the stage program.
    ops: std::ops::Range<usize>,
    consumed: Option<FrameKey>,
    /// One piece, or two for a fused op; `piece` indexes the running one.
    pieces: [Option<Piece>; 2],
    piece: usize,
}

/// `(mini-batch, micro-batch)` of an op.
fn op_unit(op: IrOp) -> (u64, u32) {
    match op {
        IrOp::ApplyUpdate { mb, .. } => (mb, 0),
        IrOp::Recv { unit, .. }
        | IrOp::Send { unit, .. }
        | IrOp::StashPush { unit, .. }
        | IrOp::StashPop { unit }
        | IrOp::Forward { unit }
        | IrOp::FusedFwdLossBwd { unit }
        | IrOp::Recompute { unit }
        | IrOp::Backward { unit } => (unit.mb, unit.micro),
    }
}

/// One partition regime during a run, with the program it executes.
/// Program mini-batch `i` is unit `carried[i]` (restarted units first),
/// then the fresh units from `fresh_start` on. A switch closes the
/// current epoch at the admission counter, so in-flight mini-batches
/// drain on the old assignment while new ones use the new — AutoPipe's
/// fine-grained switching semantics (§4.4).
struct Epoch {
    fresh_start: u64,
    carried: Vec<u64>,
    partition: Partition,
    stage_workers: Vec<Vec<usize>>, // stage -> live global worker indices
    stage_of: Vec<Option<usize>>,   // global worker -> stage
    fwd_flops: Vec<f64>,            // per stage, per unit
    bwd_flops: Vec<f64>,            // per stage, per unit
    cut_bytes: Vec<f64>,            // per boundary, per unit
    program: Vec<Vec<IrOp>>,
    /// Per stage, per op: the live replica that runs it (its wire id
    /// modulo the live replicas).
    owners: Vec<Vec<u32>>,
    done: Vec<Vec<bool>>,
    /// Units per mini-batch.
    micro: u64,
    /// Per global worker: no pending op of its own precedes this index.
    cursor: Vec<usize>,
}

impl Epoch {
    fn build(
        partition: Partition,
        profile: &ModelProfile,
        micro: u64,
        worker_index: &HashMap<GpuId, usize>,
    ) -> Self {
        let mut stage_workers = Vec::with_capacity(partition.n_stages());
        let mut stage_of = vec![None; worker_index.len()];
        for (s, st) in partition.stages.iter().enumerate() {
            let reps: Vec<usize> = st
                .workers
                .iter()
                // Invariant: `worker_index` is built from the initial
                // partition and `switch_partition` rejects (does not
                // apply) any proposal naming a worker outside it, so
                // every partition that reaches here resolves fully.
                .map(|g| *worker_index.get(g).expect("worker set must be preserved"))
                .collect();
            for &w in &reps {
                stage_of[w] = Some(s);
            }
            stage_workers.push(reps);
        }
        let mut fwd_flops = Vec::new();
        let mut bwd_flops = Vec::new();
        let mut cut_bytes = Vec::new();
        for (s, st) in partition.stages.iter().enumerate() {
            let f: f64 = profile.eff_flops_fwd[st.layers.clone()].iter().sum();
            let b: f64 = profile.eff_flops_bwd[st.layers.clone()].iter().sum();
            fwd_flops.push(f / micro as f64);
            bwd_flops.push(b / micro as f64);
            if s > 0 {
                cut_bytes.push(profile.cut_bytes(st.layers.start - 1) / micro as f64);
            }
        }
        Epoch {
            fresh_start: 0,
            carried: Vec::new(),
            partition,
            stage_workers,
            stage_of,
            fwd_flops,
            bwd_flops,
            cut_bytes,
            program: Vec::new(),
            owners: Vec::new(),
            done: Vec::new(),
            micro,
            cursor: vec![0; worker_index.len()],
        }
    }

    /// Generate this epoch's program: its carried units plus fresh units
    /// up to `target + in_flight`, past the run's target so the measured
    /// window never contains the pipeline drain.
    fn load(&mut self, kind: ScheduleKind, target: u64) {
        let p = &self.partition;
        let fresh_end = (target + p.in_flight as u64).max(self.fresh_start);
        let total = self.carried.len() as u64 + fresh_end - self.fresh_start;
        let replicas: Vec<usize> = p.stages.iter().map(|st| st.workers.len()).collect();
        for st in ap_ir::generate_replicated(kind, &replicas, total, p.in_flight).stages {
            self.done.push(vec![false; st.ops.len()]);
            self.program.push(st.ops);
        }
        self.owners = vec![Vec::new(); self.program.len()];
        for s in 0..self.program.len() {
            self.assign_owners(s);
        }
    }

    /// Re-derive which live replica runs each op of stage `s` (after the
    /// stage's replica set changed).
    fn assign_owners(&mut self, s: usize) {
        let reps = &self.stage_workers[s];
        let owners = self.program[s]
            .iter()
            .map(|&op| reps[(self.wire(op) % reps.len() as u64) as usize] as u32);
        self.owners[s] = if reps.is_empty() {
            Vec::new()
        } else {
            owners.collect()
        };
    }

    /// Unit id of program mini-batch `mb`.
    fn unit(&self, mb: u64) -> u64 {
        match self.carried.get(mb as usize) {
            Some(&u) => u,
            None => self.fresh_start + mb - self.carried.len() as u64,
        }
    }

    /// Id the op's unit travels under: `unit * micro + micro index`.
    fn wire(&self, op: IrOp) -> u64 {
        let (mb, k) = op_unit(op);
        self.unit(mb) * self.micro + k as u64
    }

    /// Per-unit bytes of a frame sent or received at stage `s`.
    fn frame_bytes(&self, s: usize, payload: Payload, send: bool) -> f64 {
        match (payload, send) {
            (Payload::WeightState, _) => 0.0,
            (Payload::Act, true) | (Payload::Grad, false) => self.cut_bytes[s],
            _ => self.cut_bytes[s - 1],
        }
    }

    /// Retire every op of the units `units` accepts.
    fn cancel(&mut self, units: impl Fn(u64) -> bool) {
        for s in 0..self.program.len() {
            for i in 0..self.program[s].len() {
                if units(self.unit(op_unit(self.program[s][i]).0)) {
                    self.done[s][i] = true;
                }
            }
        }
    }
}

/// An in-progress migration window. While the clock is inside it, a
/// fail-stop death of an affected worker aborts the switch and the
/// pre-switch partition is reinstated.
#[derive(Debug, Clone)]
struct ActiveMigration {
    /// The pre-switch partition (the rollback target).
    from: Partition,
    /// First epoch of the (to-be-aborted) switch.
    epoch: usize,
    /// Window start, seconds.
    started: f64,
    /// Window end (start + migration stall), seconds.
    ends: f64,
    /// Global worker indices whose assignment the switch changes.
    affected: Vec<usize>,
}

/// The simulator.
pub struct Engine<'a> {
    profile: &'a ModelProfile,
    cfg: EngineConfig,
    state: ClusterState,
    /// Read off `state`, refreshed whenever it changes: per link
    /// ([`LinkId::index`]) the capacity left for this job's flows, per
    /// worker its compute rate.
    link_caps: Vec<f64>,
    compute_rates: Vec<f64>,
    resources: ResourceTimeline,
    res_cursor: f64,
    workers: Vec<GpuId>,
    worker_index: HashMap<GpuId, usize>,
    /// Partition regimes, oldest first; the last is current.
    epochs: Vec<Epoch>,
    micro: u64,
    /// Mini-batches the run must complete.
    target: u64,

    now: f64,
    activities: Vec<Activity>,
    /// Drain rate of each activity at `now`, parallel to `activities`.
    rates: Vec<f64>,
    /// Max-min working memory, reused at every event.
    fair: FairShare,
    /// Activities that completed at the current event (a reused buffer).
    finished: Vec<Activity>,
    /// Units a replica's ready-op scan has passed over (a reused buffer).
    blocked: Vec<(u64, u32)>,
    /// Per worker: the chain it is executing.
    running: Vec<Option<Chain>>,
    /// Per worker: chains of fused ops between their forward and
    /// backward halves, oldest first.
    parked: Vec<Vec<Chain>>,
    /// Per worker: something it may be waiting on changed since it last
    /// looked for a ready op.
    dirty: Vec<bool>,
    /// Frames delivered and not yet received.
    arrived: Arrived,
    /// Worker's previous gradient sync still in flight.
    sync_busy: Vec<bool>,
    /// The flush barrier in progress: (epoch, program mini-batch).
    flushing: Option<(usize, u64)>,
    /// Workers frozen until a migration stall elapses.
    ready_after: Vec<f64>,
    /// Fresh units below this id may enter stage 0 (async schedules: at
    /// most `in_flight` past completions).
    admitted: u64,
    completed: u64,
    versions: Vec<u64>,
    /// Stage-0 weight version each unit's forward saw.
    fwd_versions: HashMap<u64, u64>,
    staleness_sum: f64,
    staleness_n: u64,
    busy: Vec<f64>,
    segments: Vec<TimelineSegment>,
    iterations: Vec<IterationRecord>,
    /// Per-worker fail-stop flag (index parallel to `workers`).
    dead: Vec<bool>,
    /// In-flight units whose pipeline stage lost every replica; they
    /// restart from stage 0 once a feasible partition is in place.
    stranded: BTreeSet<u64>,
    /// Fault incidents, in time order.
    fault_log: Vec<FaultRecord>,
    /// The migration window currently vulnerable to mid-switch failure.
    active_migration: Option<ActiveMigration>,
    /// A fault was applied since the controller last ran; controlled runs
    /// consult the controller immediately instead of waiting for the
    /// completion cadence.
    fault_consult: bool,
}

impl<'a> Engine<'a> {
    /// Build an engine for one job.
    ///
    /// Fails with a [`PartitionError`] when `partition` is structurally
    /// invalid for `profile` (the caller controls both, so the mismatch is
    /// theirs to handle, not a process abort).
    pub fn new(
        profile: &'a ModelProfile,
        partition: Partition,
        state: ClusterState,
        resources: ResourceTimeline,
        cfg: EngineConfig,
    ) -> Result<Self, PartitionError> {
        partition.validate(profile.n_layers())?;
        let workers = partition.all_workers();
        let worker_index: HashMap<GpuId, usize> =
            workers.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        let micro = cfg.schedule.micro_batches() as u64;
        let n = workers.len();
        let versions = vec![0; partition.n_stages()];
        let epoch0 = Epoch::build(partition, profile, micro, &worker_index);
        let mut engine = Engine {
            profile,
            cfg,
            state,
            link_caps: Vec::new(),
            compute_rates: Vec::new(),
            resources,
            res_cursor: 0.0,
            workers,
            worker_index,
            epochs: vec![epoch0],
            micro,
            target: 0,
            now: 0.0,
            activities: Vec::new(),
            rates: Vec::new(),
            fair: FairShare::default(),
            finished: Vec::new(),
            blocked: Vec::new(),
            running: (0..n).map(|_| None).collect(),
            parked: (0..n).map(|_| Vec::new()).collect(),
            dirty: vec![true; n],
            arrived: Arrived::default(),
            sync_busy: vec![false; n],
            flushing: None,
            ready_after: vec![0.0; n],
            admitted: 0,
            completed: 0,
            versions,
            fwd_versions: HashMap::new(),
            staleness_sum: 0.0,
            staleness_n: 0,
            busy: vec![0.0; n],
            segments: Vec::new(),
            iterations: Vec::new(),
            dead: vec![false; n],
            stranded: BTreeSet::new(),
            fault_log: Vec::new(),
            active_migration: None,
            fault_consult: false,
        };
        engine.observe_state();
        Ok(engine)
    }

    /// Refresh what the engine reads off the cluster state at every event.
    fn observe_state(&mut self) {
        let comm_eff = self.cfg.framework.comm_efficiency;
        let servers = (0..self.state.topology.servers.len()).map(ServerId);
        let links = servers.flat_map(|s| [LinkId::Up(s), LinkId::Down(s)]);
        debug_assert!(links.clone().enumerate().all(|(i, l)| l.index() == i));
        self.link_caps = links
            .map(|l| self.state.available_capacity(l) * comm_eff)
            .collect();
        let compute_eff = self.cfg.framework.compute_efficiency;
        self.compute_rates = self
            .workers
            .iter()
            .map(|&g| self.state.effective_flops(g) * compute_eff)
            .collect();
    }

    fn current_epoch(&self) -> &Epoch {
        self.epochs.last().expect("at least the initial epoch")
    }

    /// `true` while every stage of the current partition has a surviving
    /// replica (new work can flow end to end).
    fn current_epoch_feasible(&self) -> bool {
        !self.current_epoch().stage_workers.iter().any(Vec::is_empty)
    }

    /// Fraction of its nominal rate each in-flight compute task gets
    /// right now. A calibration with `compute_slots > 0` says every
    /// worker in this simulation is really a thread on one host with
    /// that many cores (the setup the calibration was fitted on); when
    /// more tasks are busy than cores exist, the OS scheduler
    /// processor-shares them fairly. The model is work-conserving — a
    /// core freed by a blocked stage immediately speeds up the others —
    /// so a backlogged host sustains exactly `compute_slots`
    /// stage-seconds of occupancy per wall-second, the same capacity
    /// bound the analytic model's `host_capacity_time` folds in. Without
    /// a calibration (cluster simulations, where workers are genuinely
    /// separate devices) every task runs at full rate.
    fn compute_share(&self) -> f64 {
        let Some(c) = self.cfg.calibration else {
            return 1.0;
        };
        if c.compute_slots == 0 {
            return 1.0;
        }
        let busy = self
            .activities
            .iter()
            .filter(|a| matches!(a.work, Work::Compute { .. }))
            .count();
        if busy <= c.compute_slots {
            return 1.0;
        }
        c.compute_slots as f64 / busy as f64
    }

    /// Set `rates` to the current drain rate of every activity: compute
    /// at the worker's (shared) rate, transfers at max-min fair share,
    /// timers at 1.
    fn update_rates(&mut self) {
        let share = self.compute_share();
        let flows = self.activities.iter().filter_map(|a| match &a.work {
            Work::Transfer { flow, .. } => Some(flow),
            _ => None,
        });
        let caps = &self.link_caps;
        let mut fair = self
            .fair
            .rates(
                flows,
                |l| caps[l.index()],
                self.state.topology.local_bytes_per_sec,
            )
            .iter();
        self.rates.clear();
        self.rates
            .extend(self.activities.iter().map(|a| match a.work {
                Work::Compute { worker, .. } => self.compute_rates[worker] * share,
                Work::Transfer { .. } => *fair.next().expect("one rate per flow"),
                Work::Flush | Work::Timer => 1.0,
            }));
    }

    /// Launch a flow of `bytes` over `links`: a frame for `worker`, or
    /// `worker`'s sync.
    fn transfer(&mut self, worker: usize, links: Vec<LinkId>, bytes: f64, frame: Option<FrameKey>) {
        let flow = Flow::elastic(links);
        let work = Work::Transfer {
            flow,
            frame,
            worker,
        };
        self.activities.push(Activity { left: bytes, work });
    }

    /// Launch this worker's gradient-sync flow for its stage (async
    /// schedules, replicated stages only). PS pushes+pulls through the
    /// server replica's NIC; a ring pass touches every inter-server hop of
    /// the replica ring. Concurrent syncs contend via max-min fair share.
    fn launch_sync(&mut self, worker: usize, e: usize, stage: usize) {
        let epoch = &self.epochs[e];
        let st = &epoch.partition.stages[stage];
        let m = st.workers.len();
        if m <= 1 || self.dead[worker] {
            return;
        }
        let bytes = epoch.partition.stage_param_bytes(stage, self.profile);
        let me = self.workers[worker];
        let (links, volume) = match self.cfg.scheme {
            SyncScheme::ParameterServer => {
                // Push + pull between this replica and the PS (replica 0).
                let server = st.workers[0];
                (self.state.topology.path(me, server), 2.0 * bytes)
            }
            SyncScheme::RingAllReduce => {
                // One ring pass: every consecutive hop, deduplicated.
                let mut links = Vec::new();
                for i in 0..m {
                    let hop = self
                        .state
                        .topology
                        .path(st.workers[i], st.workers[(i + 1) % m]);
                    for l in hop {
                        if !links.contains(&l) {
                            links.push(l);
                        }
                    }
                }
                (links, 2.0 * (m as f64 - 1.0) / m as f64 * bytes)
            }
        };
        self.sync_busy[worker] = true;
        self.transfer(worker, links, volume.max(1.0), None);
    }

    /// Index of `w`'s next pending op in epoch `e` — the first op of its
    /// stage that it owns (`unit % live replicas`; a flush barrier
    /// belongs to every replica) and has not run — advancing its cursor.
    fn seek(&mut self, e: usize, w: usize) -> Option<usize> {
        let flush = !self.cfg.schedule.is_async();
        let ep = &mut self.epochs[e];
        let s = ep.stage_of[w]?;
        let reps = &ep.stage_workers[s];
        if !reps.contains(&w) {
            return None;
        }
        let ops = &ep.program[s];
        let mut i = ep.cursor[w];
        while i < ops.len() {
            let barrier = flush && matches!(ops[i], IrOp::ApplyUpdate { .. });
            if !ep.done[s][i] && (barrier || ep.owners[s][i] as usize == w) {
                break;
            }
            i += 1;
        }
        ep.cursor[w] = i;
        (i < ops.len()).then_some(i)
    }

    /// Start `w`'s next chain in epoch `e` if its inputs are ready;
    /// returns whether anything ran. A stage runs its program strictly in
    /// order while it and its neighbours have one replica each; anywhere
    /// else its workers take the earliest ready op among their units (a
    /// unit's own ops stay in order), as [`ap_ir::generate_replicated`]
    /// defines.
    fn try_chain(&mut self, w: usize, e: usize) -> bool {
        // A parked chain's op precedes every op not yet started. Its
        // backward half waits like any other for the previous sync, which
        // only a replicated stage has, so only a replica passes it.
        let busy = self.sync_busy[w];
        let resumable = |c: &Chain| {
            c.epoch == e
                && !(busy
                    && self.epochs[e].program[c.stage][c.ops.clone()]
                        .iter()
                        .any(|op| matches!(op, IrOp::ApplyUpdate { .. })))
        };
        if let Some(k) = self.parked[w].iter().position(resumable) {
            self.running[w] = Some(self.parked[w].remove(k));
            self.start_piece(w);
            return true;
        }
        let Some(first) = self.seek(e, w) else {
            return false;
        };
        let s = self.epochs[e].stage_of[w].expect("seek found the stage");
        let mut blocked = std::mem::take(&mut self.blocked);
        let chain = self
            .chain_at(w, e, s, first)
            .or_else(|| self.scan_ready(&mut blocked, w, e, s, first));
        self.blocked = blocked;
        let Some(chain) = chain else {
            return false;
        };
        let unit = chain.unit;
        for i in chain.ops.clone() {
            self.epochs[e].done[s][i] = true;
        }
        if let Some(k) = chain.consumed {
            self.arrived.remove(&k);
        }
        let forward = chain.pieces[0].is_some_and(|p| p.kind == WorkKind::Forward);
        if self.cfg.schedule.is_async() && s == 0 && forward {
            self.fwd_versions.insert(unit, self.versions[0]);
        }
        self.running[w] = Some(chain);
        self.start_piece(w);
        true
    }

    /// The chain a replicated stage's worker `w` runs when its first
    /// pending op (`first`) cannot start: the earliest ready op among its
    /// in-flight units — the oldest pending backwards interleaved with
    /// the forwards ahead of them. Each unit is judged by its first
    /// pending op (a unit's own ops stay in order), the scan stops at a
    /// flush barrier, and it gives up once more than a window of units is
    /// seen blocked. `None` where the stage runs strictly in order.
    fn scan_ready(
        &self,
        blocked: &mut Vec<(u64, u32)>,
        w: usize,
        e: usize,
        s: usize,
        first: usize,
    ) -> Option<Chain> {
        let ep = &self.epochs[e];
        let near = s.saturating_sub(1)..(s + 2).min(ep.stage_workers.len());
        if ep.stage_workers[near].iter().all(|r| r.len() == 1) {
            return None;
        }
        let reps = &ep.stage_workers[s];
        let window = 2 * ep.partition.in_flight.div_ceil(reps.len()) + 2;
        let flush = !self.cfg.schedule.is_async();
        let (ops, owners, done) = (&ep.program[s], &ep.owners[s], &ep.done[s]);
        blocked.clear();
        blocked.push(op_unit(ops[first]));
        for i in first..ops.len() {
            if done[i] {
                continue;
            }
            // A flush barrier orders everything after it.
            let barrier = flush && matches!(ops[i], IrOp::ApplyUpdate { .. });
            if barrier || blocked.len() > window {
                return None;
            }
            let unit = op_unit(ops[i]);
            if owners[i] as usize != w || blocked.contains(&unit) {
                continue;
            }
            if let Some(chain) = self.chain_at(w, e, s, i) {
                return Some(chain);
            }
            blocked.push(unit);
        }
        None
    }

    /// `false` when op `i` of stage `s` certainly cannot start a chain for
    /// worker `w` now: it already ran, its unit is not yet admitted, or it
    /// is a `Recv` whose frame has not arrived, a flush barrier, or an
    /// asynchronous `ApplyUpdate` behind `w`'s previous gradient sync.
    /// [`Engine::chain_at`] asks it first, so the ops a ready-op scan
    /// passes over cost a few comparisons, not a chain built and dropped.
    fn may_start(&self, ep: &Epoch, w: usize, s: usize, i: usize) -> bool {
        let is_async = self.cfg.schedule.is_async();
        let op = ep.program[s][i];
        let mb = op_unit(op).0;
        // Admission: a fresh unit enters stage 0 only below the counter.
        if is_async && s == 0 && mb >= ep.carried.len() as u64 && ep.unit(mb) >= self.admitted {
            return false;
        }
        !ep.done[s][i]
            && match op {
                IrOp::Recv { payload, .. } => {
                    payload == Payload::WeightState
                        || self.arrived.contains(&(s, payload, ep.wire(op)))
                }
                IrOp::ApplyUpdate { .. } => is_async && !self.sync_busy[w],
                _ => true,
            }
    }

    /// Worker `w`'s chain starting at op `first` of stage `s` in epoch
    /// `e`, or `None` while its inputs are not ready. The backward piece
    /// of a chain holding an asynchronous `ApplyUpdate` waits for `w`'s
    /// previous gradient sync to land.
    fn chain_at(&self, w: usize, e: usize, s: usize, first: usize) -> Option<Chain> {
        let ep = &self.epochs[e];
        if !self.may_start(ep, w, s, first) {
            return None;
        }
        let is_async = self.cfg.schedule.is_async();
        let ops = &ep.program[s];
        let head = op_unit(ops[first]);
        let unit = ep.unit(head.0);
        let cal = self.cfg.calibration;
        let codec = |b: f64| cal.map_or(0.0, |c| c.codec_op_s(b));
        let half = cal.map_or(0.0, |c| c.stage_overhead_s / 2.0 / self.micro as f64);
        // Per-iteration framework overhead charged on entry.
        let over = self.cfg.framework.per_iter_overhead / self.micro as f64;
        let entry = if s == 0 { half + over } else { half };
        let (fwd, bwd) = (ep.fwd_flops[s], ep.bwd_flops[s]);
        let mut chain = Chain {
            epoch: e,
            stage: s,
            unit,
            wire: ep.wire(ops[first]),
            ops: first..first,
            consumed: None,
            pieces: [None; 2],
            piece: 0,
        };
        let mut cur = Piece {
            kind: WorkKind::Forward,
            flops: 0.0,
            seconds: 0.0,
        };
        let (mut post, mut computes) = (false, false);
        for (i, &op) in ops.iter().enumerate().skip(first) {
            let input = !matches!(op, IrOp::Send { .. } | IrOp::ApplyUpdate { .. });
            if ep.done[s][i] || op_unit(op) != head || (post && input) {
                break;
            }
            match op {
                IrOp::Recv { payload, .. } => {
                    let key = (s, payload, ep.wire(op));
                    if payload != Payload::WeightState {
                        if !self.arrived.contains(&key) {
                            break;
                        }
                        chain.consumed = Some(key);
                    }
                    cur.seconds += codec(ep.frame_bytes(s, payload, false));
                }
                IrOp::StashPush { .. } => {
                    let bytes = ep.partition.stage_param_bytes(s, self.profile);
                    cur.seconds += cal.map_or(0.0, |c| c.stash_byte_s * bytes);
                }
                IrOp::StashPop { .. } => {}
                IrOp::Recompute { .. } => cur.flops += fwd,
                IrOp::Forward { .. } => {
                    (cur.flops, cur.seconds) = (cur.flops + fwd, cur.seconds + entry);
                }
                IrOp::Backward { .. } => {
                    cur.kind = WorkKind::Backward;
                    (cur.flops, cur.seconds) = (cur.flops + bwd, cur.seconds + half);
                }
                IrOp::FusedFwdLossBwd { .. } => {
                    (cur.flops, cur.seconds) = (cur.flops + fwd, cur.seconds + entry);
                    chain.pieces[0] = Some(cur);
                    cur = Piece {
                        kind: WorkKind::Backward,
                        flops: bwd,
                        seconds: half,
                    };
                }
                IrOp::Send { payload, .. } => {
                    cur.seconds += codec(ep.frame_bytes(s, payload, true))
                }
                // A flush barrier is never part of a chain.
                IrOp::ApplyUpdate { .. } if !is_async => break,
                IrOp::ApplyUpdate { .. } if self.sync_busy[w] && chain.pieces[0].is_none() => {
                    return None
                }
                IrOp::ApplyUpdate { .. } => {}
            }
            computes |= matches!(
                op,
                IrOp::Forward { .. } | IrOp::Backward { .. } | IrOp::FusedFwdLossBwd { .. }
            );
            post = !input || computes;
            chain.ops.end = i + 1;
        }
        if chain.ops.is_empty() {
            return None;
        }
        chain.pieces[usize::from(chain.pieces[0].is_some())] = Some(cur);
        Some(chain)
    }

    fn start_piece(&mut self, w: usize) {
        let chain = self.running[w].as_ref().expect("a running chain");
        let p = chain.pieces[chain.piece].expect("a piece to run");
        self.activities.push(Activity {
            left: p.flops + p.seconds * self.compute_rates[w],
            work: Work::Compute {
                worker: w,
                started: self.now,
            },
        });
    }

    /// Give idle workers their next ready chain, oldest epoch first.
    fn dispatch(&mut self) {
        for w in 0..self.workers.len() {
            // A worker that has nothing new to look at keeps waiting.
            if !self.dirty[w] {
                continue;
            }
            let idle = !self.dead[w] && self.running[w].is_none();
            let thawed = self.now >= self.ready_after[w] - 1e-9;
            if idle && thawed {
                self.dirty[w] = (0..self.epochs.len()).any(|e| self.try_chain(w, e));
            }
        }
    }

    /// Start the flush barrier once every live worker of the current
    /// epoch waits at the same `ApplyUpdate` (synchronous schedules): it
    /// runs the data-parallel gradient sync of the slowest stage.
    fn try_flush(&mut self) {
        let idle = self.flushing.is_none() && !self.cfg.schedule.is_async();
        if !idle || !self.current_epoch_feasible() {
            return;
        }
        let e = self.epochs.len() - 1;
        let live = &self.epochs[e].stage_workers;
        if live
            .iter()
            .flatten()
            .any(|&w| self.running[w].is_some() || !self.parked[w].is_empty())
        {
            return;
        }
        let mut at = None;
        for s in 0..live.len() {
            for k in 0..self.epochs[e].stage_workers[s].len() {
                let w = self.epochs[e].stage_workers[s][k];
                let Some(i) = self.seek(e, w) else {
                    return;
                };
                match self.epochs[e].program[s][i] {
                    IrOp::ApplyUpdate { mb, .. } if at.is_none_or(|v| v == mb) => at = Some(mb),
                    _ => return,
                }
            }
        }
        let mb = at.expect("a feasible epoch has workers");
        let p = &self.epochs[e].partition;
        let flush = (0..p.n_stages())
            .map(|s| {
                let bytes = p.stage_param_bytes(s, self.profile);
                self.cfg
                    .scheme
                    .sync_time(bytes, &p.stages[s].workers, &self.state)
                    / self.cfg.framework.comm_efficiency
            })
            .fold(0.0_f64, f64::max);
        self.flushing = Some((e, mb));
        self.activities.push(Activity {
            left: flush.max(1e-12),
            work: Work::Flush,
        });
    }

    /// The flush landed: every stage applies the mini-batch's update and
    /// the mini-batch completes.
    fn on_flush_done(&mut self) {
        let Some((e, mb)) = self.flushing.take() else {
            return;
        };
        // Every replica of a stage waits at the same op.
        let heads: Vec<usize> = self.epochs[e].stage_workers.iter().map(|r| r[0]).collect();
        for (s, w) in heads.into_iter().enumerate() {
            let i = self.seek(e, w).expect("waits at the barrier");
            self.epochs[e].done[s][i] = true;
        }
        self.versions.iter_mut().for_each(|v| *v += 1);
        self.complete(self.epochs[e].unit(mb));
        self.dirty.fill(true);
    }

    fn complete(&mut self, unit: u64) {
        self.completed += 1;
        self.iterations.push(IterationRecord {
            iteration: unit,
            finish: self.now,
        });
    }

    fn on_compute_done(&mut self, worker: usize, started: f64) {
        self.busy[worker] += self.now - started;
        let Some(chain) = self.running[worker].as_mut() else {
            return; // stranded at the same instant
        };
        if self.cfg.record_timeline {
            self.segments.push(TimelineSegment {
                worker,
                unit: chain.wire,
                kind: chain.pieces[chain.piece].expect("the piece that ran").kind,
                start: started,
                end: self.now,
            });
        }
        chain.piece += 1;
        if chain.pieces.get(chain.piece).is_some_and(Option::is_some) {
            // Between a fused op's halves the worker is a dispatch point:
            // an older epoch's ready work goes first.
            self.parked[worker].extend(self.running[worker].take());
            self.dirty[worker] = true;
        } else {
            self.finish_chain(worker);
        }
    }

    /// Apply a finished chain's outputs in program order: completion,
    /// weight update (and its sync flow), sends.
    fn finish_chain(&mut self, w: usize) {
        let chain = self.running[w].take().expect("a finished chain");
        self.dirty[w] = true;
        let (e, s, unit) = (chain.epoch, chain.stage, chain.unit);
        for i in chain.ops {
            let op = self.epochs[e].program[s][i];
            match op {
                IrOp::Backward { .. } | IrOp::FusedFwdLossBwd { .. }
                    if s == 0 && self.cfg.schedule.is_async() =>
                {
                    let v = self.versions[0];
                    let fwd_v = self.fwd_versions.remove(&unit).unwrap_or(v);
                    self.staleness_sum += (v - fwd_v) as f64;
                    self.staleness_n += 1;
                    self.complete(unit);
                }
                IrOp::ApplyUpdate { .. } => {
                    self.versions[s] += 1;
                    self.launch_sync(w, e, s);
                }
                IrOp::Send { payload: p, .. } if p != Payload::WeightState => {
                    let ep = &self.epochs[e];
                    let to = if p == Payload::Act { s + 1 } else { s - 1 };
                    let (wire, bytes) = (ep.wire(op), ep.frame_bytes(s, p, true));
                    let reps = &ep.stage_workers[to];
                    if reps.is_empty() {
                        // The stage has no surviving replica: the unit is
                        // stranded and restarts from stage 0 once a
                        // feasible partition exists.
                        self.strand_unit(e, unit);
                        return;
                    }
                    let dest = reps[(wire % reps.len() as u64) as usize];
                    let links = self
                        .state
                        .topology
                        .path(self.workers[w], self.workers[dest]);
                    self.transfer(dest, links, bytes, Some((to, p, wire)));
                }
                _ => {}
            }
        }
    }

    /// Advance the simulation until `n_iterations` mini-batches complete.
    ///
    /// Fails with [`SimError::Deadlock`] when the pipeline can no longer
    /// make progress, instead of aborting the process.
    pub fn run(self, n_iterations: usize) -> Result<SimResult, SimError> {
        self.run_controlled(n_iterations, usize::MAX, |_, _, _, _| None)
    }

    /// Advance the simulation until `n_iterations` mini-batches complete,
    /// consulting `control` every `check_every` completed mini-batches.
    ///
    /// The callback receives the live cluster state, the completion count,
    /// the clock, and the measured speed (samples/sec) over the last
    /// window; `Some((partition, stall, global))` applies the partition
    /// **without stopping the pipeline** (§4.4): in-flight mini-batches
    /// drain on the old assignment, new ones use the new, and workers whose
    /// tasks changed (all, if `global`) freeze for `stall` seconds.
    pub fn run_controlled<F>(
        mut self,
        n_iterations: usize,
        check_every: usize,
        mut control: F,
    ) -> Result<SimResult, SimError>
    where
        F: FnMut(&ClusterState, u64, f64, Option<f64>) -> Option<(Partition, f64, bool)>,
    {
        self.target = n_iterations as u64;
        self.epochs[0].load(self.cfg.schedule, self.target);
        let check = check_every.max(1) as u64;
        let mut next_check = check;
        let mut prev_mark: Option<(u64, f64)> = None;
        let mut steps = 0usize;
        while self.completed < self.target {
            steps += 1;
            // A fault (failure or recovery) consults the controller out of
            // band: an emergency repartition cannot wait for the next
            // completion milestone — completions may never come.
            if std::mem::take(&mut self.fault_consult) {
                if let Some((p, stall, global)) =
                    control(&self.state, self.completed, self.now, None)
                {
                    self.switch_partition(p, stall, global);
                }
            }
            self.tick(steps)?;
            let done = self.completed;
            if done >= next_check && done < self.target {
                next_check = done.saturating_add(check);
                let measured = prev_mark.map(|(units, at)| {
                    (done - units) as f64 * self.profile.batch as f64 / (self.now - at).max(1e-9)
                });
                prev_mark = Some((done, self.now));
                if let Some((p, stall, global)) = control(&self.state, done, self.now, measured) {
                    self.switch_partition(p, stall, global);
                }
            }
        }
        Ok(self.finish(steps as u64))
    }

    /// Apply a new partition live.
    ///
    /// A structurally invalid proposal, one naming a worker outside the
    /// job, or any switch under a flush schedule is rejected (recorded as
    /// [`FaultRecord::SwitchRejected`]) rather than panicking mid-run:
    /// fault-path controllers synthesize emergency partitions, and the
    /// engine is the last line of defense.
    fn switch_partition(&mut self, new: Partition, stall: f64, global_stall: bool) {
        if !self.cfg.schedule.is_async()
            || new.validate(self.profile.n_layers()).is_err()
            || new
                .all_workers()
                .iter()
                .any(|g| !self.worker_index.contains_key(g))
        {
            self.fault_log
                .push(FaultRecord::SwitchRejected { at: self.now });
            return;
        }
        let old = self.current_epoch().partition.clone();
        // Stage counts may differ (merge/split moves); in-flight units keep
        // their own epoch's stage indices, so only the per-stage version
        // vector needs to cover the widest epoch.
        if new.n_stages() > self.versions.len() {
            let top = self.versions.iter().copied().max().unwrap_or(0);
            self.versions.resize(new.n_stages(), top);
        }
        // Freeze every worker whose layer assignment changed for the
        // migration stall (two workers for AutoPipe's incremental moves);
        // a stop-and-restart switch freezes everyone.
        let assigned =
            |p: &Partition, g: GpuId| p.stage_of_worker(g).map(|s| p.stages[s].layers.clone());
        let affected: Vec<usize> = (0..self.workers.len())
            .filter(|&w| {
                global_stall || assigned(&old, self.workers[w]) != assigned(&new, self.workers[w])
            })
            .collect();
        for &w in &affected {
            self.ready_after[w] = self.ready_after[w].max(self.now + stall);
        }
        self.open_epoch(new);
        if stall > 0.0 {
            // While the migration is in flight, a death of an affected
            // worker aborts and rolls back the switch.
            self.active_migration = Some(ActiveMigration {
                from: old,
                epoch: self.epochs.len() - 1,
                started: self.now,
                ends: self.now + stall,
                affected,
            });
            self.activities.push(Activity {
                left: stall,
                work: Work::Timer,
            });
        }
    }

    /// Make `partition` current: close the current epoch at the admission
    /// counter (its unadmitted units move here) and, if the new regime is
    /// feasible, restart every stranded unit at the head of its program.
    /// Dead workers the partition still names get no work.
    fn open_epoch(&mut self, partition: Partition) {
        let mut ep = Epoch::build(partition, self.profile, self.micro, &self.worker_index);
        for reps in &mut ep.stage_workers {
            reps.retain(|&w| !self.dead[w]);
        }
        let admitted = self.admitted;
        let cur = self.epochs.last_mut().expect("at least the initial epoch");
        cur.cancel(|u| u >= admitted);
        ep.fresh_start = admitted;
        if !self.stranded.is_empty() && !ep.stage_workers.iter().any(Vec::is_empty) {
            ep.carried = std::mem::take(&mut self.stranded).into_iter().collect();
            self.fault_log.push(FaultRecord::UnitsRestarted {
                count: ep.carried.len(),
                at: self.now,
            });
        }
        ep.load(self.cfg.schedule, self.target);
        self.epochs.push(ep);
        self.dirty.fill(true);
    }

    /// Mark `unit` of epoch `e` stranded and purge its pending ops,
    /// frames, transfers and running chain. Its id stays live — it
    /// restarts from stage 0 later, never silently dropped.
    fn strand_unit(&mut self, e: usize, unit: u64) {
        if !self.stranded.insert(unit) {
            return;
        }
        self.epochs[e].cancel(|u| u == unit);
        let micro = self.micro;
        let mine = |c: &Chain| c.epoch == e && c.unit == unit;
        self.arrived.remove_unit(unit, micro);
        let running = &self.running;
        self.activities.retain(|a| match &a.work {
            Work::Transfer { frame: Some(k), .. } => k.2 / micro != unit,
            Work::Compute { worker, .. } => !running[*worker].as_ref().is_some_and(mine),
            _ => true,
        });
        for w in 0..self.workers.len() {
            self.running[w].take_if(|c| mine(c));
            self.parked[w].retain(|c| !mine(c));
        }
        self.fwd_versions.remove(&unit);
        self.dirty.fill(true);
    }

    /// Strand every admitted unit with a pending op at a stage `at`
    /// selects, in epochs `from..`.
    fn strand_where(&mut self, from: usize, at: impl Fn(&Epoch, usize) -> bool) {
        let mut units = BTreeSet::new();
        for (e, ep) in self.epochs.iter().enumerate().skip(from) {
            for s in (0..ep.program.len()).filter(|&s| at(ep, s)) {
                for (op, &done) in ep.program[s].iter().zip(&ep.done[s]) {
                    let u = ep.unit(op_unit(*op).0);
                    if !done && u < self.admitted {
                        units.insert((e, u));
                    }
                }
            }
        }
        for (e, u) in units {
            self.strand_unit(e, u);
        }
    }

    /// Handle a fail-stop death of `g`: abort its work (survivors pick up
    /// its pending ops), roll back a vulnerable in-flight migration, shed
    /// the worker from every partition regime, and strand units whose
    /// stage lost its last replica.
    fn fail_worker(&mut self, g: GpuId) {
        let Some(&w) = self.worker_index.get(&g) else {
            return; // not one of this job's workers
        };
        if self.dead[w] {
            return;
        }
        self.dead[w] = true;
        self.fault_log.push(FaultRecord::WorkerFailed {
            worker: g,
            at: self.now,
        });
        self.fault_consult = true;
        self.dirty.fill(true);
        // Its running chain is lost and its ops return to the program for
        // a survivor.
        self.sync_busy[w] = false;
        self.activities
            .retain(|a| !matches!(a.work, Work::Compute { worker, .. } if worker == w));
        let mut lost = std::mem::take(&mut self.parked[w]);
        lost.extend(self.running[w].take());
        for chain in lost {
            for i in chain.ops.clone() {
                self.epochs[chain.epoch].done[chain.stage][i] = false;
            }
            if let Some(k) = chain.consumed {
                self.arrived.insert(k);
            }
        }
        // Shed the worker; its stage's survivors rescan for the ops they
        // now own.
        for ep in &mut self.epochs {
            if let Some(s) = ep.stage_of[w] {
                ep.stage_workers[s].retain(|&r| r != w);
                ep.assign_owners(s);
                ep.cursor.fill(0);
            }
        }
        // Mid-migration death of an affected worker aborts the switch.
        if let Some(m) = self.active_migration.clone() {
            if self.now < m.ends - 1e-9 && m.affected.contains(&w) {
                self.rollback_migration(&m, g);
            }
        }
        self.strand_where(0, |ep, s| ep.stage_workers[s].is_empty());
    }

    /// A failed worker comes back. It rejoins cold: no epoch references it
    /// until a later switch assigns it layers, so recovery alone never
    /// perturbs the running pipeline.
    fn recover_worker(&mut self, g: GpuId) {
        let Some(&w) = self.worker_index.get(&g) else {
            return;
        };
        if !self.dead[w] {
            return;
        }
        self.dead[w] = false;
        self.fault_log.push(FaultRecord::WorkerRecovered {
            worker: g,
            at: self.now,
        });
        self.fault_consult = true;
    }

    /// Undo a partial fine-grained migration after `victim` died inside
    /// the window. Completed steps revert in reverse stash-version order —
    /// within each moved layer the later active mini-batch's copy reverts
    /// first, the dual of the §4.4 forward order — which costs about as
    /// long as the partial copies took to make. Units the aborted regime
    /// admitted ran on a layer assignment that no longer exists, so they
    /// restart from stage 0 under the reinstated pre-switch partition.
    fn rollback_migration(&mut self, m: &ActiveMigration, victim: GpuId) {
        self.active_migration = None;
        let progress = ((self.now - m.started) / (m.ends - m.started).max(1e-12)).clamp(0.0, 1.0);
        let rollback = (self.now - m.started).max(0.0);
        self.strand_where(m.epoch, |_, _| true);
        // The aborted switch froze the affected workers until the window ends;
        // that freeze is void now — they are busy only for the rollback
        // copies. Override, don't max: the migration this freeze served
        // no longer exists.
        for &w in &m.affected {
            self.ready_after[w] = self.now + rollback;
        }
        if rollback > 0.0 {
            self.activities.push(Activity {
                left: rollback,
                work: Work::Timer,
            });
        }
        self.fault_log.push(FaultRecord::MigrationRolledBack {
            worker: victim,
            at: self.now,
            progress,
            rollback_seconds: rollback,
        });
        self.open_epoch(m.from.clone());
    }

    /// One simulation step: admit, dispatch, advance to the next event.
    fn tick(&mut self, steps: usize) -> Result<(), SimError> {
        const MAX_STEPS: usize = 50_000_000;
        if steps >= MAX_STEPS {
            return Err(SimError::StepBudgetExhausted { steps });
        }
        // A stage with zero survivors blocks the pipe; admitting would
        // only strand more units. Wait for a repartition.
        if self.current_epoch_feasible() {
            if !self.stranded.is_empty() {
                // Restart stranded units under the current partition.
                self.open_epoch(self.current_epoch().partition.clone());
            }
            let ep = self.epochs.last().expect("at least the initial epoch");
            // Below the target this stays inside the program's fresh range.
            let cap = self.completed + ep.partition.in_flight as u64;
            // Newly admitted units wake their stage-0 owners.
            let reps = &ep.stage_workers[0];
            for u in self.admitted..cap {
                self.dirty[reps[(u % reps.len() as u64) as usize]] = true;
            }
            self.admitted = self.admitted.max(cap);
        }
        self.dispatch();
        self.try_flush();
        let (done, target) = (self.completed, self.target);
        if self.activities.is_empty() {
            // Nothing runnable: only resource events can advance time.
            if let Some(t) = self.resources.next_event_after(self.res_cursor) {
                self.rates.clear();
                self.advance_to(t);
                return Ok(());
            }
            // Distinguish "a stage has no survivors" (worker loss nobody
            // repaired) from a structural deadlock.
            let at = self.now;
            return Err(
                match self
                    .current_epoch()
                    .stage_workers
                    .iter()
                    .position(Vec::is_empty)
                {
                    Some(stage) => SimError::WorkerLost {
                        stage,
                        at,
                        done,
                        target,
                    },
                    None => SimError::Deadlock { at, done, target },
                },
            );
        }
        // Earliest completion among activities at current rates.
        self.update_rates();
        let t_done = self
            .activities
            .iter()
            .zip(&self.rates)
            .map(|(a, r)| a.left / r.max(a.work.floor_and_slack().0))
            .fold(f64::INFINITY, f64::min);
        let mut t_complete = self.now + t_done.max(0.0);
        // At large `now` a nearly-drained activity can need a dt below the
        // f64 resolution of the clock (`now + dt == now`), which would stall
        // time forever. Nudge to the next representable instant so the
        // activity keeps draining and eventually collects.
        if t_complete == self.now && t_done > 0.0 {
            t_complete = f64::from_bits(self.now.to_bits() + 1);
        }
        // A resource event may land first.
        let t_next = match self.resources.next_event_after(self.res_cursor) {
            Some(te) if te < t_complete => te,
            _ => t_complete,
        };
        self.advance_to(t_next);
        Ok(())
    }

    fn finish(&mut self, events: u64) -> SimResult {
        SimResult {
            iterations: std::mem::take(&mut self.iterations),
            batch: self.profile.batch,
            busy: std::mem::take(&mut self.busy),
            makespan: self.now,
            segments: std::mem::take(&mut self.segments),
            mean_staleness: if self.staleness_n > 0 {
                self.staleness_sum / self.staleness_n as f64
            } else {
                0.0
            },
            faults: std::mem::take(&mut self.fault_log),
            events,
        }
    }

    /// Move time forward to `t`, draining activities at `rates` (one per
    /// activity, as [`Engine::update_rates`] set them at `now`) and
    /// applying any resource events at exactly `t`.
    fn advance_to(&mut self, t: f64) {
        let dt = t - self.now;
        debug_assert!(dt >= -1e-9, "time went backwards");
        // The busy set only changes at event boundaries, so the rates are
        // exact for the whole [now, t] interval.
        for (a, r) in self.activities.iter_mut().zip(&self.rates) {
            a.left -= r * dt;
        }
        self.now = t;

        // Apply resource events scheduled at or before t.
        let events: Vec<_> = self
            .resources
            .events_between(self.res_cursor, t)
            .iter()
            .map(|e| e.kind.clone())
            .collect();
        for k in &events {
            self.state.apply(k);
            self.observe_state();
            match k {
                EventKind::WorkerFail(g) => self.fail_worker(*g),
                EventKind::WorkerRecover(g) => self.recover_worker(*g),
                _ => {}
            }
        }
        self.res_cursor = self.res_cursor.max(t);
        // A migration window that elapsed without incident is no longer
        // vulnerable to rollback.
        if let Some(m) = &self.active_migration {
            if self.now >= m.ends - 1e-9 {
                self.active_migration = None;
            }
        }

        let mut done = std::mem::take(&mut self.finished);
        done.extend(
            self.activities
                .extract_if(.., |a| a.left <= a.work.floor_and_slack().1),
        );
        for a in done.drain(..) {
            match a.work {
                Work::Compute { worker, started } => self.on_compute_done(worker, started),
                Work::Transfer {
                    frame: Some(k),
                    worker,
                    ..
                } => {
                    self.arrived.insert(k);
                    self.dirty[worker] = true;
                }
                // A replica's sync landed; its next update may start.
                Work::Transfer { worker, .. } => {
                    self.sync_busy[worker] = false;
                    self.dirty[worker] = true;
                }
                // A migration freeze may have ended.
                Work::Timer => self.dirty.fill(true),
                Work::Flush => self.on_flush_done(),
            }
        }
        self.finished = done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Stage;
    use ap_cluster::gpu::GpuKind;
    use ap_cluster::{gbps, ClusterTopology, EventKind};
    use ap_models::{synthetic_uniform, ModelProfile};

    fn run_simple(
        schedule: ScheduleKind,
        n_iters: usize,
        link_gbps: f64,
        record: bool,
    ) -> SimResult {
        let topo = ClusterTopology::single_switch(4, 1, GpuKind::P100, link_gbps);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..2, vec![GpuId(0)]),
                Stage::new(2..4, vec![GpuId(1)]),
                Stage::new(4..6, vec![GpuId(2)]),
                Stage::new(6..8, vec![GpuId(3)]),
            ],
            in_flight: 4,
        };
        let cfg = EngineConfig {
            schedule,
            record_timeline: record,
            ..EngineConfig::default()
        };
        // Profile is borrowed by the engine; keep it alive in this frame.
        let state = ClusterState::new(topo);
        let eng =
            Engine::new(&profile, partition, state, ResourceTimeline::empty(), cfg).expect("valid");
        eng.run(n_iters).expect("run")
    }

    #[test]
    fn every_schedule_completes_its_mini_batches_deterministically() {
        for kind in ScheduleKind::zoo() {
            let r = run_simple(kind, 20, 100.0, false);
            assert_eq!(r.iterations.len(), 20, "{}", kind.label());
            for w in r.iterations.windows(2) {
                assert!(w[1].finish >= w[0].finish, "{}", kind.label());
            }
            assert!(r.throughput() > 0.0);
            let again = run_simple(kind, 20, 100.0, false);
            assert_eq!(r.makespan.to_bits(), again.makespan.to_bits());
            for (a, b) in r.iterations.iter().zip(&again.iterations) {
                assert_eq!(a.finish.to_bits(), b.finish.to_bits(), "{}", kind.label());
            }
        }
    }

    #[test]
    fn every_schedule_completes_on_replicated_stages() {
        // Round-robin ownership with more replicas than micro-batches
        // leaves some replicas idle for a whole mini-batch; they still
        // meet the flush barrier, and nothing runs twice. Below a
        // replicated stage a shallow admission depth still lets every
        // warmup forward in.
        let topo = ClusterTopology::single_switch(8, 1, GpuKind::P100, 25.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let shapes: [(&[usize], usize); 9] = [
            (&[2, 1], 4),
            (&[1, 2], 4),
            (&[2, 2], 4),
            (&[5, 3], 4),
            (&[7, 1], 4),
            (&[2, 1, 1], 1),
            (&[2, 1, 1], 2),
            (&[1, 2, 1], 1),
            (&[3, 2, 1, 1], 2),
        ];
        for (replicas, in_flight) in shapes {
            let n = replicas.len();
            let mut first = 0;
            let stages = replicas
                .iter()
                .enumerate()
                .map(|(s, &r)| {
                    first += r;
                    Stage::new(
                        s * 8 / n..(s + 1) * 8 / n,
                        (first - r..first).map(GpuId).collect(),
                    )
                })
                .collect();
            let partition = Partition { stages, in_flight };
            for kind in ScheduleKind::zoo() {
                let cfg = EngineConfig {
                    schedule: kind,
                    ..EngineConfig::default()
                };
                let state = ClusterState::new(topo.clone());
                let r = Engine::new(
                    &profile,
                    partition.clone(),
                    state,
                    ResourceTimeline::empty(),
                    cfg,
                )
                .expect("valid")
                .run(10)
                .unwrap_or_else(|e| panic!("{replicas:?}@{in_flight} {}: {e}", kind.label()));
                let mut ids: Vec<u64> = r.iterations.iter().map(|i| i.iteration).collect();
                ids.sort_unstable();
                // Completions landing at the run's last instant may overshoot.
                let ctx = format!("{replicas:?}@{in_flight} {}", kind.label());
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ctx}: {ids:?}");
                assert_eq!(ids[..10], (0..10).collect::<Vec<u64>>(), "{ctx}");
            }
        }
    }

    #[test]
    fn compute_order_follows_the_program() {
        // One replica per stage, no faults: each worker's recorded compute
        // order is a prefix of its stage's compute ops in the IR program
        // (a fused op shows its forward then its backward half).
        for kind in ScheduleKind::zoo() {
            let r = run_simple(kind, 10, 100.0, true);
            let m = kind.micro_batches() as u64;
            let program = ap_ir::generate(kind, 4, 14, 4);
            for (w, sp) in program.stages.iter().enumerate() {
                let wire = |u: ap_ir::UnitId| u.mb * m + u.micro as u64;
                let expected: Vec<(WorkKind, u64)> = sp
                    .ops
                    .iter()
                    .flat_map(|op| match *op {
                        IrOp::Forward { unit } => vec![(WorkKind::Forward, wire(unit))],
                        IrOp::Backward { unit } => vec![(WorkKind::Backward, wire(unit))],
                        IrOp::FusedFwdLossBwd { unit } => vec![
                            (WorkKind::Forward, wire(unit)),
                            (WorkKind::Backward, wire(unit)),
                        ],
                        _ => vec![],
                    })
                    .collect();
                let mut segs: Vec<_> = r.segments.iter().filter(|s| s.worker == w).collect();
                segs.sort_by(|a, b| a.start.total_cmp(&b.start));
                let got: Vec<(WorkKind, u64)> = segs.iter().map(|s| (s.kind, s.unit)).collect();
                assert!(
                    got.len() >= 2 * 10 * m as usize,
                    "{} stage {w}",
                    kind.label()
                );
                assert_eq!(got, expected[..got.len()], "{} stage {w}", kind.label());
            }
        }
    }

    #[test]
    fn one_compute_slot_removes_the_pipelining_win() {
        // Same 4-stage pipeline, but a calibration says all four
        // "workers" are threads sharing one core. Processor sharing is
        // work-conserving, so throughput collapses to roughly the
        // serialized sum of stage work — within a few percent of the
        // in_flight=1 schedule on the same host — while the uncontended
        // run keeps its ~4x pipelining win.
        let topo = ClusterTopology::single_switch(4, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let mk = |in_flight| Partition {
            stages: vec![
                Stage::new(0..2, vec![GpuId(0)]),
                Stage::new(2..4, vec![GpuId(1)]),
                Stage::new(4..6, vec![GpuId(2)]),
                Stage::new(6..8, vec![GpuId(3)]),
            ],
            in_flight,
        };
        let run = |p: Partition, slots: usize| {
            let calibration = (slots > 0).then(|| {
                let mut c = Calibration::zero();
                c.compute_slots = slots;
                c
            });
            Engine::new(
                &profile,
                p,
                ClusterState::new(topo.clone()),
                ResourceTimeline::empty(),
                EngineConfig {
                    calibration,
                    ..EngineConfig::default()
                },
            )
            .expect("valid")
            .run(30)
            .expect("run")
            .steady_throughput(8)
        };
        let uncontended = run(mk(4), 0);
        let one_core = run(mk(4), 1);
        let sequential = run(mk(1), 1);
        assert!(
            uncontended > 2.5 * one_core,
            "one slot should erase the pipeline win: {one_core} vs {uncontended}"
        );
        let ratio = one_core / sequential;
        assert!(
            (0.9..1.5).contains(&ratio),
            "one-core pipelining should track serialized execution: \
             pipelined {one_core} vs sequential {sequential}"
        );
        // Plenty of slots behaves exactly like no calibration at all.
        let roomy = run(mk(4), 4);
        assert!(
            (roomy / uncontended - 1.0).abs() < 1e-9,
            "{roomy} vs {uncontended}"
        );
        // Codec, stash and dispatch terms charge their ops extra time.
        let costly = Engine::new(
            &profile,
            mk(4),
            ClusterState::new(topo.clone()),
            ResourceTimeline::empty(),
            EngineConfig {
                calibration: Some(Calibration {
                    per_frame_s: 2e-3,
                    per_byte_s: 1e-9,
                    stage_overhead_s: 2e-2,
                    stash_byte_s: 5e-10,
                    compute_slots: 0,
                }),
                ..EngineConfig::default()
            },
        )
        .expect("valid")
        .run(30)
        .expect("run")
        .steady_throughput(8);
        assert!(costly < uncontended, "{costly} vs {uncontended}");
    }

    #[test]
    fn pipeline_beats_single_gpu_model_parallelism() {
        // 4-stage pipeline with in_flight=4 must beat in_flight=1 (pure
        // model parallelism) by roughly the stage count.
        let topo = ClusterTopology::single_switch(4, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let mk = |in_flight| Partition {
            stages: vec![
                Stage::new(0..2, vec![GpuId(0)]),
                Stage::new(2..4, vec![GpuId(1)]),
                Stage::new(4..6, vec![GpuId(2)]),
                Stage::new(6..8, vec![GpuId(3)]),
            ],
            in_flight,
        };
        let run = |p: Partition| {
            Engine::new(
                &profile,
                p,
                ClusterState::new(topo.clone()),
                ResourceTimeline::empty(),
                EngineConfig::default(),
            )
            .expect("valid")
            .run(30)
            .expect("run")
            .steady_throughput(8)
        };
        let pipelined = run(mk(4));
        let sequential = run(mk(1));
        assert!(
            pipelined > 3.0 * sequential,
            "pipelining should ~4x: {sequential} -> {pipelined}"
        );
    }

    #[test]
    fn startup_then_steady_utilization() {
        let r = run_simple(ScheduleKind::PipeDreamAsync, 40, 100.0, true);
        let util = r.utilization();
        // Last stage turns around immediately; all workers should be busy
        // most of the time in a balanced pipeline.
        assert!(util.iter().all(|&u| u > 0.5), "{util:?}");
        assert!(!r.segments.is_empty());
        // Segments never overlap per worker.
        for w in 0..4 {
            let mut segs: Vec<_> = r.segments.iter().filter(|s| s.worker == w).collect();
            segs.sort_by(|a, b| a.start.total_cmp(&b.start));
            for pair in segs.windows(2) {
                assert!(pair[1].start >= pair[0].end - 1e-9);
            }
        }
    }

    #[test]
    fn staleness_bounded_by_in_flight() {
        let r = run_simple(ScheduleKind::PipeDreamAsync, 50, 100.0, false);
        assert!(r.mean_staleness <= 4.0 + 1e-9);
        assert!(r.mean_staleness > 0.0, "deep pipeline must show staleness");
    }

    #[test]
    fn sync_schedule_completes_and_is_slower_than_async() {
        let tp = |kind| run_simple(kind, 12, 100.0, false).steady_throughput(2);
        let a = tp(ScheduleKind::PipeDreamAsync);
        let g = run_simple(ScheduleKind::Dapple { micro_batches: 4 }, 12, 100.0, false);
        assert_eq!(g.iterations.len(), 12);
        assert!(g.steady_throughput(2) < a);
        assert_eq!(g.mean_staleness, 0.0);
        // GPipe pays the recompute tax on top of the same bubble, and
        // more micro-batches shrink its bubble.
        let gpipe = |m| tp(ScheduleKind::GPipe { micro_batches: m });
        assert!(gpipe(4) < g.steady_throughput(2));
        assert!(gpipe(8) > gpipe(2));
    }

    #[test]
    fn bandwidth_drop_slows_the_speed_series() {
        let topo = ClusterTopology::single_switch(4, 1, GpuKind::P100, 10.0);
        // Communication-heavy synthetic model.
        let model = synthetic_uniform(8, 5e8, 60e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 2,
        };
        let mut tl = ResourceTimeline::empty();
        // Halve bandwidth "mid-training" (iterations complete in ~3.3 s
        // pairs, so t=30 lands around iteration 9).
        tl.push(30.0, EventKind::ScaleAllLinks(0.5));
        let r = Engine::new(
            &profile,
            partition,
            ClusterState::new(topo),
            tl,
            EngineConfig::default(),
        )
        .expect("valid")
        .run(40)
        .expect("run");
        let series = r.speed_series(2);
        let early: Vec<f64> = series
            .iter()
            .filter(|&&(i, _)| i < 8)
            .map(|&(_, s)| s)
            .collect();
        let late: Vec<f64> = series
            .iter()
            .filter(|&&(i, _)| i > 24)
            .map(|&(_, s)| s)
            .collect();
        assert!(!early.is_empty() && !late.is_empty());
        let early = early.iter().sum::<f64>() / early.len() as f64;
        let late = late.iter().sum::<f64>() / late.len() as f64;
        assert!(
            late < 0.7 * early,
            "halved bandwidth must slow a comm-bound job: {early} -> {late}"
        );
    }

    #[test]
    fn contention_event_slows_compute_bound_job() {
        let topo = ClusterTopology::single_switch(2, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(4, 4e9, 1e6, 4e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..2, vec![GpuId(0)]),
                Stage::new(2..4, vec![GpuId(1)]),
            ],
            in_flight: 2,
        };
        let mut tl = ResourceTimeline::empty();
        tl.push(
            2.0,
            EventKind::JobArrive {
                id: ap_cluster::dynamics::BgJobId(1),
                gpus: vec![GpuId(0), GpuId(1)],
                net_bytes_per_sec: 0.0,
            },
        );
        let r = Engine::new(
            &profile,
            partition,
            ClusterState::new(topo),
            tl,
            EngineConfig::default(),
        )
        .expect("valid")
        .run(50)
        .expect("run");
        let series = r.speed_series(3);
        let early = series[1].1;
        let late = series.last().unwrap().1;
        assert!(
            (early / late - 2.0).abs() < 0.5,
            "2-way sharing should ~halve speed: {early} -> {late}"
        );
    }

    #[test]
    fn gpipe_drains_forwards_before_backwards() {
        let a = run_simple(ScheduleKind::GPipe { micro_batches: 4 }, 6, 100.0, true);
        // Within each worker's timeline, the first backward of an
        // iteration never precedes the last forward of that iteration by
        // construction of the phase preference; cheap proxy: GPipe is
        // slower than DAPPLE (recompute + worse overlap).
        let d = run_simple(ScheduleKind::Dapple { micro_batches: 4 }, 6, 100.0, false);
        assert!(a.steady_throughput(1) < d.steady_throughput(1));
    }

    #[test]
    fn live_switch_mid_run_reroutes_new_units() {
        // Start on a lopsided 2-stage plan; switch to the balanced one at
        // the 6th completion; the run finishes and speeds up.
        let topo = ClusterTopology::single_switch(2, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 1e5, 1e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let lopsided = Partition {
            stages: vec![
                Stage::new(0..1, vec![GpuId(0)]),
                Stage::new(1..8, vec![GpuId(1)]),
            ],
            in_flight: 6,
        };
        let balanced = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 6,
        };
        let mut switched = false;
        let r = Engine::new(
            &profile,
            lopsided,
            ClusterState::new(topo),
            ResourceTimeline::empty(),
            EngineConfig::default(),
        )
        .expect("valid")
        .run_controlled(40, 6, |_, _, _, _| {
            if switched {
                None
            } else {
                switched = true;
                Some((balanced.clone(), 0.001, false))
            }
        })
        .expect("run");
        assert!(switched);
        assert!(r.iterations.len() >= 40);
        for w in r.iterations.windows(2) {
            assert!(w[1].finish >= w[0].finish - 1e-9);
        }
        // Tail (post-switch, drained) runs ~2x the lopsided head.
        let head = 5.0 * 32.0 / (r.iterations[5].finish - r.iterations[0].finish);
        let last = r.iterations.len() - 1;
        let tail = 5.0 * 32.0 / (r.iterations[last].finish - r.iterations[last - 5].finish);
        assert!(
            tail > 1.3 * head,
            "live switch should speed the tail: {head:.1} -> {tail:.1}"
        );
    }

    #[test]
    fn replicated_stage_survives_one_replica_failing() {
        // Stage 0 is 2-way replicated; killing one replica mid-run re-homes
        // its work onto the survivor and every mini-batch still completes.
        let topo = ClusterTopology::single_switch(3, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0), GpuId(1)]),
                Stage::new(4..8, vec![GpuId(2)]),
            ],
            in_flight: 3,
        };
        let mut tl = ResourceTimeline::empty();
        tl.push(2.0, EventKind::WorkerFail(GpuId(1)));
        let r = Engine::new(
            &profile,
            partition,
            ClusterState::new(topo),
            tl,
            EngineConfig::default(),
        )
        .expect("valid")
        .run(30)
        .expect("survives replica loss");
        let mut ids: Vec<u64> = r.iterations.iter().map(|i| i.iteration).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..30).collect::<Vec<u64>>(), "no mini-batch lost");
        assert!(r
            .faults
            .iter()
            .any(|f| matches!(f, FaultRecord::WorkerFailed { worker, .. } if *worker == GpuId(1))));
    }

    #[test]
    fn sole_worker_loss_is_a_typed_error_not_a_wedge() {
        let topo = ClusterTopology::single_switch(2, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 2,
        };
        let mut tl = ResourceTimeline::empty();
        tl.push(1.0, EventKind::WorkerFail(GpuId(1)));
        let err = Engine::new(
            &profile,
            partition,
            ClusterState::new(topo),
            tl,
            EngineConfig::default(),
        )
        .expect("valid")
        .run(1000)
        .expect_err("an unrepaired stage loss must error");
        assert!(
            matches!(err, SimError::WorkerLost { stage: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn controlled_run_repartitions_around_a_dead_worker() {
        let topo = ClusterTopology::single_switch(2, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 2,
        };
        let solo = Partition {
            stages: vec![Stage::new(0..8, vec![GpuId(0)])],
            in_flight: 1,
        };
        let mut tl = ResourceTimeline::empty();
        tl.push(1.5, EventKind::WorkerFail(GpuId(1)));
        let mut emergencies = 0;
        let r = Engine::new(
            &profile,
            partition,
            ClusterState::new(topo),
            tl,
            EngineConfig::default(),
        )
        .expect("valid")
        .run_controlled(30, 5, |state, _, _, _| {
            if state.failed_workers().contains(&GpuId(1)) && emergencies == 0 {
                emergencies += 1;
                Some((solo.clone(), 0.01, false))
            } else {
                None
            }
        })
        .expect("emergency repartition must save the run");
        assert_eq!(emergencies, 1, "fault consult must fire out of band");
        let mut ids: Vec<u64> = r.iterations.iter().map(|i| i.iteration).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..30).collect::<Vec<u64>>(), "no mini-batch lost");
        // Units stranded at the dead stage were restarted, not dropped.
        assert!(r
            .faults
            .iter()
            .any(|f| matches!(f, FaultRecord::UnitsRestarted { count, .. } if *count > 0)));
    }

    #[test]
    fn mid_migration_failure_rolls_back_and_recovers() {
        let topo = ClusterTopology::single_switch(2, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 1e5, 1e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let lopsided = Partition {
            stages: vec![
                Stage::new(0..1, vec![GpuId(0)]),
                Stage::new(1..8, vec![GpuId(1)]),
            ],
            in_flight: 4,
        };
        let balanced = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 4,
        };
        let solo = Partition {
            stages: vec![Stage::new(0..8, vec![GpuId(0)])],
            in_flight: 1,
        };
        // GpuId(1) dies at t=50, long before the (enormous) migration
        // window closes — the switch must roll back, then the emergency
        // repartition onto GpuId(0) saves the run.
        let mut tl = ResourceTimeline::empty();
        tl.push(50.0, EventKind::WorkerFail(GpuId(1)));
        let mut phase = 0;
        let r = Engine::new(
            &profile,
            lopsided,
            ClusterState::new(topo),
            tl,
            EngineConfig::default(),
        )
        .expect("valid")
        .run_controlled(40, 4, |state, _, _, _| {
            if state.failed_workers().contains(&GpuId(1)) {
                if phase < 2 {
                    phase = 2;
                    return Some((solo.clone(), 0.01, false));
                }
                return None;
            }
            if phase == 0 {
                phase = 1;
                // A migration "in flight" for a very long time: both
                // workers' assignments change, so both are vulnerable.
                return Some((balanced.clone(), 1e6, false));
            }
            None
        })
        .expect("rollback + emergency repartition must save the run");
        assert_eq!(phase, 2);
        let rolled: Vec<_> = r
            .faults
            .iter()
            .filter(|f| matches!(f, FaultRecord::MigrationRolledBack { .. }))
            .collect();
        assert_eq!(rolled.len(), 1, "exactly one rollback: {:?}", r.faults);
        if let FaultRecord::MigrationRolledBack {
            worker, progress, ..
        } = rolled[0]
        {
            assert_eq!(*worker, GpuId(1));
            assert!((0.0..1.0).contains(progress));
        }
        let mut ids: Vec<u64> = r.iterations.iter().map(|i| i.iteration).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<u64>>(), "no mini-batch lost");
    }

    #[test]
    fn switch_naming_an_unknown_worker_is_rejected_not_a_panic() {
        let topo = ClusterTopology::single_switch(3, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 2,
        };
        // GpuId(2) exists in the cluster but is not part of this job.
        let bogus = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(2)]),
            ],
            in_flight: 2,
        };
        let mut asked = false;
        let r = Engine::new(
            &profile,
            partition,
            ClusterState::new(topo),
            ResourceTimeline::empty(),
            EngineConfig::default(),
        )
        .expect("valid")
        .run_controlled(20, 5, |_, _, _, _| {
            if asked {
                None
            } else {
                asked = true;
                Some((bogus.clone(), 0.01, false))
            }
        })
        .expect("rejected switch must not sink the run");
        assert!(r
            .faults
            .iter()
            .any(|f| matches!(f, FaultRecord::SwitchRejected { .. })));
        assert_eq!(r.iterations.len(), 20);
    }

    #[test]
    fn recovered_worker_rejoins_on_the_next_switch() {
        let topo = ClusterTopology::single_switch(2, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let two = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 2,
        };
        let solo = Partition {
            stages: vec![Stage::new(0..8, vec![GpuId(0)])],
            in_flight: 1,
        };
        let mut tl = ResourceTimeline::empty();
        tl.push(1.0, EventKind::WorkerFail(GpuId(1)));
        tl.push(6.0, EventKind::WorkerRecover(GpuId(1)));
        let mut went_solo = false;
        let mut back = false;
        let r = Engine::new(
            &profile,
            two.clone(),
            ClusterState::new(topo),
            tl,
            EngineConfig::default(),
        )
        .expect("valid")
        .run_controlled(60, 5, |state, _, _, _| {
            if !state.is_available(GpuId(1)) {
                if !went_solo {
                    went_solo = true;
                    return Some((solo.clone(), 0.01, false));
                }
                return None;
            }
            if went_solo && !back {
                back = true;
                return Some((two.clone(), 0.01, false));
            }
            None
        })
        .expect("recovery round trip");
        assert!(back, "controller must see the recovery");
        assert!(r.faults.iter().any(
            |f| matches!(f, FaultRecord::WorkerRecovered { worker, .. } if *worker == GpuId(1))
        ));
        assert_eq!(r.iterations.len(), 60);
    }

    #[test]
    fn gbps_sanity_for_transfer_dominated_pipeline() {
        // One cut of 125 MB at 10 Gbps (=1.25 GB/s) costs ~0.1 s per
        // direction; iteration time must be at least that.
        let topo = ClusterTopology::single_switch(2, 1, GpuKind::P100, 10.0);
        let model = synthetic_uniform(2, 1e6, 125e6 / 32.0, 1e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..1, vec![GpuId(0)]),
                Stage::new(1..2, vec![GpuId(1)]),
            ],
            in_flight: 2,
        };
        let r = Engine::new(
            &profile,
            partition,
            ClusterState::new(topo),
            ResourceTimeline::empty(),
            EngineConfig::default(),
        )
        .expect("valid")
        .run(10)
        .expect("run");
        let per_iter = r.makespan / 10.0;
        let floor = 125e6 / (gbps(10.0) * 0.92);
        assert!(
            per_iter >= floor * 0.9,
            "per_iter {per_iter} < floor {floor}"
        );
    }
}
