//! `cluster-churn`: the ap-sched control plane chewing through a seeded
//! trace of arrivals, departures, worker failures and recoveries, and NIC
//! flaps, one `ClusterScheduler::on_event` call at a time.
//!
//! The fabric has the largest scale of `repro cluster-bench` (125 servers
//! of 4 GPUs). Set-up builds the topology and the trace and pre-fills the
//! cluster to steady residency; the timed loop then delivers events. No
//! engine and no HTTP run here: this is admission, the contention index,
//! neighbourhood re-planning with the hill-climb proposal, the analytic
//! model and ap-mem. Quality is the live objective over the objective a
//! whole-world best-response reaches from the same state, sampled at
//! fixed event indices off the clock.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use ap_cluster::{ClusterState, ClusterTopology, FaultPlanConfig, GpuId, GpuKind};
use ap_models::{alexnet, synthetic_skewed, ModelProfile};
use ap_pipesim::Partition;
use ap_resilience::{Clock, SystemClock};
use ap_sched::tenancy::{MultiJobEnv, ProposePlan};
use ap_sched::trace::{generate, TimedEvent, TraceConfig, TraceEventKind};
use ap_sched::{AdmitOutcome, ClusterScheduler, JobId, SchedConfig, SchedCounters, SchedEvent};
use autopipe::HillClimbPlanner;

use crate::report::Run;
use crate::{trace, LoopClock, Opts};

// Fabric, arrival rate, lifetime, job sizes, adaptive share, fault plan
// and planner rounds are those of `repro cluster-bench` at its largest
// scale, 1000 jobs.
const SERVERS: usize = 125;
const GPUS_PER_SERVER: usize = 4;
const ARRIVAL_HZ: f64 = 1.0;
/// Mean job lifetime: steady residency ≈ half the GPU count in jobs.
const MEAN_DURATION_S: f64 = 0.5 * (SERVERS * GPUS_PER_SERVER) as f64;
/// Trace span of cluster-bench's 1000-job scale, seconds. Its fault
/// plan's rates are fractions of this span; they are kept as absolute
/// rates here, so a longer trace keeps the same fault density.
const BENCH_SPAN_S: f64 = 1000.0 / ARRIVAL_HZ + 3.0 * MEAN_DURATION_S;
/// Highest event rate the trace is sized for, events per second of the
/// timed loop: six to seven times the untraced rate measured on a
/// 2-vCPU x86-64 VM (720–880 events/s). A faster program that outruns it
/// fails the run's check instead of quietly stopping early.
const EVENT_RATE_CEILING: f64 = 5000.0;
/// Events delivered in pre-fill: about three job lifetimes of trace,
/// enough for residency to level off.
const PREFILL_EVENTS: usize = 1600;
/// Hill-climb rounds per proposal, as in `repro cluster-bench`.
const PLANNER_ROUNDS: usize = 8;
/// Events after pre-fill over which counters are taken; the timed loop
/// delivers at least this many, the traced passes exactly this many.
const COUNT_EVENTS: usize = 6000;
/// Loop event indices at which quality is sampled.
const QUALITY_AT: [usize; 3] = [1000, 3000, 5000];
/// Whole-world best-response rounds of a quality sample.
const QUALITY_ROUNDS: usize = 4;
const SETUPS: usize = 3;

const KINDS: [&str; 4] = ["arrive", "depart", "fault", "flap"];

fn palette() -> Vec<(&'static str, ModelProfile)> {
    vec![
        ("alexnet", ModelProfile::of(&alexnet())),
        (
            "synthetic-skewed",
            ModelProfile::with_batch(&synthetic_skewed(8, 2e9, 20e6, 8e6), 32),
        ),
        (
            "synthetic-wide",
            ModelProfile::with_batch(&synthetic_skewed(12, 4e9, 30e6, 12e6), 64),
        ),
    ]
}

/// The trace for a loop of `seconds`: each job gives an arrival and a
/// departure, and the steady part (up to the last arrival) must cover
/// pre-fill plus the loop at [`EVENT_RATE_CEILING`]. The margin covers
/// the departures still pending at the last arrival.
fn trace_config(seconds: f64) -> TraceConfig {
    let loop_events = (seconds * EVENT_RATE_CEILING).max(COUNT_EVENTS as f64) as usize;
    TraceConfig {
        n_jobs: (PREFILL_EVENTS + loop_events) / 2 + 1000,
        arrival_rate_hz: ARRIVAL_HZ,
        mean_duration_s: MEAN_DURATION_S,
        min_gpus: 1,
        max_gpus: 4,
        adaptive_fraction: 0.7,
        faults: Some(FaultPlanConfig {
            mtbf: BENCH_SPAN_S / 4.0,
            mttr: BENCH_SPAN_S / 8.0,
            max_concurrent_failures: 2,
            flap_mtbf: BENCH_SPAN_S / 3.0,
            flap_down_gbps: 2.0,
            flap_period: (BENCH_SPAN_S / 50.0).max(1.0),
            flap_count: 2,
        }),
    }
}

/// The hill-climb proposal inside a `planner.propose` span.
struct TimedPlanner(HillClimbPlanner);

impl ProposePlan for TimedPlanner {
    fn propose(
        &self,
        profile: &ModelProfile,
        current: &Partition,
        state: &ClusterState,
        env: &MultiJobEnv,
    ) -> Partition {
        trace::span("planner.propose", || {
            self.0.propose(profile, current, state, env)
        })
    }
}

fn planner(traced: bool) -> Box<dyn ProposePlan + Send> {
    let hc = HillClimbPlanner {
        rounds: PLANNER_ROUNDS,
    };
    if traced {
        Box::new(TimedPlanner(hc))
    } else {
        Box::new(hc)
    }
}

/// A scheduler fed from a trace, with the benchmark's own bookkeeping:
/// departure ordinals resolved to ids, the failed-GPU set, and tallies
/// the scheduler's counters must agree with.
struct Feed {
    sched: ClusterScheduler,
    events: Vec<TimedEvent>,
    next: usize,
    /// One past the trace's last arrival: after it only departures are
    /// left, so the loop stops there.
    steady_end: usize,
    ids: Vec<Option<JobId>>,
    failed: BTreeSet<GpuId>,
    delivered: u64,
    admitted: u64,
    rejected_at_arrival: u64,
}

impl Feed {
    fn setup(seed: u64, seconds: f64, traced: bool) -> Feed {
        let topo = ClusterTopology::single_switch(SERVERS, GPUS_PER_SERVER, GpuKind::P100, 25.0);
        let events = generate(&topo, &palette(), &trace_config(seconds), seed);
        let steady_end = 1 + events
            .iter()
            .rposition(|e| matches!(e.event, TraceEventKind::Arrive(_)))
            .unwrap_or(0);
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let sched = ClusterScheduler::new(topo, SchedConfig::default(), planner(traced), clock);
        let mut feed = Feed {
            sched,
            events,
            next: 0,
            steady_end,
            ids: Vec::new(),
            failed: BTreeSet::new(),
            delivered: 0,
            admitted: 0,
            rejected_at_arrival: 0,
        };
        while feed.next < PREFILL_EVENTS {
            feed.step();
        }
        feed
    }

    fn exhausted(&self) -> bool {
        self.next >= self.steady_end
    }

    /// Deliver the next trace event. Returns its kind index and latency,
    /// or `None` for a departure of an arrival that was rejected.
    fn step(&mut self) -> Option<(usize, f64, usize)> {
        let te = &self.events[self.next];
        self.next += 1;
        let (kind, ev) = match &te.event {
            TraceEventKind::Arrive(req) => (0, SchedEvent::Arrive(req.clone())),
            TraceEventKind::DepartOrdinal(o) => (1, SchedEvent::Depart(self.ids[*o]?)),
            TraceEventKind::WorkerFail(g) => {
                self.failed.insert(*g);
                (2, SchedEvent::WorkerFail(*g))
            }
            TraceEventKind::WorkerRecover(g) => {
                self.failed.remove(g);
                (2, SchedEvent::WorkerRecover(*g))
            }
            TraceEventKind::LinkFlapDown(s, g) => (3, SchedEvent::LinkFlapDown(*s, *g)),
            TraceEventKind::LinkFlapRestore(s) => (3, SchedEvent::LinkFlapRestore(*s)),
        };
        let t = Instant::now();
        let time = te.time;
        let out = trace::span("op", || {
            trace::span(
                ["sched.arrive", "sched.depart", "sched.fault", "sched.flap"][kind],
                || self.sched.on_event(time, &ev),
            )
        });
        let dt = t.elapsed().as_secs_f64();
        self.delivered += 1;
        if kind == 0 {
            match out.admit {
                Some(AdmitOutcome::Placed(id)) | Some(AdmitOutcome::Queued(id, _)) => {
                    self.admitted += 1;
                    self.ids.push(Some(id));
                }
                _ => {
                    self.rejected_at_arrival += 1;
                    self.ids.push(None);
                }
            }
        }
        Some((kind, dt, out.replan.neighborhood))
    }

    /// No resident job on a failed GPU; every admitted job is resident,
    /// queued, departed or finally rejected; every event was counted.
    fn check(&self, run: &mut Run) {
        for job in self.sched.jobs() {
            let bad = job
                .partition
                .all_workers()
                .into_iter()
                .find(|g| self.failed.contains(g));
            run.check(bad.is_none(), || {
                format!("job {:?} resident on failed {:?}", job.id, bad)
            });
        }
        let c = self.sched.counters();
        let rejected_later = c.rejected.saturating_sub(self.rejected_at_arrival);
        let live = self.admitted as i64 - c.completed as i64 - rejected_later as i64;
        let held = (self.sched.n_resident() + self.sched.n_queued()) as i64;
        run.check(live == held && c.events == self.delivered, || {
            format!(
                "counters do not add up: admitted {} completed {} rejected {} vs resident+queued {held}, events {} vs {}",
                self.admitted, c.completed, c.rejected, c.events, self.delivered
            )
        });
    }

    /// Live objective over the whole-world best-response objective, from
    /// forks of the current state.
    fn quality_sample(&self) -> f64 {
        let live = self.sched.fork(planner(false)).objective().value();
        let mut full = self.sched.fork(planner(false));
        full.full_replan(QUALITY_ROUNDS);
        let full = full.objective().value();
        if full > 0.0 {
            live / full
        } else {
            1.0
        }
    }
}

/// What a pass over the loop events saw.
#[derive(Default)]
struct Pass {
    latencies: Vec<f64>,
    neighborhood_sum: f64,
    counted_kinds: [u64; 4],
    quality: Vec<f64>,
    /// Scheduler counters when the counting window closed.
    window_end: Option<SchedCounters>,
    loop_s: f64,
    windows: Vec<crate::Window>,
    rss_samples: Vec<f64>,
    /// Seconds the shadow feed's events took.
    shadow_s: f64,
}

/// Deliver loop events to `feed`. A `shadow` feed (the untraced arm of a
/// traced pass) gets the same events in lockstep, with recording
/// suspended, alternating which of the two goes first.
fn pass(
    feed: &mut Feed,
    mut shadow: Option<&mut Feed>,
    min_events: usize,
    seconds: Option<f64>,
    run: &mut Run,
) -> Pass {
    let mut p = Pass::default();
    let mut clock = LoopClock::sampled();
    let mut i = 0usize;
    while !feed.exhausted() && (i < min_events || seconds.is_some_and(|s| clock.seconds() < s)) {
        let shadow_first = i % 2 == 1;
        let mut step_shadow = |p: &mut Pass| {
            if let Some(sh) = shadow.as_deref_mut() {
                let t = Instant::now();
                trace::suspended(|| sh.step());
                p.shadow_s += t.elapsed().as_secs_f64();
            }
        };
        if shadow_first {
            step_shadow(&mut p);
        }
        let stepped = feed.step();
        if !shadow_first {
            step_shadow(&mut p);
        }
        let Some((kind, dt, nb)) = stepped else {
            continue;
        };
        p.latencies.push(dt);
        if i < COUNT_EVENTS {
            p.counted_kinds[kind] += 1;
            p.neighborhood_sum += nb as f64;
        }
        clock.off(|| {
            feed.check(run);
            if QUALITY_AT.contains(&i) {
                p.quality.push(feed.quality_sample());
            }
            if i + 1 == COUNT_EVENTS {
                p.window_end = Some(feed.sched.counters());
            }
        });
        i += 1;
        clock.mark(i);
    }
    p.loop_s = clock.seconds();
    (p.windows, p.rss_samples) = clock.finish(i);
    let ran_out = feed.exhausted() && (i < min_events || seconds.is_some_and(|s| p.loop_s < s));
    run.check(!ran_out, || {
        format!("trace ran out after {i} loop events, before the loop was done")
    });
    p
}

/// End-to-end run (or, with `--trace 1`, the traced pass).
pub fn run(opts: &Opts) -> Result<Run, String> {
    let mut run = Run::default();
    let trace_s = opts.seconds.as_secs_f64();
    let mut feed = None;
    for _ in 0..if opts.traced { 1 } else { SETUPS } {
        let (f, s) = crate::timed_setup(|| Feed::setup(opts.seed, trace_s, opts.traced));
        run.setup_s.push(s);
        feed = Some(f);
    }
    let mut feed = feed.expect("at least one set-up");
    let mut shadow = opts.traced.then(|| Feed::setup(opts.seed, trace_s, false));
    let resident_after_prefill = feed.sched.n_resident();
    let before = feed.sched.counters();
    let seconds = (!opts.traced).then_some(trace_s);
    if opts.traced {
        trace::start();
    }
    let p = pass(&mut feed, shadow.as_mut(), COUNT_EVENTS, seconds, &mut run);
    let c = p.window_end.unwrap_or_else(|| feed.sched.counters());

    run.facts
        .push(("gpus".into(), (SERVERS * GPUS_PER_SERVER) as f64));
    run.facts.push((
        "resident_after_prefill".into(),
        resident_after_prefill as f64,
    ));
    run.facts.push((
        "trace_events_left".into(),
        (feed.steady_end - feed.next) as f64,
    ));
    let counted: u64 = p.counted_kinds.iter().sum();
    for (k, name) in KINDS.iter().enumerate() {
        run.mix(&format!("{name}_events"), p.counted_kinds[k] as f64);
        run.mix(
            &format!("{name}_share"),
            p.counted_kinds[k] as f64 / counted.max(1) as f64,
        );
    }
    run.quality = p.quality.iter().sum::<f64>() / p.quality.len().max(1) as f64;
    run.check(p.quality.len() == QUALITY_AT.len(), || {
        "quality samples missing".to_string()
    });
    run.latencies_s = p.latencies;
    run.loop_s = p.loop_s;
    run.windows = p.windows;
    run.rss_samples = p.rss_samples;
    run.attempted = run.latencies_s.len() as u64;

    if !opts.traced {
        // Counters over the counting window only: they repeat exactly.
        run.counter("placed", (c.placed - before.placed) as f64);
        run.counter("queued", (c.queued - before.queued) as f64);
        run.counter("rejected", (c.rejected - before.rejected) as f64);
        run.counter("evacuated", (c.evacuated - before.evacuated) as f64);
        run.counter(
            "replans_considered",
            (c.replans_considered - before.replans_considered) as f64,
        );
        run.counter("plans_moved", (c.plans_moved - before.plans_moved) as f64);
        return Ok(run);
    }

    let tr = trace::finish();
    crate::write_trace("cluster-churn", opts.seed, &tr);
    let sh = shadow
        .expect("traced pass has a shadow feed")
        .sched
        .counters();
    run.check(
        sh.placed == c.placed && sh.plans_moved == c.plans_moved,
        || "traced and untraced arms did different work".to_string(),
    );
    let stats = tr.stats();
    let mean_us = |name: &str| stats.get(name).map_or(0.0, |s| s.mean_us());
    let events = run.latencies_s.len().max(1) as f64;
    run.layer("sched.arrive_us", mean_us("sched.arrive"));
    run.layer("sched.depart_us", mean_us("sched.depart"));
    run.layer("sched.fault_us", mean_us("sched.fault"));
    run.layer("sched.flap_us", mean_us("sched.flap"));
    run.layer("planner.propose_us", mean_us("planner.propose"));
    run.layer(
        "planner.proposals_per_event",
        stats.get("planner.propose").map_or(0.0, |s| s.count as f64) / events,
    );
    run.layer("sched.neighborhood_mean", p.neighborhood_sum / events);
    let considered = (c.replans_considered - before.replans_considered) as f64;
    run.layer(
        "sched.moved_share",
        (c.plans_moved - before.plans_moved) as f64 / considered.max(1.0),
    );
    run.layer("sched.placed", (c.placed - before.placed) as f64);
    run.layer("sched.queued", (c.queued - before.queued) as f64);
    run.layer("sched.rejected", (c.rejected - before.rejected) as f64);
    run.layer("sched.evacuated", (c.evacuated - before.evacuated) as f64);
    let traced_s: f64 = run.latencies_s.iter().sum();
    run.layer("trace.overhead", traced_s / p.shadow_s.max(1e-9) - 1.0);
    run.layer("trace.unaccounted_share", tr.unaccounted_share("op"));
    Ok(run)
}
