//! What every workload hands back, and the result lines printed from it.
//!
//! Standard output carries three information lines (host facts, the
//! deterministic counters, the measured input mix) and then, as its last
//! line, the result object: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end metrics of an untraced run, or every
//! per-layer metric of a traced run.
//!
//! Times are reported on the vCPUs' own clock: wall time scaled by the
//! share of busy vCPU time the hypervisor did not steal over the same
//! interval. On a shared host that share moves by tens of percent from
//! minute to minute while the program's own speed does not; the raw
//! wall-clock figures and the steal share are printed with the facts.

use std::fmt::Write as _;

use crate::Window;

/// Per-layer metrics of a traced run, with their units. A metric of a
/// layer the workload never calls reads 0: that layer did no work.
pub const PER_LAYER: &[(&str, &str)] = &[
    // serve-plan
    ("json.parse_us", "us"),
    ("serve.validate_us", "us"),
    ("serve.key_us", "us"),
    ("cache.lookup_us", "us"),
    ("http.us", "us"),
    ("cache.insert_us", "us"),
    ("planner.seed_us", "us"),
    ("plan.refine_us", "us"),
    ("engine.verify_us", "us"),
    ("serve.respond_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("plan.candidates_scored", "count"),
    ("plan.switch_share", "ratio"),
    ("plan.infeasible_share", "ratio"),
    ("engine.runs_per_plan", "count"),
    ("engine.refined_won_share", "ratio"),
    // cluster-churn
    ("sched.arrive_us", "us"),
    ("sched.depart_us", "us"),
    ("sched.fault_us", "us"),
    ("sched.flap_us", "us"),
    ("planner.propose_us", "us"),
    ("planner.proposals_per_event", "count"),
    ("sched.neighborhood_mean", "count"),
    ("sched.moved_share", "ratio"),
    ("sched.placed", "count"),
    ("sched.queued", "count"),
    ("sched.rejected", "count"),
    ("sched.evacuated", "count"),
    // exec-train
    ("exec.stage_busy_share", "ratio"),
    ("nn.fwd_us", "us"),
    ("nn.bwd_us", "us"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("exec.wire_bytes_per_op", "bytes"),
    ("exec.peak_stage_bytes", "bytes"),
    ("exec.migration_s", "s"),
    ("exec.pipeline_speedup", "ratio"),
    // adapt-dynamic
    ("controller.decide_us", "us"),
    ("engine.sim_us_per_iter", "us"),
    ("controller.decisions", "count"),
    ("controller.candidates_scored", "count"),
    ("controller.switches", "count"),
    ("controller.reverts", "count"),
    ("arbiter.approve_share", "ratio"),
    ("switching.pause_s", "s"),
    // every workload
    ("trace.overhead", "ratio"),
    ("trace.unaccounted_share", "ratio"),
];

/// Per-layer times the program computes rather than measures (the
/// controller's modelled switch pauses). They repeat exactly for a seed
/// and are printed as computed, never scaled by steal.
const COMPUTED_TIMES: &[&str] = &["switching.pause_s"];

/// One workload run, untraced or traced.
#[derive(Debug, Default)]
pub struct Run {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of every timed operation, seconds.
    pub latencies_s: Vec<f64>,
    /// Seconds the timed loop ran, off-clock checks excluded.
    pub loop_s: f64,
    /// Steal windows of the timed loop, in order; the latencies of each
    /// window's ops and its rate are scaled by its own `1 - steal`.
    pub windows: Vec<Window>,
    /// Resident-set samples of the timed loop, MiB.
    pub rss_samples: Vec<f64>,
    /// Steal share of a pass that kept no windows (a traced pass); it
    /// scales the pass's per-layer times.
    pub steal_share: f64,
    /// Operations attempted in the timed loop.
    pub attempted: u64,
    /// Operations that failed (errors, sheds, degraded answers).
    pub failed: u64,
    /// The workload's deterministic quality ratio.
    pub quality: f64,
    /// Correctness checks that failed; any entry fails the run.
    pub errors: Vec<String>,
    /// Work counters that repeat exactly for a seed.
    pub counters: Vec<(String, f64)>,
    /// Measured input mix: shares and per-kind counts.
    pub mix: Vec<(String, f64)>,
    /// Facts the numbers depend on (thread and worker counts).
    pub facts: Vec<(String, f64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
}

impl Run {
    /// Record a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Add a deterministic counter.
    pub fn counter(&mut self, name: &str, value: f64) {
        self.counters.push((name.to_string(), value));
    }

    /// Add a mix share or per-kind count.
    pub fn mix(&mut self, name: &str, value: f64) {
        self.mix.push((name.to_string(), value));
    }

    /// Add a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.push((name, value));
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of a sorted sample, with the number of samples
/// strictly beyond its rank.
fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The tail rule: the highest of p90/p99/p99.9 with at least ten samples
/// beyond it (p90 when the sample is too small for any). Returns
/// `(percentile, value, samples beyond)`.
fn tail(latencies: &[f64]) -> (f64, f64, usize) {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    for p in [0.999, 0.99, 0.9] {
        let (v, beyond) = percentile(&sorted, p);
        if beyond >= 10 || p == 0.9 {
            return (p, v, beyond);
        }
    }
    unreachable!("p90 always returns")
}

/// A resident-set field of this process's `/proc/self/status`
/// (`VmHWM:` for the peak, `VmRSS:` for now), MiB.
pub fn rss_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn flat_object(pairs: &[(String, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{k}\": {}", num(*v));
    }
    out.push('}');
    out
}

/// Print the information lines and the result line for `run`.
pub fn print(workload: &str, seed: u64, traced: bool, run: &Run) {
    // Scale each op's latency, and each window's time, by the share of
    // vCPU time that was ours in that window.
    let mut ours_lat = Vec::with_capacity(run.latencies_s.len());
    let mut next = 0usize;
    let (mut wall_s, mut ours_s) = (0.0, 0.0);
    for w in &run.windows {
        let ours = 1.0 - w.steal;
        let end = (next + w.ops).min(run.latencies_s.len());
        ours_lat.extend(run.latencies_s[next..end].iter().map(|l| l * ours));
        next = end;
        wall_s += w.seconds;
        ours_s += w.seconds * ours;
    }
    ours_lat.extend(&run.latencies_s[next..]);
    let (tail_p, tail_v, beyond) = tail(&ours_lat);
    let steal_share = if run.windows.is_empty() {
        run.steal_share
    } else {
        1.0 - ours_s / wall_s.max(1e-9)
    };
    let ours = 1.0 - steal_share;
    let wall_ops_per_s = run.latencies_s.len() as f64 / run.loop_s.max(1e-9);
    let mut facts = run.facts.clone();
    facts.push(("tail_percentile".to_string(), tail_p * 100.0));
    facts.push(("tail_samples".to_string(), run.latencies_s.len() as f64));
    facts.push(("tail_beyond".to_string(), beyond as f64));
    facts.push(("windows".to_string(), run.windows.len() as f64));
    facts.push(("steal_share".to_string(), steal_share));
    facts.push(("wall_ops_per_s".to_string(), wall_ops_per_s));
    facts.push(("wall_p50_ms".to_string(), median(&run.latencies_s) * 1e3));
    facts.push(("wall_tail_ms".to_string(), tail(&run.latencies_s).1 * 1e3));
    facts.push(("peak_rss_mb".to_string(), rss_mb("VmHWM:")));
    println!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"traced\": {traced}, \"facts\": {}}}",
        flat_object(&facts)
    );
    println!("{{\"counters\": {}}}", flat_object(&run.counters));
    println!("{{\"mix\": {}}}", flat_object(&run.mix));
    for e in run.errors.iter().take(20) {
        eprintln!("perfbench: check failed: {e}");
    }
    if run.errors.len() > 20 {
        eprintln!("perfbench: ... {} failed checks in all", run.errors.len());
    }

    let metrics: Vec<(String, &str, f64)> = if traced {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = run
                    .layers
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                let v = if matches!(*unit, "us" | "s") && !COMPUTED_TIMES.contains(name) {
                    v * ours
                } else {
                    v
                };
                (name.to_string(), *unit, v)
            })
            .collect()
    } else {
        let attempted = run.attempted.max(1) as f64;
        vec![
            ("setup_s".into(), "s", median(&run.setup_s)),
            (
                "ops_per_s".into(),
                "1/s",
                run.latencies_s.len() as f64 / ours_s.max(1e-9),
            ),
            ("p50_ms".into(), "ms", median(&ours_lat) * 1e3),
            ("tail_ms".into(), "ms", tail_v * 1e3),
            ("quality".into(), "ratio", run.quality),
            ("rss_mb".into(), "MiB", median(&run.rss_samples)),
            (
                "ok_share".into(),
                "ratio",
                1.0 - run.failed as f64 / attempted,
            ),
        ]
    };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.errors.is_empty(),
        run.attempted.max(1),
        run.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*v)
        );
    }
    line.push_str("}}");
    println!("{line}");
}

/// Host-wide `(busy, steal)` jiffies from `/proc/stat`: the time the
/// vCPUs wanted to run (every state but idle and iowait, steal included),
/// and the part of it the hypervisor ran something else instead. An idle
/// vCPU is never stolen from, so steal is a share of busy time.
pub fn host_jiffies() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let v: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    if v.len() < 8 {
        return (0.0, 0.0);
    }
    let busy = v[0] + v[1] + v[2] + v[5] + v[6] + v[7];
    (busy, v[7])
}
