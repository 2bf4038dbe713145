//! `perfbench` — the repository's benchmark of its four user paths.
//!
//! ```text
//! perfbench --workload <serve-plan|cluster-churn|exec-train|adapt-dynamic>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop: one client in this process waits for
//! each answer before it sends the next request. Inputs are generated
//! from `--seed`; the program sees only the generated inputs. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1` a
//! separate traced pass reports the per-layer metrics (see
//! `perfbench/WORKLOADS.md`). A failed correctness check fails the run:
//! the result line says `"correct": false` and the exit code is 1.

mod adapt_dynamic;
mod cluster_churn;
mod exec_train;
mod report;
mod serve_plan;
mod trace;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: Duration,
    /// Run the traced pass instead of the end-to-end one.
    pub traced: bool,
}

const WORKLOADS: &[&str] = &["serve-plan", "cluster-churn", "exec-train", "adapt-dynamic"];

fn parse_args() -> Result<(String, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                traced = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok((
        workload,
        Opts {
            seed,
            seconds: Duration::from_secs_f64(seconds),
            traced,
        },
    ))
}

/// Seconds of loop time per steal window.
const WINDOW_S: f64 = 1.0;

/// One stretch of a timed loop, about [`WINDOW_S`] long.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Operations completed in the window.
    pub ops: usize,
    /// On-clock seconds.
    pub seconds: f64,
    /// Share of busy vCPU time the hypervisor stole meanwhile.
    pub steal: f64,
}

/// How often the resident set of a timed loop is sampled.
const RSS_EVERY: Duration = Duration::from_millis(50);

/// Samples this process's resident set (`VmRSS`, MiB) on a helper thread
/// every [`RSS_EVERY`], so memory held only while an op runs (a training
/// run's stage buffers, a cold plan's candidates) is seen too.
struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<f64>>>,
}

impl RssSampler {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            // Relaxed: the flag publishes no other data.
            while !flag.load(Ordering::Relaxed) {
                samples.push(report::rss_mb("VmRSS:"));
                std::thread::sleep(RSS_EVERY);
            }
            samples
        });
        RssSampler {
            stop,
            handle: Some(handle),
        }
    }

    fn finish(mut self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .map(|h| h.join().expect("resident-set sampler panicked"))
            .unwrap_or_default()
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Times a closed loop: wall time since the loop began, minus the
/// stretches spent on off-clock work (correctness checks, quality
/// baselines), cut into windows that each carry the host's steal share.
pub struct LoopClock {
    began: Instant,
    paused: Duration,
    jiffies: (f64, f64),
    window_began: (f64, usize, (f64, f64)),
    windows: Vec<Window>,
    rss: Option<RssSampler>,
}

impl LoopClock {
    /// Start the loop clock.
    pub fn start() -> Self {
        let jiffies = report::host_jiffies();
        LoopClock {
            began: Instant::now(),
            paused: Duration::ZERO,
            jiffies,
            window_began: (0.0, 0, jiffies),
            windows: Vec::new(),
            rss: None,
        }
    }

    /// Start the clock of a timed loop, sampling the resident set too.
    pub fn sampled() -> Self {
        LoopClock {
            rss: Some(RssSampler::start()),
            ..LoopClock::start()
        }
    }

    /// Run `f` off the clock.
    pub fn off<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.paused += t.elapsed();
        out
    }

    /// On-clock seconds so far.
    pub fn seconds(&self) -> f64 {
        (self.began.elapsed() - self.paused).as_secs_f64()
    }

    /// Note that `ops` operations have completed so far; closes the
    /// current window once it has run for [`WINDOW_S`].
    pub fn mark(&mut self, ops: usize) {
        if self.seconds() - self.window_began.0 >= WINDOW_S {
            self.close(ops);
        }
    }

    fn close(&mut self, ops: usize) {
        let now = self.seconds();
        let jiffies = report::host_jiffies();
        let (t0, ops0, j0) = self.window_began;
        if ops > ops0 {
            self.windows.push(Window {
                ops: ops - ops0,
                seconds: now - t0,
                steal: steal_between(j0, jiffies),
            });
        }
        self.window_began = (now, ops, jiffies);
    }

    /// Close the last window; hand back the windows and the resident-set
    /// samples (none unless the clock was [`LoopClock::sampled`]).
    pub fn finish(mut self, ops: usize) -> (Vec<Window>, Vec<f64>) {
        self.close(ops);
        let rss = self.rss.take().map(RssSampler::finish).unwrap_or_default();
        (self.windows, rss)
    }

    /// Share of busy vCPU time stolen since the clock started.
    pub fn steal_share(&self) -> f64 {
        steal_between(self.jiffies, report::host_jiffies())
    }
}

fn steal_between(from: (f64, f64), to: (f64, f64)) -> f64 {
    let busy = to.0 - from.0;
    if busy > 0.0 {
        ((to.1 - from.1) / busy).clamp(0.0, 0.95)
    } else {
        0.0
    }
}

/// Run a set-up step; returns its result and its duration in seconds,
/// scaled like every other time by the share of vCPU time not stolen.
pub fn timed_setup<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let clock = LoopClock::start();
    let out = f();
    let s = clock.seconds() * (1.0 - clock.steal_share());
    (out, s)
}

/// Write a traced pass's spans next to the benchmark (kept out of git).
pub fn write_trace(workload: &str, seed: u64, trace: &trace::Trace) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace.chrome_json(200_000)));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match workload.as_str() {
        "serve-plan" => serve_plan::run(&opts),
        "cluster-churn" => cluster_churn::run(&opts),
        "exec-train" => exec_train::run(&opts),
        "adapt-dynamic" => adapt_dynamic::run(&opts),
        _ => unreachable!("validated in parse_args"),
    };
    match result {
        Ok(mut run) => {
            run.facts.insert(
                0,
                (
                    "nproc".to_string(),
                    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
                ),
            );
            run.facts
                .insert(1, ("par_threads".to_string(), ap_par::threads() as f64));
            report::print(&workload, opts.seed, opts.traced, &run);
            if run.errors.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::from(1)
        }
    }
}
