//! `serve-plan`: `/plan` requests against the ap-serve daemon.
//!
//! The daemon is spawned in this process with its default configuration
//! and driven over one keep-alive loopback connection. The request stream
//! mixes a Zipf-popular set of keys, each sent in varying but equivalent
//! spellings, with one-off keys (22% of requests) that miss, insert and
//! evict. One-off keys are dealt from a deck of model × cluster shape ×
//! schedule cells, so every seed carries the same cost mix; one cell in
//! eight gets a device memory too small for any schedule (typed 422s),
//! one in eight a tight one that forces schedule switches.
//!
//! The traced pass replays the same stream in-process through the public
//! phase functions the daemon composes (`parse_body`,
//! `PlanRequest::from_json`, `canonical_key` + `fnv1a64`, `PlanCache`,
//! `refine_plan`, `verify_plan`, `plan_response`), once untraced and once
//! traced, after a daemon pass over the same stream.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use ap_cluster::{gbps, GpuId};
use ap_json::{Json, ToJson};
use ap_models::ModelProfile;
use ap_planner::{pipedream_plan, PipeDreamView};
use ap_rng::Rng;
use ap_serve::api::{
    model_by_name, parse_body, plan_response, refine_plan, verify_plan, PlanRequest, KNOWN_MODELS,
};
use ap_serve::cache::fnv1a64;
use ap_serve::{spawn, Client, PlanCache, ServeConfig, ServerHandle};

use crate::report::{median, Run};
use crate::{trace, LoopClock, Opts};

// Where each value of the stream comes from, measured or assumed, is
// listed in WORKLOADS.md ("Where the workload values come from").

/// Popular keys (Zipf ranks): they fit in the daemon's default 128-entry
/// cache with room left for one-off keys.
const POPULAR: usize = 48;
/// Zipf exponent of key popularity, inside the 0.64–0.83 that Breslau et
/// al. (INFOCOM 1999) measured on web-proxy request traces.
const ZIPF_S: f64 = 0.8;
/// Requests per deck of the popular/one-off draw, and one-offs in it:
/// 22% of requests carry a one-off key, exactly, every 50 requests.
const MIX_DECK: usize = 50;
const ONE_OFFS_PER_DECK: usize = 11;
/// Requests after warm-up over which counters and quality are taken; the
/// timed loop runs at least this many, and the traced passes exactly
/// this many.
const COUNT_OPS: usize = 1200;
/// Set-up repetitions (spawn + warm-up); the median is reported.
const SETUPS: usize = 5;

const SCHEDULES: [&str; 4] = ["pipedream_async", "gpipe", "dapple", "pipedream_2bw"];
/// `(n_servers, gpus_per_server)`: 2 to 24 GPUs.
const SHAPES: [(usize, usize); 7] = [(1, 2), (2, 2), (2, 4), (4, 2), (3, 4), (4, 4), (6, 4)];
/// Popular keys stay on the cheaper shapes (≤ 12 GPUs), which keeps the
/// cold warm-up of set-up short; one-off keys span all seven.
const POPULAR_SHAPES: usize = 5;
const LINKS: [f64; 4] = [10.0, 25.0, 40.0, 100.0];
/// Link-rate bands of one-off keys, Gbps; the rate is drawn inside one.
const LINK_BANDS: [(f64, f64); 4] = [(5.0, 10.0), (10.0, 25.0), (25.0, 50.0), (50.0, 100.0)];
/// Device memory no schedule of any zoo model fits in.
const INFEASIBLE_GB: f64 = 0.25;
/// Device memory tight enough to force schedule switches and depth
/// clamps, for the models that still fit somewhere under it.
const TIGHT_GB: f64 = 4.0;
const TIGHT_OK: [&str; 7] = [
    "alexnet",
    "vgg16",
    "resnet50",
    "resnet101",
    "resnet152",
    "bert12",
    "gpt2-small",
];

/// One logical `/plan` key. Distinct keys have distinct canonical forms.
#[derive(Debug, Clone)]
struct Key {
    model: &'static str,
    schedule: &'static str,
    shape: (usize, usize),
    link_gbps: f64,
    memory_gb: Option<f64>,
    /// `(gpus, gbps)` per background job.
    background: Vec<(Vec<usize>, f64)>,
    /// Generated with [`INFEASIBLE_GB`]: must be answered 422.
    infeasible: bool,
}

impl Key {
    fn signature(&self) -> String {
        format!(
            "{}|{}|{:?}|{}|{:?}|{:?}",
            self.model, self.schedule, self.shape, self.link_gbps, self.memory_gb, self.background
        )
    }

    /// Render the key as a request body in one of many equivalent
    /// spellings: field order, defaults omitted or spelled out, GPU-kind
    /// case, number form and whitespace all vary.
    fn spell(&self, rng: &mut Rng) -> String {
        let sp = if rng.f64() < 0.5 { " " } else { "" };
        let num = |x: f64, rng: &mut Rng| {
            if x.fract() == 0.0 && rng.f64() < 0.5 {
                format!("{x:.1}")
            } else {
                format!("{x}")
            }
        };
        let mut cluster: Vec<String> = Vec::new();
        let (ns, gps) = self.shape;
        if ns != 5 || rng.f64() < 0.5 {
            cluster.push(format!("\"n_servers\":{sp}{ns}"));
        }
        if gps != 2 || rng.f64() < 0.5 {
            cluster.push(format!("\"gpus_per_server\":{sp}{gps}"));
        }
        match rng.gen_range(0..3u32) {
            0 => {}
            1 => cluster.push(format!("\"gpu\":{sp}\"p100\"")),
            _ => cluster.push(format!("\"gpu\":{sp}\"P100\"")),
        }
        if self.link_gbps != 25.0 || rng.f64() < 0.5 {
            cluster.push(format!("\"link_gbps\":{sp}{}", num(self.link_gbps, rng)));
        }
        match self.memory_gb {
            Some(gb) => cluster.push(format!("\"memory_gb\":{sp}{}", num(gb, rng))),
            None if rng.f64() < 0.3 => cluster.push(format!("\"memory_gb\":{sp}null")),
            None => {}
        }
        if !self.background.is_empty() || rng.f64() < 0.3 {
            let jobs: Vec<String> = self
                .background
                .iter()
                .map(|(gpus, g)| {
                    let ids: Vec<String> = gpus.iter().map(|x| x.to_string()).collect();
                    format!(
                        "{{\"gpus\":{sp}[{}],{sp}\"gbps\":{sp}{}}}",
                        ids.join(","),
                        num(*g, rng)
                    )
                })
                .collect();
            cluster.push(format!("\"background_jobs\":{sp}[{}]", jobs.join(",")));
        }
        rng.shuffle(&mut cluster);

        let mut fields: Vec<String> = vec![format!("\"model\":{sp}\"{}\"", self.model)];
        if !cluster.is_empty() || rng.f64() < 0.5 {
            fields.push(format!(
                "\"cluster\":{sp}{{{}}}",
                cluster.join(&format!(",{sp}"))
            ));
        }
        if self.schedule != "pipedream_async" || rng.f64() < 0.5 {
            fields.push(format!("\"schedule\":{sp}\"{}\"", self.schedule));
        }
        match rng.gen_range(0..4u32) {
            0 => {}
            1 => fields.push(format!("\"planner\":{sp}{{}}")),
            2 => fields.push(format!(
                "\"planner\":{sp}{{\"refine_rounds\":{sp}40,{sp}\"measure_iters\":{sp}10}}"
            )),
            _ => fields.push(format!(
                "\"planner\":{sp}{{\"measure_iters\":{sp}10,\"calibration\":{sp}null}}"
            )),
        }
        rng.shuffle(&mut fields);
        let nl = if rng.f64() < 0.25 { "\n" } else { "" };
        format!("{{{nl}{}{nl}}}", fields.join(&format!(",{sp}{nl}")))
    }
}

/// Draws from a seeded, reshuffled deck of cards, so every share in the
/// deck holds exactly over each pass through it, whatever the seed.
struct Deck<T> {
    cards: Vec<T>,
    next: usize,
    rng: Rng,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>, rng: Rng) -> Self {
        let next = cards.len();
        Deck { cards, next, rng }
    }

    fn draw(&mut self) -> T {
        if self.next == self.cards.len() {
            self.rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// Memory class of a key: native devices, [`TIGHT_GB`], [`INFEASIBLE_GB`].
#[derive(Clone, Copy, PartialEq)]
enum Mem {
    Native,
    Tight,
    Infeasible,
}

/// One cell of the one-off key space. Everything a cold plan's cost
/// mostly depends on is fixed per cell, so a run that deals the cells in
/// any order pays about the same; the seed picks the order and the
/// exact link rate and background-job placement inside each cell.
#[derive(Clone, Copy)]
struct Stratum {
    model: usize,
    shape: usize,
    schedule: usize,
    band: usize,
    jobs: usize,
    mem: Mem,
}

/// The seeded request stream: popular keys first (the warm-up), then an
/// endless mix of Zipf-popular and one-off keys. The one-off share and
/// the one-off strata are dealt from decks, so a second seed changes the
/// keys but not the mix.
struct Stream {
    keys: Vec<Key>,
    seen: HashSet<String>,
    zipf_cdf: Vec<f64>,
    one_off_turn: Deck<bool>,
    zipf: Rng,
    spelling: Rng,
    strata: Deck<Stratum>,
    one_off: Rng,
}

/// One request of the stream.
struct Req {
    key: usize,
    body: String,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        // Model × shape × schedule, each with a link band, a background
        // job count and a memory class spread evenly over the cells: one
        // in eight infeasible, one in eight tight where the model fits.
        let mut strata = Vec::new();
        for (m, model) in KNOWN_MODELS.iter().enumerate() {
            for sh in 0..SHAPES.len() {
                for sc in 0..SCHEDULES.len() {
                    let mem = match (3 * m + 5 * sh + sc) % 8 {
                        0 => Mem::Infeasible,
                        1 if TIGHT_OK.contains(model) => Mem::Tight,
                        _ => Mem::Native,
                    };
                    strata.push(Stratum {
                        model: m,
                        shape: sh,
                        schedule: sc,
                        band: (m + sh + sc) % LINK_BANDS.len(),
                        jobs: (m + 2 * sh + sc) % 3,
                        mem,
                    });
                }
            }
        }
        let mut mix = vec![false; MIX_DECK];
        mix[..ONE_OFFS_PER_DECK].fill(true);
        let mut s = Stream {
            keys: Vec::new(),
            seen: HashSet::new(),
            zipf_cdf: Vec::new(),
            one_off_turn: Deck::new(mix, Rng::stream(seed, 1)),
            zipf: Rng::stream(seed, 2),
            spelling: Rng::stream(seed, 3),
            strata: Deck::new(strata, Rng::stream(seed, 4)),
            one_off: Rng::stream(seed, 8),
        };
        // Popular keys cover model × shape evenly, and each block of ten
        // Zipf ranks spans every shape, so every seed warms and hits the
        // same cost mix; the seed rotates which model meets which shape
        // and deals the rest.
        let mut pop = Rng::stream(seed, 0);
        let rotate = pop.gen_range(0..KNOWN_MODELS.len());
        let mut schedule = Deck::new((0..SCHEDULES.len()).collect(), Rng::stream(seed, 9));
        let mut link = Deck::new(LINKS.to_vec(), Rng::stream(seed, 10));
        let mut tight = Deck::new(vec![true, false, false, false], Rng::stream(seed, 11));
        let mut jobs = Deck::new(vec![0, 1, 2], Rng::stream(seed, 12));
        let mut i = 0usize;
        while s.keys.len() < POPULAR {
            let m = i % KNOWN_MODELS.len();
            let model = KNOWN_MODELS[(m + rotate) % KNOWN_MODELS.len()];
            let shape = SHAPES[(m + i / KNOWN_MODELS.len()) % POPULAR_SHAPES];
            i += 1;
            let key = Key {
                model,
                schedule: SCHEDULES[schedule.draw()],
                shape,
                link_gbps: link.draw(),
                memory_gb: (tight.draw() && TIGHT_OK.contains(&model)).then_some(TIGHT_GB),
                background: Vec::new(),
                infeasible: false,
            };
            let key = with_background(key, jobs.draw(), &mut pop);
            s.admit(key);
        }
        let total: f64 = (1..=POPULAR).map(|r| (r as f64).powf(-ZIPF_S)).sum();
        let mut acc = 0.0;
        for r in 1..=POPULAR {
            acc += (r as f64).powf(-ZIPF_S) / total;
            s.zipf_cdf.push(acc);
        }
        s
    }

    fn admit(&mut self, key: Key) -> Option<usize> {
        if self.seen.insert(key.signature()) {
            self.keys.push(key);
            Some(self.keys.len() - 1)
        } else {
            None
        }
    }

    /// The warm-up requests: every popular key once.
    fn warm_up(&mut self) -> Vec<Req> {
        (0..POPULAR)
            .map(|k| Req {
                key: k,
                body: self.keys[k].spell(&mut self.spelling),
            })
            .collect()
    }

    fn next(&mut self) -> Req {
        let key = if self.one_off_turn.draw() {
            loop {
                let st = self.strata.draw();
                let (lo, hi) = LINK_BANDS[st.band];
                let mem = st.mem;
                let r = &mut self.one_off;
                let key = Key {
                    model: KNOWN_MODELS[st.model],
                    schedule: SCHEDULES[st.schedule],
                    shape: SHAPES[st.shape],
                    link_gbps: (r.gen_range(lo..hi) * 1000.0).round() / 1000.0,
                    memory_gb: match mem {
                        Mem::Native => None,
                        Mem::Tight => Some(TIGHT_GB),
                        Mem::Infeasible => Some(INFEASIBLE_GB),
                    },
                    background: Vec::new(),
                    infeasible: mem == Mem::Infeasible,
                };
                let key = with_background(key, st.jobs, r);
                if let Some(k) = self.admit(key) {
                    break k;
                }
            }
        } else {
            let u = self.zipf.f64();
            self.zipf_cdf
                .iter()
                .position(|&c| u <= c)
                .unwrap_or(POPULAR - 1)
        };
        Req {
            key,
            body: self.keys[key].spell(&mut self.spelling),
        }
    }
}

/// `n_jobs` background jobs on random GPU subsets of the key's cluster.
fn with_background(mut key: Key, n_jobs: usize, rng: &mut Rng) -> Key {
    let n = key.shape.0 * key.shape.1;
    for _ in 0..n_jobs {
        let lo = rng.gen_range(0..n);
        let hi = rng.gen_range(lo..n) + 1;
        let g = [1.0, 2.0, 5.0][rng.gen_range(0..3usize)];
        key.background.push(((lo..hi).collect(), g));
    }
    key
}

fn http_request(body: &str) -> Vec<u8> {
    let mut bytes = format!(
        "POST /plan HTTP/1.1\r\nHost: ap-serve\r\nContent-Length: {}\r\nContent-Type: application/json\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Digest of an answer body, for comparing answers without keeping them.
fn digest_of(body: &str) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

const HIT: &str = "\"cached\": true";
const MISS: &str = "\"cached\": false";

/// Client-side bookkeeping of one daemon pass.
#[derive(Default)]
struct Tally {
    /// Digest of the first cold answer per key.
    cold: HashMap<usize, u64>,
    /// First cold answers that arrived within the counting prefix, with
    /// the op index they arrived at (the deterministic set quality and
    /// the plan checks are taken over).
    bodies: HashMap<usize, (String, usize)>,
    hits: u64,
    colds: u64,
    infeasible: u64,
    /// Latency of every loop op, and of the loop's cache hits.
    latencies: Vec<f64>,
    hit_latencies: Vec<f64>,
    attempted: u64,
    failed: u64,
}

struct Daemon {
    handle: ServerHandle,
    client: Client,
    workers: usize,
}

fn start_daemon() -> Result<Daemon, String> {
    let cfg = ServeConfig::default();
    let workers = cfg.workers;
    let handle = spawn(cfg).map_err(|e| format!("spawn: {e}"))?;
    let client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Daemon {
        handle,
        client,
        workers,
    })
}

impl Daemon {
    fn stop(mut self) {
        drop(self.client);
        self.handle.shutdown();
        self.handle.wait();
    }
}

/// Send request number `op` (warm-up included) and check its answer.
fn send(
    d: &mut Daemon,
    stream: &Stream,
    req: &Req,
    op: usize,
    tally: &mut Tally,
    run: &mut Run,
    clock: &mut LoopClock,
) -> Result<(), String> {
    // Ops in the counting window: their counters repeat exactly for a seed.
    let counted = op < POPULAR + COUNT_OPS;
    let bytes = http_request(&req.body);
    tally.attempted += 1;
    let t = Instant::now();
    let resp = d.client.send_raw(&bytes);
    let dt = t.elapsed().as_secs_f64();
    tally.latencies.push(dt);
    let resp = match resp {
        Ok(r) => r,
        Err(e) => {
            tally.failed += 1;
            d.client = Client::connect(d.handle.addr()).map_err(|e| format!("reconnect: {e}"))?;
            eprintln!("perfbench: transport error on op {op}: {e}");
            return Ok(());
        }
    };
    clock.off(|| {
        let key = &stream.keys[req.key];
        let body = String::from_utf8_lossy(&resp.body);
        match resp.status {
            200 => {
                run.check(!key.infeasible, || {
                    format!("key {} answered 200 but was generated infeasible", req.key)
                });
                if body.contains("\"degraded\": true") {
                    tally.failed += 1;
                    return;
                }
                let hit = body.contains(HIT);
                if hit {
                    tally.hit_latencies.push(dt);
                }
                if counted {
                    if hit {
                        tally.hits += 1;
                    } else {
                        tally.colds += 1;
                    }
                }
                let digest = if hit {
                    digest_of(&body.replacen(HIT, MISS, 1))
                } else {
                    digest_of(&body)
                };
                match tally.cold.get(&req.key) {
                    Some(cold) => {
                        let same = digest == *cold;
                        run.check(same, || {
                            format!("answer for key {} differs from its cold answer", req.key)
                        });
                    }
                    None => {
                        run.check(!hit, || format!("cache hit for unseen key {}", req.key));
                        tally.cold.insert(req.key, digest);
                        if counted {
                            tally.bodies.insert(req.key, (body.into_owned(), op));
                        }
                    }
                }
            }
            422 => {
                run.check(key.infeasible && body.contains("memory-infeasible"), || {
                    format!("unexpected 422 for key {}: {body}", req.key)
                });
                if counted {
                    tally.infeasible += 1;
                }
            }
            s => {
                tally.failed += 1;
                eprintln!("perfbench: status {s} on op {op}: {body}");
            }
        }
    });
    Ok(())
}

/// A daemon pass: set up (spawn + warm-up), then the request loop. Runs
/// at least `min_ops` requests after warm-up and, if `seconds` is set,
/// until that much loop time has passed.
struct Pass {
    tally: Tally,
    loop_s: f64,
    windows: Vec<crate::Window>,
    rss_samples: Vec<f64>,
    setup_s: f64,
    workers: usize,
    requests: Vec<Req>,
}

fn daemon_pass(
    seed: u64,
    min_ops: usize,
    seconds: Option<Duration>,
    keep_requests: bool,
    run: &mut Run,
) -> Result<Pass, String> {
    let mut stream = Stream::new(seed);
    let mut tally = Tally::default();
    let mut requests = Vec::new();
    let setup_clock = LoopClock::start();
    let mut d = start_daemon()?;
    let mut warm_clock = LoopClock::start();
    for (i, req) in stream.warm_up().into_iter().enumerate() {
        send(&mut d, &stream, &req, i, &mut tally, run, &mut warm_clock)?;
        if keep_requests {
            requests.push(req);
        }
    }
    let setup_s = setup_clock.seconds() * (1.0 - setup_clock.steal_share());
    tally.latencies.clear();
    tally.hit_latencies.clear();
    tally.attempted = 0;
    let failed_in_setup = tally.failed;
    run.check(failed_in_setup == 0, || {
        format!("{failed_in_setup} warm-up requests failed")
    });

    let mut clock = LoopClock::sampled();
    let mut op = 0usize;
    while op < min_ops || seconds.is_some_and(|s| clock.seconds() < s.as_secs_f64()) {
        let req = clock.off(|| stream.next());
        send(
            &mut d,
            &stream,
            &req,
            POPULAR + op,
            &mut tally,
            run,
            &mut clock,
        )?;
        if keep_requests {
            requests.push(req);
        }
        op += 1;
        clock.mark(op);
    }
    let loop_s = clock.seconds();
    let (windows, rss_samples) = clock.finish(op);
    let workers = d.workers;
    d.stop();
    Ok(Pass {
        tally,
        loop_s,
        windows,
        rss_samples,
        setup_s,
        workers,
        requests,
    })
}

/// Deterministic facts of the cold answers that arrived within the
/// counting prefix.
struct ColdFacts {
    quality: f64,
    candidates: f64,
    switches: f64,
    answers: usize,
}

fn cold_facts(tally: &Tally, run: &mut Run) -> ColdFacts {
    let mut keys: Vec<&usize> = tally.bodies.keys().collect();
    keys.sort();
    let mut ratios = Vec::new();
    let mut candidates = 0.0;
    let mut switches = 0.0;
    for k in &keys {
        let body = &tally.bodies[k].0;
        let Ok(j) = ap_json::parse(body) else {
            run.check(false, || format!("cold answer for key {k} is not JSON"));
            continue;
        };
        let fits = j.get("memory").and_then(Json::as_arr).is_some_and(|rows| {
            !rows.is_empty()
                && rows
                    .iter()
                    .all(|r| r.get("fits").and_then(Json::as_bool) == Some(true))
        });
        run.check(fits, || format!("key {k}: a memory row does not fit"));
        let journal = j.get("journal");
        candidates += journal
            .and_then(|x| x.get("candidates_scored"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if j.get("schedule_switched").and_then(Json::as_bool) == Some(true) {
            switches += 1.0;
        }
        let reward = journal
            .and_then(|x| x.get("records"))
            .and_then(Json::as_arr)
            .and_then(|recs| recs.iter().find_map(|r| r.get("reward")?.as_f64()));
        match reward {
            Some(r) => {
                run.check(r >= 0.0, || {
                    format!("key {k}: chosen plan measures below its seed ({r})")
                });
                ratios.push(1.0 + r);
            }
            None => run.check(false, || format!("key {k}: no verification verdict")),
        }
    }
    ColdFacts {
        quality: ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
        candidates,
        switches,
        answers: keys.len(),
    }
}

/// End-to-end run.
pub fn run(opts: &Opts) -> Result<Run, String> {
    let mut run = Run::default();
    if opts.traced {
        return traced(opts, run);
    }
    // Set-up is repeated; each repetition's cold answers must agree with
    // the first's (planning is deterministic).
    let mut first_cold: Option<HashMap<usize, u64>> = None;
    for _ in 1..SETUPS {
        let p = daemon_pass(opts.seed, 0, None, false, &mut run)?;
        run.setup_s.push(p.setup_s);
        compare_colds(&mut first_cold, &p.tally, &mut run);
    }
    let p = daemon_pass(opts.seed, COUNT_OPS, Some(opts.seconds), false, &mut run)?;
    run.setup_s.push(p.setup_s);
    compare_colds(&mut first_cold, &p.tally, &mut run);

    let facts = cold_facts(&p.tally, &mut run);
    let t = &p.tally;
    run.latencies_s = t.latencies.clone();
    run.loop_s = p.loop_s;
    run.windows = p.windows;
    run.rss_samples = p.rss_samples;
    run.attempted = t.attempted;
    run.failed = t.failed;
    run.quality = facts.quality;
    run.facts.push(("daemon_workers".into(), p.workers as f64));
    run.facts.push(("connections".into(), 1.0));
    run.counter("hits", t.hits as f64);
    run.counter("cold_answers", t.colds as f64);
    run.counter("infeasible_422", t.infeasible as f64);
    run.counter("distinct_cold_keys", facts.answers as f64);
    run.counter("candidates_scored", facts.candidates);
    run.counter("schedule_switches", facts.switches);
    let counted = (t.hits + t.colds + t.infeasible) as f64;
    run.mix("hit_share", t.hits as f64 / counted.max(1.0));
    run.mix("cold_share", t.colds as f64 / counted.max(1.0));
    run.mix("infeasible_share", t.infeasible as f64 / counted.max(1.0));
    run.mix("loop_ops", t.latencies.len() as f64);
    run.mix(
        "loop_hit_share",
        t.hit_latencies.len() as f64 / t.latencies.len().max(1) as f64,
    );
    Ok(run)
}

fn compare_colds(first: &mut Option<HashMap<usize, u64>>, tally: &Tally, run: &mut Run) {
    match first {
        None => *first = Some(tally.cold.clone()),
        Some(f) => {
            for k in 0..POPULAR {
                let same = f.get(&k) == tally.cold.get(&k);
                run.check(same, || {
                    format!("warm-up answer for key {k} differs between set-ups")
                });
            }
        }
    }
}

/// What the in-process replay saw.
struct Replay {
    cache: PlanCache,
    op_s: Vec<f64>,
    hit: Vec<bool>,
    lookups: u64,
    hits: u64,
    inserts: u64,
    refines: u64,
    infeasible: u64,
    plans: u64,
    candidates: u64,
    switched: u64,
    engine_runs: u64,
    second_runs: u64,
    refined_won: u64,
}

fn set_cached(j: &mut Json) {
    if let Json::Obj(fields) = j {
        for (k, v) in fields.iter_mut() {
            if k == "cached" {
                *v = true.to_json();
            }
        }
    }
}

impl Replay {
    fn new() -> Replay {
        Replay {
            cache: PlanCache::new(ServeConfig::default().cache_capacity),
            op_s: Vec::new(),
            hit: Vec::new(),
            lookups: 0,
            hits: 0,
            inserts: 0,
            refines: 0,
            infeasible: 0,
            plans: 0,
            candidates: 0,
            switched: 0,
            engine_runs: 0,
            second_runs: 0,
            refined_won: 0,
        }
    }

    fn evictions(&self) -> u64 {
        self.inserts - self.cache.stats().2 as u64
    }

    /// One request through the daemon's phase functions, each phase in a
    /// span when recording. A miss also re-times the PipeDream seed on
    /// its own, outside the op, so `refine_plan` minus the seed can be
    /// taken. The answer must equal the daemon's cold answer.
    fn op(&mut self, op: usize, req: &Req, daemon_cold: &HashMap<usize, u64>, run: &mut Run) {
        trace::set_op(op as u64);
        let t = Instant::now();
        let mut seed_of: Option<PlanRequest> = None;
        let hit = trace::span("op", || {
            let parsed = trace::span("json.parse", || parse_body(req.body.as_bytes()))
                .expect("generated bodies are valid JSON");
            let preq = trace::span("serve.validate", || PlanRequest::from_json(&parsed))
                .expect("generated bodies are valid requests");
            let digest = trace::span("serve.key", || fnv1a64(&preq.canonical_key()));
            self.lookups += 1;
            if let Some(mut j) = trace::span("cache.lookup", || self.cache.get(digest)) {
                self.hits += 1;
                let text = trace::span("serve.respond", || {
                    set_cached(&mut j);
                    j.pretty()
                });
                std::hint::black_box(text);
                return true;
            }
            self.refines += 1;
            let refined = trace::span("plan.refine", || refine_plan(&preq, None));
            seed_of = Some(preq.clone());
            let refined = match refined {
                Ok(x) => x,
                Err(e) => {
                    self.infeasible += 1;
                    std::hint::black_box(e.body().pretty());
                    return false;
                }
            };
            self.plans += 1;
            self.candidates += refined.scored as u64;
            self.switched += u64::from(refined.schedule_switched);
            let two = refined.refined != refined.start;
            self.engine_runs += 1 + u64::from(two);
            let verified = trace::span("engine.verify", || verify_plan(&preq, &refined))
                .expect("verification of a fitted plan succeeds");
            if two {
                self.second_runs += 1;
                self.refined_won += u64::from(verified.refined_won);
            }
            let (j, text) = trace::span("serve.respond", || {
                let j = plan_response(&preq, &refined, Some(&verified), None);
                let text = j.pretty();
                (j, text)
            });
            if let Some(cold) = daemon_cold.get(&req.key) {
                run.check(digest_of(&text) == *cold, || {
                    format!(
                        "in-process answer for key {} differs from the daemon's",
                        req.key
                    )
                });
            }
            trace::span("cache.insert", || self.cache.insert(digest, j));
            self.inserts += 1;
            false
        });
        self.op_s.push(t.elapsed().as_secs_f64());
        self.hit.push(hit);
        if let Some(preq) = seed_of {
            let desc = model_by_name(&preq.model).expect("validated model");
            let profile = ModelProfile::of(&desc);
            let gpus: Vec<GpuId> = (0..preq.cluster.n_gpus()).map(GpuId).collect();
            let view = PipeDreamView {
                bandwidth: gbps(preq.cluster.link_gbps),
                gpu_flops: preq.cluster.gpu.peak_flops(),
            };
            std::hint::black_box(trace::span("planner.seed", || {
                pipedream_plan(&profile, &gpus, view)
            }));
        }
    }
}

fn traced(opts: &Opts, mut run: Run) -> Result<Run, String> {
    let p = daemon_pass(opts.seed, COUNT_OPS, None, true, &mut run)?;
    run.setup_s.push(p.setup_s);
    // Two in-process replays in lockstep, one untraced and one traced,
    // alternating which goes first, so drift on the host hits both.
    let mut plain = Replay::new();
    let mut traced = Replay::new();
    let clock = LoopClock::start();
    trace::start();
    for (op, req) in p.requests.iter().enumerate() {
        for arm in [op % 2, 1 - op % 2] {
            if arm == 0 {
                trace::suspended(|| plain.op(op, req, &p.tally.cold, &mut run));
            } else {
                traced.op(op, req, &p.tally.cold, &mut run);
            }
        }
    }
    let tr = trace::finish();
    run.steal_share = clock.steal_share();
    crate::write_trace("serve-plan", opts.seed, &tr);

    run.latencies_s = traced.op_s.clone();
    run.loop_s = traced.op_s.iter().sum();
    run.attempted = traced.op_s.len() as u64;
    run.failed = p.tally.failed;
    run.facts.push(("daemon_workers".into(), p.workers as f64));

    let stats = tr.stats();
    let mean_us = |name: &str| stats.get(name).map_or(0.0, |s| s.mean_us());
    let hit_ops: Vec<f64> = traced
        .op_s
        .iter()
        .zip(&traced.hit)
        .filter(|(_, h)| **h)
        .map(|(s, _)| *s)
        .collect();
    run.layer("json.parse_us", mean_us("json.parse"));
    run.layer("serve.validate_us", mean_us("serve.validate"));
    run.layer("serve.key_us", mean_us("serve.key"));
    run.layer("cache.lookup_us", mean_us("cache.lookup"));
    run.layer(
        "http.us",
        (median(&p.tally.hit_latencies) - median(&hit_ops)) * 1e6,
    );
    run.layer("cache.insert_us", mean_us("cache.insert"));
    run.layer("planner.seed_us", mean_us("planner.seed"));
    run.layer(
        "plan.refine_us",
        mean_us("plan.refine") - mean_us("planner.seed"),
    );
    run.layer("engine.verify_us", mean_us("engine.verify"));
    run.layer("serve.respond_us", mean_us("serve.respond"));
    let r = &traced;
    let share = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    run.layer("cache.hit_ratio", share(r.hits, r.lookups));
    run.layer("cache.evictions", r.evictions() as f64);
    run.layer("plan.candidates_scored", share(r.candidates, r.plans));
    run.layer("plan.switch_share", share(r.switched, r.plans));
    run.layer("plan.infeasible_share", share(r.infeasible, r.refines));
    run.layer("engine.runs_per_plan", share(r.engine_runs, r.plans));
    run.layer(
        "engine.refined_won_share",
        share(r.refined_won, r.second_runs),
    );
    let plain_s: f64 = plain.op_s.iter().sum();
    run.layer("trace.overhead", run.loop_s / plain_s.max(1e-9) - 1.0);
    run.layer("trace.unaccounted_share", tr.unaccounted_share("op"));
    run.check(
        plain.hits == traced.hits && plain.candidates == traced.candidates,
        || "untraced and traced replays did different work".to_string(),
    );
    run.counter("replay_hits", r.hits as f64);
    run.counter("replay_inserts", r.inserts as f64);
    run.counter("replay_evictions", r.evictions() as f64);
    run.counter("replay_candidates_scored", r.candidates as f64);
    run.counter("replay_engine_runs", r.engine_runs as f64);
    run.counter("replay_infeasible", r.infeasible as f64);
    Ok(run)
}
