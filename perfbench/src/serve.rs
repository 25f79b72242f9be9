//! The serving workloads: `serve_open`, `serve_batch` and `zipf_churn`.
//!
//! Latencies here are virtual-time composites: the admission queue and
//! arrivals are simulated by `hermes_serve::Server`, while every
//! `Backend::run` executes for real and its wall time becomes the
//! dispatch's service time. Arrivals are virtual, so the generator is
//! never late.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hermes_cache::{CacheConfig, CacheStats};
use hermes_core::exec::Engine;
use hermes_core::search::SearchOutcome;
use hermes_core::{ClusteredStore, HermesError};
use hermes_datagen::{poisson_arrival_times_ns, query_stream, StreamSpec};
use hermes_math::rng::{derive_seed, seeded_rng, SeededRng};
use hermes_math::Mat;
use hermes_obs::{CachePath, Phase};
use hermes_serve::{
    run_closed_loop, Backend, BatchOutcome, CachedBackend, ClosedLoopSpec, Completion,
    EngineBackend, GenerationCell, Priority, Request, ServeReport, Server, ServerConfig,
};
use hermes_trace::names;

use crate::ladder;
use crate::setup::{oracle, peak_rss_mb, recall, timed_setup, Inputs, SERVE_SHAPE};
use crate::stats::Dist;
use crate::tracing::{TraceLog, BENCH_DISPATCH, BENCH_WRITE};
use crate::{Args, Fail, Metrics, Outcome};

/// Frozen absolute offered rates of the `serve_open` ladder (requests/s),
/// set once and never re-derived from a run. This shape's single-query
/// capacity on a shared 2-core x86-64 virtual machine ranged from about
/// 2.0k to 4.3k qps (0.5 to 0.23 ms per query) as the host's load changed,
/// so the ladder spans about 0.1 to 1.0 of either end.
pub const OPEN_RATES_QPS: [f64; 7] = [450.0, 900.0, 1400.0, 2000.0, 2700.0, 3500.0, 4400.0];
/// The ladder rung whose latencies are the end-to-end `serve_open` figures:
/// the lowest, where the mean batch stays near 1 and queueing is light, so
/// a slower machine does not turn into a queue explosion.
pub const OPEN_REFERENCE_RUNG: usize = 0;
/// Latency limit of `serve_open`, on p90 sojourn from each request's due
/// time: about six median service times.
pub const OPEN_LIMIT_US: f64 = 2_000.0;
/// Latency limit of the closed-loop workloads (a full batch of 8 is served
/// per dispatch, so a request's sojourn is one batch service time).
pub const CLOSED_LIMIT_US: f64 = 8_000.0;
/// Requests per open-loop rung excluded from timings (pool spawn, first
/// touch, empty-queue start).
const OPEN_WARMUP: usize = 200;
/// Timed requests each rung of each round collects at least: thirty beyond
/// its p90. Pooled over the rounds, every rung also supports a printed p99.
const OPEN_MIN_TIMED: usize = 300;
/// Sweeps of the whole ladder per run.
const OPEN_ROUNDS: usize = 5;
/// Admission bound of the open loop: large enough that no rung sheds.
const OPEN_QUEUE: usize = 1 << 16;
const MAX_BATCH: usize = 8;
/// Virtual clients of the closed-loop workloads.
const CLOSED_USERS: usize = 8;
/// Requests of the untimed first closed-loop chunk.
const CLOSED_WARMUP: usize = 1_024;
/// Requests per timed closed-loop chunk: 512 dispatches of 8, enough for a
/// p99 of its own.
const CHUNK: usize = 4_096;
/// Tail percentile that end-to-end figures and limits use. Host stalls of
/// 10 ms and more on a shared machine move a p99 of virtual-time sojourns
/// many-fold between runs; a p90 stays put.
const TAIL: f64 = 0.9;
/// Closed-loop chunks run at least, the warm-up chunk included.
const CLOSED_MIN_CHUNKS: usize = 3;
/// `zipf_churn` applies one insert and one remove before every n-th dispatch.
const WRITE_EVERY: u64 = 4;
/// Semantic-cache capacity of `zipf_churn`: larger than the query pool.
const CACHE_CAPACITY: usize = 1024;
/// Builds of the serving state per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Documents generated for `zipf_churn` inserts.
const EXTRA_DOCS: usize = 8_192;

/// Three priority classes, cycled per request (open loop) or per client.
fn mix() -> Vec<Priority> {
    vec![
        Priority::Interactive,
        Priority::Standard,
        Priority::Standard,
        Priority::Batch,
    ]
}

fn key(q: &[f32]) -> Vec<u32> {
    q.iter().map(|x| x.to_bits()).collect()
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Standalone results served requests must equal bit for bit.
enum Reference {
    /// Precomputed per pool query on a store that never changes.
    Fixed(HashMap<Vec<u32>, SearchOutcome>),
    /// Computed on demand at the cell's current version.
    Cell {
        cell: Arc<GenerationCell>,
        memo: RefCell<(u64, HashMap<Vec<u32>, SearchOutcome>)>,
    },
}

impl Reference {
    fn fixed(store: &ClusteredStore, pool: &[Vec<f32>]) -> Result<Self, Fail> {
        let engine = Engine::for_store(store);
        let mut map = HashMap::new();
        for q in pool {
            map.insert(key(q), engine.execute(q).map_err(Fail::engine)?);
        }
        Ok(Reference::Fixed(map))
    }

    fn expect(&self, q: &[f32]) -> Result<SearchOutcome, String> {
        match self {
            Reference::Fixed(map) => map
                .get(&key(q))
                .cloned()
                .ok_or_else(|| "served a query outside the generated pool".to_string()),
            Reference::Cell { cell, memo } => {
                let mut memo = memo.borrow_mut();
                let version = cell.version();
                if memo.0 != version {
                    *memo = (version, HashMap::new());
                }
                if let Some(hit) = memo.1.get(&key(q)) {
                    return Ok(hit.clone());
                }
                // The check is not part of the traced request path.
                let traced = hermes_trace::is_enabled();
                hermes_trace::disable();
                let store = cell.current();
                let out = Engine::for_store(&store).execute(q);
                if traced {
                    hermes_trace::enable();
                }
                let out = out.map_err(|e| format!("standalone execute failed: {e}"))?;
                memo.1.insert(key(q), out.clone());
                Ok(out)
            }
        }
    }
}

/// Live-store writes of `zipf_churn`: one insert of a new document and one
/// remove of a live one, through `GenerationCell::mutate`.
struct Churn {
    cell: Arc<GenerationCell>,
    base_docs: u64,
    extra: Mat,
    next_id: Cell<u64>,
    live: RefCell<Vec<u64>>,
    removed: RefCell<HashSet<u64>>,
    rng: RefCell<SeededRng>,
    dispatches: Cell<u64>,
}

/// Per-dispatch records of one pass, kept while `measuring` is set.
#[derive(Debug, Default)]
struct DispatchLog {
    wall_ns: Vec<u64>,
    route_ns: u64,
    deep_ns: u64,
    probe_ns: u64,
    residual_ns: u64,
    shared_visits: u64,
    computed_visits: u64,
    insert_ns: Vec<u64>,
    remove_ns: Vec<u64>,
    mutate_ns: Vec<u64>,
}

/// Benchmark-side `Backend` decorator: times `Backend::run` on the wall
/// clock, applies `zipf_churn` writes and charges them to the dispatch,
/// and checks every served result against its standalone reference.
struct Dispatch<B> {
    inner: B,
    reference: Reference,
    churn: Option<Churn>,
    measuring: Cell<bool>,
    total_wall_ns: Cell<u64>,
    log: RefCell<DispatchLog>,
    violations: RefCell<Vec<String>>,
    semantic_hits: Cell<u64>,
    semantic_divergent: Cell<u64>,
    trace: Option<RefCell<TraceLog>>,
}

impl<B: Backend> Dispatch<B> {
    fn new(inner: B, reference: Reference, traced: bool) -> Self {
        Dispatch {
            inner,
            reference,
            churn: None,
            measuring: Cell::new(false),
            total_wall_ns: Cell::new(0),
            log: RefCell::new(DispatchLog::default()),
            violations: RefCell::new(Vec::new()),
            semantic_hits: Cell::new(0),
            semantic_divergent: Cell::new(0),
            trace: traced.then(|| RefCell::new(TraceLog::default())),
        }
    }

    /// Starts recording telemetry when this decorator belongs to a traced pass.
    fn begin(&self) {
        if self.trace.is_some() {
            hermes_trace::clear();
            hermes_trace::enable();
        }
    }

    /// Stops recording and drains the last events; returns the trace log.
    fn end(&mut self) -> Result<Option<TraceLog>, Fail> {
        let Some(trace) = self.trace.take() else {
            return Ok(None);
        };
        hermes_trace::disable();
        let mut trace = trace.into_inner();
        trace.drain()?;
        Ok(Some(trace))
    }

    fn violation(&self, msg: String) {
        let mut v = self.violations.borrow_mut();
        if v.len() < 16 {
            v.push(msg);
        }
    }

    /// Applies one churn write; returns its wall time.
    fn write(&self, churn: &Churn) -> u64 {
        let _sp = self
            .trace
            .is_some()
            .then(|| hermes_trace::span(BENCH_WRITE));
        let id = churn.next_id.get();
        churn.next_id.set(id + 1);
        let v = extra_row(id, churn.base_docs, &churn.extra);
        let victim = {
            let mut live = churn.live.borrow_mut();
            let at = churn.rng.borrow_mut().gen_range(0..live.len());
            live.swap_remove(at)
        };
        let t0 = Instant::now();
        let (insert_ns, remove_ns, inserted, removed) = churn.cell.mutate(|store| {
            let t1 = Instant::now();
            let inserted = store.insert(id, v);
            let t2 = Instant::now();
            let removed = store.remove(victim);
            (ns(t2 - t1), ns(t2.elapsed()), inserted, removed)
        });
        let mutate_ns = ns(t0.elapsed());
        if let Err(e) = inserted {
            self.violation(format!("insert of doc {id} failed: {e}"));
        }
        if removed.is_none() {
            self.violation(format!("remove of live doc {victim} found nothing"));
        }
        churn.live.borrow_mut().push(id);
        churn.removed.borrow_mut().insert(victim);
        if self.measuring.get() {
            let mut log = self.log.borrow_mut();
            log.insert_ns.push(insert_ns);
            log.remove_ns.push(remove_ns);
            log.mutate_ns.push(mutate_ns);
        }
        mutate_ns
    }

    fn verify(&self, batch: &[Request], out: &BatchOutcome) {
        if out.outcomes.len() != batch.len() {
            self.violation(format!(
                "dispatch of {} requests returned {} outcomes",
                batch.len(),
                out.outcomes.len()
            ));
            return;
        }
        let removed = self.churn.as_ref().map(|c| c.removed.borrow());
        for (i, (req, got)) in batch.iter().zip(&out.outcomes).enumerate() {
            if let Some(removed) = &removed {
                if let Some(h) = got.hits.iter().find(|h| removed.contains(&h.id)) {
                    self.violation(format!("request {} served removed doc {}", req.id, h.id));
                }
            }
            let want = match self.reference.expect(&req.query) {
                Ok(w) => w,
                Err(e) => {
                    self.violation(e);
                    continue;
                }
            };
            let path = out
                .cache_paths
                .get(i)
                .copied()
                .unwrap_or(CachePath::Computed);
            if path == CachePath::SemanticHit {
                self.semantic_hits.set(self.semantic_hits.get() + 1);
                if *got != want {
                    self.semantic_divergent
                        .set(self.semantic_divergent.get() + 1);
                }
            } else if *got != want {
                self.violation(format!(
                    "request {} ({path:?}) differs from standalone Engine::execute",
                    req.id
                ));
            }
        }
    }

    fn set_measuring(&self, on: bool) {
        self.measuring.set(on);
    }

    fn take_log(&self) -> DispatchLog {
        std::mem::take(&mut *self.log.borrow_mut())
    }
}

impl<B: Backend> Backend for &Dispatch<B> {
    fn run(&self, batch: &[Request]) -> Result<BatchOutcome, HermesError> {
        let mut write_ns = 0;
        if let Some(churn) = &self.churn {
            let d = churn.dispatches.get();
            churn.dispatches.set(d + 1);
            if d % WRITE_EVERY == 0 {
                write_ns = self.write(churn);
            }
        }
        let span = self.trace.is_some().then(|| {
            hermes_trace::span_with(
                BENCH_DISPATCH,
                &[
                    (names::ARG_REQUEST_ID, batch.first().map_or(0, |r| r.rid)),
                    (names::ARG_BATCH_SIZE, batch.len() as u64),
                ],
            )
        });
        let t = Instant::now();
        let mut out = self.inner.run(batch)?;
        let wall = ns(t.elapsed());
        drop(span);
        self.verify(batch, &out);
        if self.measuring.get() {
            self.total_wall_ns.set(self.total_wall_ns.get() + wall);
            let mut log = self.log.borrow_mut();
            log.wall_ns.push(wall);
            log.route_ns += out.phases.get(Phase::Route);
            log.deep_ns += out.phases.get(Phase::Deep);
            log.probe_ns += out.phases.get(Phase::CacheProbe);
            log.residual_ns += wall.saturating_sub(out.phases.total());
            log.shared_visits += out.shared_visits as u64;
            log.computed_visits += out
                .outcomes
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    out.cache_paths
                        .get(*i)
                        .copied()
                        .unwrap_or(CachePath::Computed)
                        == CachePath::Computed
                })
                .map(|(_, o)| o.searched_clusters.len() as u64)
                .sum::<u64>();
        }
        if let Some(trace) = &self.trace {
            if let Err(e) = trace.borrow_mut().drain() {
                self.violation(e.0);
            }
        }
        out.service_ns += write_ns;
        Ok(out)
    }
}

/// Timed results of one open-loop rung (over all rounds) or one
/// closed-loop pass. End-to-end figures pool every timed request of the
/// window: a median over a few segments snaps to whichever phase of a
/// shared machine held most of them, while a pooled order statistic and a
/// rate over the whole window move with the share of time each phase took.
#[derive(Debug, Default)]
struct Window {
    offered: usize,
    timed_offered: usize,
    sojourn_us: Vec<f64>,
    wait_us: Vec<f64>,
    /// Timed requests served within the workload's limit.
    met: usize,
    completed: usize,
    batches: usize,
    busy_ns: u64,
    makespan_ns: u64,
    shed: usize,
    expired: usize,
    /// Per segment (one rung of one round, or one chunk): virtual time
    /// from the last arrival until the queue drained.
    drains_us: Vec<f64>,
    log: DispatchLog,
}

impl Window {
    /// Adds one segment's timed completions and server report.
    fn absorb(
        &mut self,
        timed: &[&Completion],
        report: &ServeReport,
        limit_us: f64,
        drain_ns: u64,
    ) {
        let sojourn: Vec<f64> = timed.iter().map(|c| c.sojourn_ns() as f64 / 1e3).collect();
        self.met += sojourn.iter().filter(|&&s| s <= limit_us).count();
        self.sojourn_us.extend(sojourn);
        self.wait_us
            .extend(timed.iter().map(|c| c.wait_ns() as f64 / 1e3));
        self.completed += report.completed;
        self.batches += report.batches;
        self.busy_ns += report.busy_ns;
        self.makespan_ns += report.makespan_ns;
        self.shed += report.shed_full;
        self.expired += report.expired;
        self.drains_us.push(drain_ns as f64 / 1e3);
    }

    fn merge(&mut self, other: Window) {
        self.offered += other.offered;
        self.timed_offered += other.timed_offered;
        self.sojourn_us.extend(other.sojourn_us);
        self.wait_us.extend(other.wait_us);
        self.met += other.met;
        self.completed += other.completed;
        self.batches += other.batches;
        self.busy_ns += other.busy_ns;
        self.makespan_ns += other.makespan_ns;
        self.shed += other.shed;
        self.expired += other.expired;
        self.drains_us.extend(other.drains_us);
        let log = &mut self.log;
        let o = other.log;
        log.wall_ns.extend(o.wall_ns);
        log.route_ns += o.route_ns;
        log.deep_ns += o.deep_ns;
        log.probe_ns += o.probe_ns;
        log.residual_ns += o.residual_ns;
        log.shared_visits += o.shared_visits;
        log.computed_visits += o.computed_visits;
    }

    fn sojourn(&self) -> Dist {
        Dist::new(self.sojourn_us.clone())
    }

    /// Pooled p90 sojourn, infinite when the window cannot support it.
    fn p90(&self) -> f64 {
        self.sojourn().tail(TAIL).unwrap_or(f64::INFINITY)
    }

    /// Requests completed per second of server busy time.
    fn throughput(&self) -> f64 {
        self.completed as f64 / (self.busy_ns.max(1) as f64 * 1e-9)
    }

    /// Timed requests served within the limit per second of virtual time.
    fn goodput(&self) -> f64 {
        self.met as f64 / (self.makespan_ns.max(1) as f64 * 1e-9)
    }

    /// Share of timed offered requests served within the limit; shed and
    /// expired requests are misses.
    fn attainment(&self) -> f64 {
        self.met as f64 / self.timed_offered.max(1) as f64
    }

    /// Nothing shed or expired, the pooled p90 meets the limit, and the
    /// median segment leaves no backlog outlasting the limit.
    fn meets(&self, limit_us: f64) -> bool {
        self.shed == 0
            && self.expired == 0
            && crate::stats::median_of(&self.drains_us) <= limit_us
            && self.p90() <= limit_us
    }
}

/// One rung of one open-loop round at a frozen offered rate, on a fresh
/// server: [`OPEN_WARMUP`] untimed arrivals, then timed ones until the
/// budget is spent (at least [`OPEN_MIN_TIMED`]) or `replay` are offered.
fn open_rung<B: Backend>(
    dispatch: &Dispatch<B>,
    pool: &[Vec<f32>],
    rate: f64,
    seed: u64,
    budget: Option<Duration>,
    replay: Option<usize>,
) -> Result<Window, Fail> {
    let cap = replay.unwrap_or(200_000);
    let arrivals = poisson_arrival_times_ns(rate, cap, derive_seed(seed, 1));
    let mut rng = seeded_rng(derive_seed(seed, 2));
    let cycle = mix();
    let mut server = Server::new(
        dispatch,
        ServerConfig {
            queue_capacity: OPEN_QUEUE,
            max_batch: MAX_BATCH,
        },
    );
    dispatch.set_measuring(false);
    let t0 = Instant::now();
    let mut w = Window::default();
    for (i, &at) in arrivals.iter().enumerate() {
        if let Some(budget) = budget {
            if i >= OPEN_WARMUP + OPEN_MIN_TIMED && t0.elapsed() >= budget {
                break;
            }
        }
        server.run_until(at).map_err(Fail::engine)?;
        if i == OPEN_WARMUP {
            dispatch.set_measuring(true);
        }
        let q = pool[rng.gen_range(0..pool.len())].clone();
        let _ = server.submit(Request::new(i as u64, q, cycle[i % cycle.len()], at));
        w.offered += 1;
    }
    let last_arrival = arrivals[w.offered - 1];
    server.run_until(u64::MAX).map_err(Fail::engine)?;
    dispatch.set_measuring(false);
    let completions = server.take_completions();
    let shed = server.take_shed();
    if completions.len() + shed.len() != w.offered {
        return Err(Fail::new(format!(
            "open loop at {rate} qps lost requests: {} completed + {} shed != {} offered",
            completions.len(),
            shed.len(),
            w.offered
        )));
    }
    if completions.iter().any(|c| c.outcome.is_none()) {
        return Err(Fail::new("a completion carries no result".into()));
    }
    let report = server.report();
    let timed: Vec<&Completion> = completions
        .iter()
        .filter(|c| c.request.id as usize >= OPEN_WARMUP)
        .collect();
    w.timed_offered = w.offered.saturating_sub(OPEN_WARMUP);
    let drain = report.makespan_ns.saturating_sub(last_arrival);
    w.absorb(&timed, &report, OPEN_LIMIT_US, drain);
    w.log = dispatch.take_log();
    Ok(w)
}

/// A closed loop of [`CLOSED_USERS`] clients with zero think time over one
/// backend: a warm-up chunk of [`CLOSED_WARMUP`] requests, then timed
/// chunks of [`CHUNK`] requests, each on a fresh server and each one
/// segment.
fn closed_loop<B: Backend>(
    dispatch: &Dispatch<B>,
    chunk_queries: impl Fn(usize, usize) -> Vec<Vec<f32>>,
    budget: Option<Duration>,
    replay: Option<usize>,
) -> Result<(Window, usize), Fail> {
    let mut w = Window::default();
    let t0 = Instant::now();
    let mut chunks = 0;
    loop {
        match (budget, replay) {
            (_, Some(n)) if chunks == n => break,
            (Some(b), _) if chunks > CLOSED_MIN_CHUNKS && t0.elapsed() >= b => break,
            _ => {}
        }
        let timed = chunks > 0;
        let requests = if timed { CHUNK } else { CLOSED_WARMUP };
        let spec = ClosedLoopSpec::new(requests, CLOSED_USERS).with_priority_cycle(mix());
        dispatch.set_measuring(timed);
        let mut server = Server::new(
            dispatch,
            ServerConfig {
                queue_capacity: CLOSED_USERS,
                max_batch: MAX_BATCH,
            },
        );
        let queries = chunk_queries(chunks, requests);
        let report = run_closed_loop(&mut server, &queries, &spec).map_err(Fail::engine)?;
        chunks += 1;
        w.offered += requests;
        if report.completions.len() + report.shed.len() != requests {
            return Err(Fail::new(format!(
                "closed loop lost requests: {} completed + {} shed != {requests} offered",
                report.completions.len(),
                report.shed.len()
            )));
        }
        if report.completions.iter().any(|c| c.outcome.is_none()) {
            return Err(Fail::new("a completion carries no result".into()));
        }
        if timed {
            w.timed_offered += requests;
            let done: Vec<&Completion> = report.completions.iter().collect();
            w.absorb(&done, &report.serve, CLOSED_LIMIT_US, 0);
        }
    }
    dispatch.set_measuring(false);
    w.log = dispatch.take_log();
    Ok((w, chunks))
}

/// End-to-end metrics shared by the serving workloads.
fn put_e2e(
    m: &mut Metrics,
    w: &Window,
    max_qps: f64,
    setup_s: f64,
    recall: f64,
) -> Result<(), Fail> {
    let p90 = w.p90();
    if !p90.is_finite() {
        return Err(Fail::new(
            "too few timed requests to support a p90".into(),
        ));
    }
    m.put("setup_s", setup_s);
    m.put("throughput_qps", w.throughput());
    m.put("latency_p50_us", w.sojourn().median());
    m.put("latency_p90_us", p90);
    m.put("slo_attainment", w.attainment());
    m.put("max_qps_at_slo", max_qps);
    m.put("recall_at_10", recall);
    m.put("peak_rss_mb", peak_rss_mb());
    Ok(())
}

/// Per-layer `serve.*` metrics of one window.
fn put_serve_layers(m: &mut Metrics, w: &Window) {
    let waits = Dist::new(w.wait_us.clone());
    let dispatch = Dist::from_ns(w.log.wall_ns.iter().copied());
    let n = w.log.wall_ns.len().max(1) as f64;
    m.put(
        "serve.sojourn.p99_us",
        Dist::new(w.sojourn_us.clone()).tail(0.99).unwrap_or(0.0),
    );
    m.put("serve.queue_wait.p50_us", waits.median());
    m.put("serve.queue_wait.p99_us", waits.tail(0.99).unwrap_or(0.0));
    m.put("serve.dispatch.p50_us", dispatch.median());
    m.put("serve.dispatch.p99_us", dispatch.tail(0.99).unwrap_or(0.0));
    m.put("serve.route_us", w.log.route_ns as f64 / n / 1e3);
    m.put("serve.deep_us", w.log.deep_ns as f64 / n / 1e3);
    m.put("serve.cache_probe_us", w.log.probe_ns as f64 / n / 1e3);
    m.put("serve.residual_us", w.log.residual_ns as f64 / n / 1e3);
    m.put(
        "serve.batch_size.mean",
        w.completed as f64 / w.batches.max(1) as f64,
    );
    m.put(
        "serve.busy_frac",
        w.busy_ns as f64 / w.makespan_ns.max(1) as f64,
    );
    m.put(
        "serve.shared_visits_frac",
        w.log.shared_visits as f64 / w.log.computed_visits.max(1) as f64,
    );
    m.put("serve.shed", w.shed as f64);
    m.put("serve.expired", w.expired as f64);
    m.put(
        "failed_frac",
        (w.shed + w.expired) as f64 / w.timed_offered.max(1) as f64,
    );
}

fn describe(name: &str, w: &Window, out: &mut Vec<String>) {
    out.push(format!(
        "{name}: sojourn {}, p90 {:.1} us [virtual-time composite, pooled over {} segments]; offered {}, completed {}, shed {}, expired {}, mean batch {:.2}, busy {:.1}%",
        w.sojourn().describe("us"),
        w.p90(),
        w.drains_us.len(),
        w.offered,
        w.completed,
        w.shed,
        w.expired,
        w.completed as f64 / w.batches.max(1) as f64,
        100.0 * w.busy_ns as f64 / w.makespan_ns.max(1) as f64,
    ));
}

/// Highest ladder rate meeting the limit, interpolated on the pooled p90
/// between the highest passing rung and the rung above it.
fn max_qps_at_slo(rungs: &[Window], limit_us: f64) -> f64 {
    let Some(top) = rungs.iter().rposition(|w| w.meets(limit_us)) else {
        return 0.0;
    };
    if top + 1 == rungs.len() {
        return OPEN_RATES_QPS[top];
    }
    let (lo, hi) = (rungs[top].p90(), rungs[top + 1].p90());
    let frac = if hi.is_finite() && hi > lo {
        ((limit_us - lo) / (hi - lo)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    OPEN_RATES_QPS[top] + frac * (OPEN_RATES_QPS[top + 1] - OPEN_RATES_QPS[top])
}

fn warm_up(store: &ClusteredStore, pool: &[Vec<f32>]) -> Result<(), Fail> {
    let engine = Engine::for_store(store);
    for q in pool.iter().take(64) {
        std::hint::black_box(engine.execute(q).map_err(Fail::engine)?);
    }
    Ok(())
}

fn static_recall(store: &ClusteredStore, inputs: &Inputs) -> Result<f64, Fail> {
    let ids = (0..inputs.shape.docs as u64).collect();
    let truth = oracle(
        inputs.base.clone(),
        ids,
        &inputs.pool,
        inputs.shape.k,
        inputs.config.metric,
    )?;
    let engine = Engine::for_store(store);
    let mut sum = 0.0;
    for (q, t) in inputs.pool.iter().zip(&truth) {
        sum += recall(&engine.execute(q).map_err(Fail::engine)?.hits, t);
    }
    Ok(sum / truth.len() as f64)
}

fn build_store(inputs: &Inputs) -> Result<(ClusteredStore, f64), Fail> {
    timed_setup(SETUP_REPS, || {
        ClusteredStore::build(&inputs.base, &inputs.config).map_err(Fail::engine)
    })
}

pub fn serve_open(args: &Args) -> Result<Outcome, Fail> {
    let inputs = Inputs::generate(SERVE_SHAPE, args.seed, 0);
    let (store, setup_s) = build_store(&inputs)?;
    let recall = static_recall(&store, &inputs)?;
    warm_up(&store, &inputs.pool)?;
    let mut out = Outcome::default();

    // Rounds sweep the whole ladder in turn, so a slow phase of the machine
    // lands on every rung alike; each rung is judged on all its rounds pooled.
    // Per rung its window over all rounds; per round-rung the offered count.
    type Ladder = (Vec<Window>, Vec<usize>);
    let run = |traced: bool, counts: Option<&[usize]>| -> Result<Pass<Ladder>, Fail> {
        let backend = EngineBackend::new(Engine::for_store(&store), 0);
        let mut dispatch = Dispatch::new(backend, Reference::fixed(&store, &inputs.pool)?, traced);
        // The reference rung gets a quarter of each round, the others share the rest.
        let per_round = args.seconds / OPEN_ROUNDS as u32;
        let others = (OPEN_RATES_QPS.len() - 1) as u32;
        dispatch.begin();
        let mut rungs: Vec<Window> = OPEN_RATES_QPS.iter().map(|_| Window::default()).collect();
        let mut offered = Vec::new();
        for round in 0..OPEN_ROUNDS {
            for (r, &rate) in OPEN_RATES_QPS.iter().enumerate() {
                let seed = derive_seed(args.seed, (100 + round * OPEN_RATES_QPS.len() + r) as u64);
                let replay = counts.map(|c| c[offered.len()]);
                let share = if r == OPEN_REFERENCE_RUNG {
                    per_round / 4
                } else {
                    per_round * 3 / 4 / others
                };
                let budget = Some(share).filter(|_| replay.is_none());
                let w = open_rung(&dispatch, &inputs.pool, rate, seed, budget, replay)?;
                offered.push(w.offered);
                rungs[r].merge(w);
            }
        }
        Pass::finish((rungs, offered), &mut dispatch)
    };

    let pass = run(false, None)?;
    out.violations.extend(pass.violations);
    let (rungs, offered) = pass.result;
    let reference = &rungs[OPEN_REFERENCE_RUNG];
    let max_qps = max_qps_at_slo(&rungs, OPEN_LIMIT_US);
    put_e2e(
        &mut out.e2e,
        reference,
        max_qps,
        setup_s,
        recall,
    )?;
    for (r, w) in rungs.iter().enumerate() {
        describe(
            &format!("rung {r} @ {:.0} qps", OPEN_RATES_QPS[r]),
            w,
            &mut out.notes,
        );
        out.attempted += w.offered as u64;
        out.failed += (w.shed + w.expired) as u64;
    }
    out.notes.push(format!(
        "limit {OPEN_LIMIT_US} us on p90; reference rung {OPEN_REFERENCE_RUNG}; max qps at limit {max_qps:.0} (interpolated between rungs); arrivals are virtual, so the generator never runs late"
    ));

    if args.trace {
        let traced = run(true, Some(&offered))?;
        out.violations.extend(traced.violations);
        let (traced_rungs, _) = traced.result;
        let completed = traced_rungs.iter().map(|w| w.completed).sum();
        put_serve_layers(&mut out.layers, &traced_rungs[OPEN_REFERENCE_RUNG]);
        traced_layers(
            &mut out,
            traced.trace,
            completed,
            traced.wall_ns,
            pass.wall_ns,
            &store,
            &inputs.pool,
        )?;
    }
    Ok(out)
}

/// What one pass over a serving workload leaves behind.
struct Pass<T> {
    result: T,
    /// Sum of `Backend::run` wall times over the timed dispatches.
    wall_ns: u64,
    violations: Vec<String>,
    trace: Option<TraceLog>,
}

impl<T> Pass<T> {
    fn finish<B: Backend>(result: T, dispatch: &mut Dispatch<B>) -> Result<Self, Fail> {
        let trace = dispatch.end()?;
        Ok(Pass {
            result,
            wall_ns: dispatch.total_wall_ns.get(),
            violations: dispatch.violations.borrow().clone(),
            trace,
        })
    }
}

/// Layer metrics every traced serving pass reports: tracing overhead,
/// pool counters, and the engine and shard rungs on the workload's store.
fn traced_layers(
    out: &mut Outcome,
    trace: Option<TraceLog>,
    completed: usize,
    traced_ns: u64,
    untraced_ns: u64,
    store: &ClusteredStore,
    pool: &[Vec<f32>],
) -> Result<(), Fail> {
    let mut trace = trace.expect("a traced pass keeps a trace log");
    out.layers.put(
        "trace.overhead_frac",
        traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0,
    );
    ladder::pool_layers(&mut out.layers, &trace, BENCH_DISPATCH, completed);
    ladder::engine_rungs(store, pool, &mut trace, out)?;
    out.trace = Some(trace);
    Ok(())
}

pub fn serve_batch(args: &Args) -> Result<Outcome, Fail> {
    let inputs = Inputs::generate(SERVE_SHAPE, args.seed, 0);
    let (store, setup_s) = build_store(&inputs)?;
    let recall = static_recall(&store, &inputs)?;
    warm_up(&store, &inputs.pool)?;
    let mut out = Outcome::default();
    let chunk_queries = |c: usize, n: usize| -> Vec<Vec<f32>> {
        let mut rng = seeded_rng(derive_seed(args.seed, 200 + c as u64));
        (0..n)
            .map(|_| inputs.pool[rng.gen_range(0..inputs.pool.len())].clone())
            .collect()
    };
    let run = |traced: bool, replay: Option<usize>| -> Result<Pass<(Window, usize)>, Fail> {
        let backend = EngineBackend::new(Engine::for_store(&store), 0);
        let mut dispatch = Dispatch::new(backend, Reference::fixed(&store, &inputs.pool)?, traced);
        let budget = Some(args.seconds).filter(|_| replay.is_none());
        dispatch.begin();
        let result = closed_loop(&dispatch, chunk_queries, budget, replay)?;
        Pass::finish(result, &mut dispatch)
    };
    let pass = run(false, None)?;
    out.violations.extend(pass.violations);
    let (w, chunks) = pass.result;
    let max_qps = closed_max_qps(&w);
    put_e2e(&mut out.e2e, &w, max_qps, setup_s, recall)?;
    describe("closed loop, 8 clients", &w, &mut out.notes);
    out.attempted = w.offered as u64;
    out.failed = (w.shed + w.expired) as u64;
    if args.trace {
        let traced = run(true, Some(chunks))?;
        out.violations.extend(traced.violations);
        let (tw, _) = traced.result;
        put_serve_layers(&mut out.layers, &tw);
        traced_layers(
            &mut out,
            traced.trace,
            tw.completed,
            traced.wall_ns,
            pass.wall_ns,
            &store,
            &inputs.pool,
        )?;
    }
    Ok(out)
}

/// A closed loop sets its own rate and cannot build a backlog beyond its
/// clients; the rate it sustains within the limit is its goodput: requests
/// served within the limit per second.
fn closed_max_qps(w: &Window) -> f64 {
    w.goodput()
}

pub fn zipf_churn(args: &Args) -> Result<Outcome, Fail> {
    let inputs = Inputs::generate(SERVE_SHAPE, args.seed, EXTRA_DOCS);
    let (pristine, setup_s) = build_store(&inputs)?;
    warm_up(&pristine, &inputs.pool)?;
    let mut out = Outcome::default();
    let stream = |c: usize, n: usize| -> Vec<Vec<f32>> {
        // Zipf-1.0 over pool ranks, a fresh seeded stream per chunk.
        let spec = StreamSpec::repeated(n).with_seed(derive_seed(args.seed, 300 + c as u64));
        query_stream(&inputs.pool_set, spec)
    };

    struct Churned {
        w: Window,
        chunks: usize,
        cache: CacheStats,
        semantic: (u64, u64),
        final_store: Arc<ClusteredStore>,
        live: Vec<u64>,
        inserts: u64,
        removes: usize,
    }
    let run = |traced: bool, replay: Option<usize>| -> Result<Pass<Churned>, Fail> {
        let cell = Arc::new(GenerationCell::new(pristine.clone()));
        let cached = CachedBackend::new(
            cell.clone(),
            0,
            CacheConfig::default()
                .with_capacity(CACHE_CAPACITY)
                .with_seed(derive_seed(args.seed, 4)),
        );
        let reference = Reference::Cell {
            cell: cell.clone(),
            memo: RefCell::new((u64::MAX, HashMap::new())),
        };
        let mut dispatch = Dispatch::new(cached, reference, traced);
        dispatch.churn = Some(Churn {
            cell: cell.clone(),
            base_docs: inputs.shape.docs as u64,
            extra: inputs.extra.clone(),
            next_id: Cell::new(inputs.shape.docs as u64),
            live: RefCell::new((0..inputs.shape.docs as u64).collect()),
            removed: RefCell::new(HashSet::new()),
            rng: RefCell::new(seeded_rng(derive_seed(args.seed, 5))),
            dispatches: Cell::new(0),
        });
        let budget = Some(args.seconds).filter(|_| replay.is_none());
        // Cache counters are deltas over the timed chunks: the first chunk
        // fills the cache.
        let warm = Cell::new(CacheStats::default());
        dispatch.begin();
        let (w, chunks) = closed_loop(
            &dispatch,
            |c, n| {
                if c == 1 {
                    warm.set(dispatch.inner.cache_stats());
                }
                stream(c, n)
            },
            budget,
            replay,
        )?;
        let (end, warm) = (dispatch.inner.cache_stats(), warm.get());
        let cache = CacheStats {
            exact_hits: end.exact_hits - warm.exact_hits,
            semantic_hits: end.semantic_hits - warm.semantic_hits,
            misses: end.misses - warm.misses,
            stale: end.stale - warm.stale,
            bypass: end.bypass - warm.bypass,
            insertions: end.insertions - warm.insertions,
            evictions: end.evictions - warm.evictions,
        };
        let churn = dispatch.churn.take().expect("churn set above");
        let removes = churn.removed.borrow().len();
        let churned = Churned {
            w,
            chunks,
            cache,
            semantic: (
                dispatch.semantic_hits.get(),
                dispatch.semantic_divergent.get(),
            ),
            final_store: cell.current(),
            live: churn.live.into_inner(),
            inserts: churn.next_id.get() - inputs.shape.docs as u64,
            removes,
        };
        Pass::finish(churned, &mut dispatch)
    };

    let pass = run(false, None)?;
    out.violations.extend(pass.violations);
    let c = &pass.result;
    // After churn the store holds exactly the applied writes, and recall is
    // measured against a brute-force oracle over the survivors.
    let expected_len = inputs.shape.docs + c.inserts as usize - c.removes;
    if c.final_store.len() != expected_len || c.live.len() != expected_len {
        out.violations.push(format!(
            "store holds {} docs after {} inserts and {} removes; expected {expected_len}",
            c.final_store.len(),
            c.inserts,
            c.removes
        ));
    }
    let recall = churn_recall(&c.final_store, &inputs, &c.live)?;
    let max_qps = closed_max_qps(&c.w);
    put_e2e(
        &mut out.e2e,
        &c.w,
        max_qps,
        setup_s,
        recall,
    )?;
    describe(
        "closed loop, 8 clients, write every 4 dispatches",
        &c.w,
        &mut out.notes,
    );
    out.notes.push(format!(
        "writes: {} inserts, {} removes; write {} [wall]; cache hit ratio {:.3}; semantic hits {} ({} diverged from standalone)",
        c.inserts,
        c.removes,
        Dist::from_ns(c.w.log.mutate_ns.iter().copied()).describe("us"),
        c.cache.hit_rate(),
        c.semantic.0,
        c.semantic.1,
    ));
    out.attempted = c.w.offered as u64;
    out.failed = (c.w.shed + c.w.expired) as u64;

    if args.trace {
        let traced = run(true, Some(c.chunks))?;
        out.violations.extend(traced.violations);
        let t = &traced.result;
        let w = &t.w;
        put_serve_layers(&mut out.layers, w);
        let m = &mut out.layers;
        m.put("cache.hit_ratio", t.cache.hit_rate());
        m.put("cache.exact_hits", t.cache.exact_hits as f64);
        m.put("cache.semantic_hits", t.cache.semantic_hits as f64);
        m.put("cache.semantic_divergent", t.semantic.1 as f64);
        m.put("cache.misses", t.cache.misses as f64);
        m.put("cache.stale", t.cache.stale as f64);
        m.put("cache.evictions", t.cache.evictions as f64);
        let log = &w.log;
        let residual = (0..log.mutate_ns.len()).map(|i| {
            (log.mutate_ns[i] as f64 - log.insert_ns[i] as f64 - log.remove_ns[i] as f64) / 1e3
        });
        m.put(
            "store.insert.p50_us",
            Dist::from_ns(log.insert_ns.iter().copied()).median(),
        );
        m.put(
            "store.remove.p50_us",
            Dist::from_ns(log.remove_ns.iter().copied()).median(),
        );
        m.put(
            "cell.mutate.p50_us",
            Dist::from_ns(log.mutate_ns.iter().copied()).median(),
        );
        m.put("cell.residual_us", Dist::new(residual.collect()).median());
        m.put("store.tombstones", t.final_store.tombstones() as f64);
        traced_layers(
            &mut out,
            traced.trace,
            w.completed,
            traced.wall_ns,
            pass.wall_ns,
            &pristine,
            &inputs.pool,
        )?;
    }
    Ok(out)
}

fn churn_recall(store: &ClusteredStore, inputs: &Inputs, live: &[u64]) -> Result<f64, Fail> {
    let docs = inputs.shape.docs as u64;
    let mut ids: Vec<u64> = live.to_vec();
    ids.sort_unstable();
    let rows: Vec<Vec<f32>> = ids
        .iter()
        .map(|&id| {
            if id < docs {
                inputs.base.row(id as usize).to_vec()
            } else {
                extra_row(id, docs, &inputs.extra).to_vec()
            }
        })
        .collect();
    let truth = oracle(
        Mat::from_rows(&rows),
        ids,
        &inputs.pool,
        inputs.shape.k,
        inputs.config.metric,
    )?;
    let engine = Engine::for_store(store);
    let mut sum = 0.0;
    for (q, t) in inputs.pool.iter().zip(&truth) {
        sum += recall(&engine.execute(q).map_err(Fail::engine)?.hits, t);
    }
    Ok(sum / truth.len() as f64)
}

/// Vector of inserted document `id` (ids past the base corpus cycle
/// through the extra documents).
fn extra_row(id: u64, base_docs: u64, extra: &Mat) -> &[f32] {
    extra.row(((id - base_docs) as usize) % extra.rows())
}
