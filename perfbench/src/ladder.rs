//! The lower rungs of the ladder, replayed on a workload's own store and
//! queries with telemetry on: shard scans, `Engine::execute` and the
//! coalesced batch, all with the scatter inline
//! (`QueryPlan::with_scatter_threads(1)`) so children add up to parents.

use std::time::Instant;

use hermes_core::exec::{Engine, QueryPlan};
use hermes_core::ClusteredStore;
use hermes_index::{SearchParams, VectorIndex};
use hermes_trace::names;

use crate::stats::Dist;
use crate::tracing::{sum_ns, TraceLog, BENCH_COALESCED, BENCH_EXECUTE};
use crate::{Fail, Metrics, Outcome};

/// Queries per coalesced batch of the engine rung (the serving max batch).
const COALESCED_BATCH: usize = 8;

/// `pool.steal` per request and `pool.idle_frac`: the share of worker time
/// parked while the caller was inside an `interval` span.
pub fn pool_layers(m: &mut Metrics, trace: &TraceLog, interval: &str, requests: usize) {
    let workers = hermes_pool::Pool::global().threads().saturating_sub(1);
    let mut busy: Vec<(u64, u64)> = trace
        .spans
        .iter()
        .filter(|s| s.name == interval)
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    busy.sort_unstable();
    let busy_ns: u64 = busy.iter().map(|(a, b)| b - a).sum();
    let mut idle_ns = 0u64;
    for s in trace.spans.iter().filter(|s| s.name == names::POOL_IDLE) {
        let (a, b) = (s.start_ns, s.start_ns + s.dur_ns);
        let first = busy.partition_point(|&(_, end)| end <= a);
        for &(ia, ib) in busy[first..].iter().take_while(|&&(ia, _)| ia < b) {
            idle_ns += ib.min(b).saturating_sub(ia.max(a));
        }
    }
    m.put(
        "pool.steal",
        trace.counter_samples(names::POOL_STEAL) as f64 / requests.max(1) as f64,
    );
    m.put(
        "pool.idle_frac",
        if workers == 0 {
            0.0
        } else {
            idle_ns as f64 / (workers as f64 * busy_ns.max(1) as f64)
        },
    );
}

/// Shard, engine and coalesced rungs over `queries`; also checks that the
/// inline-scatter plan returns exactly what the store's own plan returns.
pub fn engine_rungs(
    store: &ClusteredStore,
    queries: &[Vec<f32>],
    trace: &mut TraceLog,
    out: &mut Outcome,
) -> Result<(), Fail> {
    let cfg = *store.config();
    let standalone = Engine::for_store(store);
    let plan = QueryPlan::from_config(&cfg).with_scatter_threads(1);
    hermes_trace::disable();
    let reference = queries
        .iter()
        .map(|q| standalone.execute(q))
        .collect::<Result<Vec<_>, _>>()
        .map_err(Fail::engine)?;
    hermes_trace::enable();
    trace.drain()?;

    // Engine rung: one execute per query, children folded from its spans.
    let (mut exec, mut route, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    let (mut route_codes, mut deep_codes) = (0usize, 0usize);
    for (i, (q, want)) in queries.iter().zip(&reference).enumerate() {
        let engine = Engine::new(store, plan.with_request_id(i as u64));
        let got = {
            let _sp = hermes_trace::span_with(BENCH_EXECUTE, &[(names::ARG_REQUEST_ID, i as u64)]);
            engine.execute(q).map_err(Fail::engine)?
        };
        if got != *want {
            out.violations.push(format!(
                "query {i}: inline-scatter execute differs from the store plan"
            ));
        }
        route_codes += got.stats.route.scanned_codes;
        deep_codes += got.stats.deep.scanned_codes;
        let spans = trace.drain_fresh()?;
        let e = sum_ns(&spans, names::ENGINE_EXECUTE);
        let r = sum_ns(&spans, names::ENGINE_ROUTE);
        exec.push(e);
        route.push(r);
        residual.push(e as f64 - r as f64 - sum_ns(&spans, names::SHARD_DEEP) as f64);
    }
    let n = queries.len().max(1) as f64;
    let exec_d = Dist::from_ns(exec.iter().copied());
    let m = &mut out.layers;
    m.put("engine.execute.p50_us", exec_d.median());
    m.put(
        "engine.route.p50_us",
        Dist::from_ns(route.iter().copied()).median(),
    );
    m.put(
        "engine.route.share",
        route.iter().sum::<u64>() as f64 / exec.iter().sum::<u64>().max(1) as f64,
    );
    m.put("engine.residual_us", Dist::new(residual).median() / 1e3);
    m.put("engine.route.codes", route_codes as f64 / n);
    m.put("engine.deep.codes", deep_codes as f64 / n);

    // Coalesced rung: batches of eight through route_batch + the coalesced scatter.
    let engine = Engine::new(store, plan);
    let (mut per_query, mut distinct, mut co_residual) = (Vec::new(), Vec::new(), Vec::new());
    for (b, (batch, want)) in queries
        .chunks(COALESCED_BATCH)
        .zip(reference.chunks(COALESCED_BATCH))
        .enumerate()
    {
        let got = {
            let _sp =
                hermes_trace::span_with(BENCH_COALESCED, &[(names::ARG_REQUEST_ID, b as u64)]);
            let routes = engine.route_batch(batch, 1).map_err(Fail::engine)?;
            engine
                .execute_coalesced_routed(batch, routes, 1)
                .map_err(Fail::engine)?
        };
        if got != want {
            out.violations.push(format!(
                "coalesced batch {b} differs from standalone execute"
            ));
        }
        let spans = trace.drain_fresh()?;
        let total = sum_ns(&spans, BENCH_COALESCED) as f64;
        per_query.push(total / batch.len() as f64);
        distinct.extend(
            spans
                .iter()
                .filter(|s| s.name == names::ENGINE_COALESCED)
                .filter_map(|s| s.args.iter().find(|(k, _)| *k == "distinct_clusters"))
                .map(|(_, v)| *v as f64),
        );
        co_residual.push(
            total
                - sum_ns(&spans, names::ENGINE_ROUTE) as f64
                - sum_ns(&spans, names::SHARD_DEEP) as f64,
        );
    }
    m.put(
        "engine.coalesced.per_query_us",
        Dist::new(per_query).median() / 1e3,
    );
    m.put(
        "engine.coalesced.distinct_clusters",
        Dist::new(distinct).mean(),
    );
    m.put(
        "engine.coalesced.residual_us",
        Dist::new(co_residual).median() / 1e3,
    );

    // Shard rung: IvfIndex::search_with_stats on every sampled shard and on
    // the shards the route chose, timed directly.
    let sample = SearchParams::new().with_nprobe(cfg.sample_nprobe);
    let deep = SearchParams::new().with_nprobe(cfg.deep_nprobe);
    let (mut sample_ns, mut deep_ns) = (Vec::new(), Vec::new());
    let (mut codes, mut lists) = (0usize, 0usize);
    for (q, want) in queries.iter().zip(&reference) {
        for c in 0..store.num_clusters() {
            let t = Instant::now();
            std::hint::black_box(
                store
                    .shard(c)
                    .search_with_stats(q, 1, &sample)
                    .map_err(Fail::index)?,
            );
            sample_ns.push(t.elapsed().as_nanos() as u64);
        }
        for &c in &want.searched_clusters {
            let t = Instant::now();
            let (_, stats) = std::hint::black_box(
                store
                    .shard(c)
                    .search_with_stats(q, cfg.k, &deep)
                    .map_err(Fail::index)?,
            );
            deep_ns.push(t.elapsed().as_nanos() as u64);
            codes += stats.scanned_codes;
            lists += stats.probed_partitions;
        }
    }
    trace.drain()?;
    let visits = deep_ns.len().max(1) as f64;
    let deep_total: u64 = deep_ns.iter().sum();
    let code_bytes = cfg.codec.code_size(store.shard(0).dim()) as f64;
    m.put("shard.sample.p50_us", Dist::from_ns(sample_ns).median());
    m.put("shard.deep.p50_us", Dist::from_ns(deep_ns).median());
    m.put("shard.deep.codes", codes as f64 / visits);
    m.put("shard.deep.lists", lists as f64 / visits);
    m.put(
        "shard.deep.ns_per_code",
        deep_total as f64 / codes.max(1) as f64,
    );
    // Computed from scanned codes x code size, not measured by a counter.
    m.put(
        "kernel.bytes_per_query",
        (route_codes + deep_codes) as f64 / n * code_bytes,
    );
    m.put(
        "kernel.gbytes_per_s",
        codes as f64 * code_bytes / deep_total.max(1) as f64,
    );
    Ok(())
}
