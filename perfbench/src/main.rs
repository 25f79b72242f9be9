//! Seeded end-to-end and per-layer benchmark of the Hermes request path.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_open|serve_batch|zipf_churn|rag_d768> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its inputs from `--seed`, builds the serving state
//! (timed as `setup_s`), warms up, measures for about `--seconds`, and
//! checks every served result. With `--trace 0` the last line of stdout
//! is a JSON object holding the end-to-end metrics; with `--trace 1` a
//! separate traced pass replays the recorded inputs with telemetry on and
//! the JSON holds the per-layer metrics instead. Any failed check exits
//! with code 1; bad arguments exit with code 2. `perfbench/README.md`
//! describes the workloads, the metrics and their predicted interactions.

mod ladder;
mod rag;
mod serve;
mod setup;
mod stats;
mod tracing;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use hermes_core::HermesError;
use hermes_index::IndexError;

/// End-to-end metrics, printed with `--trace 0`, in this order.
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("slo_attainment", "fraction"),
    ("max_qps_at_slo", "1/s"),
    ("recall_at_10", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`, in this order. A layer
/// that is not on a workload's request path reads 0 there.
const LAYERS: &[(&str, &str)] = &[
    ("serve.sojourn.p99_us", "us"),
    ("serve.queue_wait.p50_us", "us"),
    ("serve.queue_wait.p99_us", "us"),
    ("serve.dispatch.p50_us", "us"),
    ("serve.dispatch.p99_us", "us"),
    ("serve.route_us", "us"),
    ("serve.deep_us", "us"),
    ("serve.cache_probe_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.batch_size.mean", "count"),
    ("serve.busy_frac", "fraction"),
    ("serve.shared_visits_frac", "fraction"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("failed_frac", "fraction"),
    ("cache.hit_ratio", "fraction"),
    ("cache.exact_hits", "count"),
    ("cache.semantic_hits", "count"),
    ("cache.semantic_divergent", "count"),
    ("cache.misses", "count"),
    ("cache.stale", "count"),
    ("cache.evictions", "count"),
    ("store.insert.p50_us", "us"),
    ("store.remove.p50_us", "us"),
    ("cell.mutate.p50_us", "us"),
    ("cell.residual_us", "us"),
    ("store.tombstones", "count"),
    ("engine.execute.p50_us", "us"),
    ("engine.route.p50_us", "us"),
    ("engine.route.share", "fraction"),
    ("engine.residual_us", "us"),
    ("engine.route.codes", "count"),
    ("engine.deep.codes", "count"),
    ("engine.coalesced.per_query_us", "us"),
    ("engine.coalesced.distinct_clusters", "count"),
    ("engine.coalesced.residual_us", "us"),
    ("shard.sample.p50_us", "us"),
    ("shard.deep.p50_us", "us"),
    ("shard.deep.codes", "count"),
    ("shard.deep.lists", "count"),
    ("shard.deep.ns_per_code", "ns"),
    ("kernel.bytes_per_query", "B"),
    ("kernel.gbytes_per_s", "GB/s"),
    ("pool.steal", "count"),
    ("pool.idle_frac", "fraction"),
    ("rag.retrieve.p50_us", "us"),
    ("rag.retrievals_per_answer", "count"),
    ("rag.stride_overlap", "fraction"),
    ("rag.residual_us", "us"),
    ("trace.overhead_frac", "fraction"),
];

/// A run that cannot produce a result.
#[derive(Debug)]
pub struct Fail(pub String);

impl Fail {
    pub fn new(msg: String) -> Self {
        Fail(msg)
    }

    pub fn engine(e: HermesError) -> Self {
        Fail(format!("engine error: {e}"))
    }

    pub fn index(e: IndexError) -> Self {
        Fail(format!("index error: {e}"))
    }
}

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// Everything a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Failed correctness checks.
    pub violations: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    pub trace: Option<tracing::TraceLog>,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over `table`, or the name of
/// a metric whose value is missing or not finite.
fn metrics_json(
    table: &[(&str, &str)],
    values: &Metrics,
    missing_is_zero: bool,
) -> Result<String, String> {
    if let Some(unknown) = values
        .0
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {unknown} is not declared"));
    }
    let mut parts = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let v = match values.0.get(name) {
            Some(v) => *v,
            None if missing_is_zero => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "serve_open" => serve::serve_open,
        "serve_batch" => serve::serve_batch,
        "zipf_churn" => serve::zipf_churn,
        "rag_d768" => rag::rag_d768,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed={} seconds={:?} trace={} simd={:?} pool_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        hermes_math::simd_level(),
        hermes_pool::Pool::global().threads()
    );
    let out = match run(&args) {
        Ok(out) => out,
        Err(Fail(e)) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for line in &out.notes {
        println!("  {line}");
    }
    let print = |title: &str, table: &[(&str, &str)], m: &Metrics| {
        println!("{title}");
        for (name, unit) in table {
            if let Some(v) = m.0.get(name) {
                println!("  {name:<36} {v:>14.4} {unit}");
            }
        }
    };
    print("end-to-end:", E2E, &out.e2e);
    if args.trace {
        print("per-layer (traced pass):", LAYERS, &out.layers);
        if let Some(t) = &out.trace {
            println!("spans folded by name (traced pass, {} dropped):", t.dropped);
            print!("{}", tracing::render(&t.spans));
        }
    }
    let metrics = if args.trace {
        metrics_json(LAYERS, &out.layers, true)
    } else {
        metrics_json(E2E, &out.e2e, false)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = out.violations.is_empty();
    for v in &out.violations {
        eprintln!("perfbench: correctness check failed: {v}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
