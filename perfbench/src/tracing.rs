//! Span collection and folding for the traced pass.
//!
//! The benchmark records its own spans (`bench.*`) around each public
//! call through `hermes-trace`, and folds the program's existing spans
//! (`engine.*`, `shard.*`, `pool.*`, `rag.retrieve`, `serve.*`) by name.
//! Rings are drained after every dispatch or query so none overflows.

use std::collections::BTreeMap;

use hermes_trace::{names, SpanRecord};

use crate::stats::Dist;
use crate::Fail;

/// Benchmark-side span around one `Backend::run` (args: first request id,
/// batch size).
pub const BENCH_DISPATCH: &str = "bench.dispatch";
/// Benchmark-side span around one churn write through `GenerationCell::mutate`.
pub const BENCH_WRITE: &str = "bench.write";
/// Benchmark-side span around one `Engine::execute` of the engine rung.
pub const BENCH_EXECUTE: &str = "bench.execute";
/// Benchmark-side span around one coalesced batch of the engine rung.
pub const BENCH_COALESCED: &str = "bench.coalesced";
/// Benchmark-side span around one `RagPipeline::generate`.
pub const BENCH_ANSWER: &str = "bench.answer";

/// Span names the server records in virtual time rather than on the clock.
pub const VIRTUAL_TIME: [&str; 3] = [names::SERVE_BATCH, names::SERVE_REQUEST, names::SERVE_SHED];

/// Spans and counter totals drained from the telemetry rings.
#[derive(Debug, Default)]
pub struct TraceLog {
    pub spans: Vec<SpanRecord>,
    /// Counter name -> (samples, sum of sampled values).
    pub counters: BTreeMap<&'static str, (u64, u64)>,
    pub dropped: u64,
}

impl TraceLog {
    /// Moves every buffered event into the log.
    pub fn drain(&mut self) -> Result<(), Fail> {
        let snap = hermes_trace::snapshot();
        self.dropped += snap.dropped;
        for (name, c) in snap.counters() {
            let e = self.counters.entry(name).or_default();
            e.0 += c.samples;
            e.1 += c.sum;
        }
        let spans = snap
            .spans()
            .map_err(|e| Fail::new(format!("unbalanced trace: {e}")))?;
        self.spans.extend(spans);
        Ok(())
    }

    /// Drains and returns only the spans recorded since the last drain.
    pub fn drain_fresh(&mut self) -> Result<Vec<SpanRecord>, Fail> {
        let start = self.spans.len();
        self.drain()?;
        Ok(self.spans[start..].to_vec())
    }

    pub fn durations_us(&self, name: &str) -> Dist {
        Dist::from_ns(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns),
        )
    }

    pub fn counter_samples(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |c| c.0)
    }
}

/// Total duration of the `name` spans in `spans`.
pub fn sum_ns(spans: &[SpanRecord], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns)
        .sum()
}

/// Per-name roll-up: count, median duration and mean self time, where a
/// span's self time is its duration minus that of its immediate children
/// on the same thread.
pub struct Folded {
    pub name: &'static str,
    pub count: usize,
    pub p50_us: f64,
    pub self_us: f64,
}

pub fn fold(spans: &[SpanRecord]) -> Vec<Folded> {
    // The server's own events carry virtual timestamps; each stands alone.
    let mut by_tid: BTreeMap<(u32, usize), Vec<&SpanRecord>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let group = if VIRTUAL_TIME.contains(&s.name) {
            i + 1
        } else {
            0
        };
        by_tid.entry((s.tid, group)).or_default().push(s);
    }
    let mut durs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut selfs: BTreeMap<&'static str, u64> = BTreeMap::new();
    for list in by_tid.values_mut() {
        // Parents sort before the children they enclose.
        list.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        let mut child_ns = vec![0u64; list.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..list.len() {
            let end = list[i].start_ns + list[i].dur_ns;
            while let Some(&top) = stack.last() {
                if list[top].start_ns + list[top].dur_ns >= end {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                child_ns[parent] += list[i].dur_ns;
            }
            stack.push(i);
        }
        for (s, c) in list.iter().zip(child_ns) {
            durs.entry(s.name).or_default().push(s.dur_ns);
            *selfs.entry(s.name).or_default() += s.dur_ns.saturating_sub(c);
        }
    }
    durs.into_iter()
        .map(|(name, d)| {
            let count = d.len();
            Folded {
                name,
                count,
                p50_us: Dist::from_ns(d).median(),
                self_us: selfs[name] as f64 / count as f64 / 1e3,
            }
        })
        .collect()
}

/// Human-readable self-time table.
pub fn render(spans: &[SpanRecord]) -> String {
    let mut out =
        String::from("  span                      count      p50 us     self us (mean)\n");
    for f in fold(spans) {
        let clock = if VIRTUAL_TIME.contains(&f.name) {
            "  [virtual time]"
        } else {
            ""
        };
        out.push_str(&format!(
            "  {:<24} {:>6} {:>11.1} {:>11.1}{clock}\n",
            f.name, f.count, f.p50_us, f.self_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u32, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            tid,
            start_ns,
            dur_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_immediate_children_on_the_same_thread() {
        let spans = vec![
            span("outer", 1, 0, 100),
            span("child", 1, 10, 30),
            span("grandchild", 1, 15, 10),
            span("child", 1, 50, 20),
            span("elsewhere", 2, 20, 500),
        ];
        let folded = fold(&spans);
        let get = |n: &str| folded.iter().find(|f| f.name == n).unwrap();
        assert!((get("outer").self_us - 0.050).abs() < 1e-12);
        assert!((get("child").self_us - 0.020).abs() < 1e-12);
        assert_eq!(get("child").count, 2);
        assert!((get("elsewhere").self_us - 0.5).abs() < 1e-12);
    }
}
