//! The `rag_d768` workload: `RagPipeline` defaults (256 output tokens at
//! stride 16, so 16 dependent retrievals per answer) over a 768-d store,
//! one answer at a time, with the intra-query scatter on the shared pool.
//! Every figure here is wall-clock.

use std::time::{Duration, Instant};

use hermes_core::exec::Engine;
use hermes_datagen::ChunkStore;
use hermes_math::rng::{derive_seed, seeded_rng};
use hermes_rag::{RagPipeline, RagTranscript, Retriever, RetrieverKind};
use hermes_trace::names;

use crate::ladder;
use crate::setup::{oracle, peak_rss_mb, recall, timed_setup, Inputs, RAG_SHAPE};
use crate::stats::Dist;
use crate::tracing::{sum_ns, TraceLog, BENCH_ANSWER};
use crate::{Args, Fail, Outcome};

/// Per-answer latency limit.
pub const RAG_LIMIT_US: f64 = 120_000.0;
/// The tail percentile reported for answers, as for the serving workloads
/// (a run yields a few hundred answers, too few for a p99 anyway).
pub const RAG_TAIL: f64 = 0.9;
/// Answers excluded from timings (pool spawn, first touch of the codes).
const WARMUP: usize = 2;
/// Timed answers a run collects at least, so the tail has ten beyond it.
const MIN_TIMED: usize = 100;
/// Builds of the retriever per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const CHUNK_TOKENS: u32 = 100;
const STRIDES: usize = 16;

struct Pass {
    answers: usize,
    wall_ns: Vec<u64>,
    total_ns: u64,
    overlap: f64,
    transcripts: Vec<RagTranscript>,
}

fn answers(
    pipeline: &RagPipeline,
    args: &Args,
    pool: &[Vec<f32>],
    budget: Option<Duration>,
    replay: Option<usize>,
    mut trace: Option<&mut TraceLog>,
) -> Result<Pass, Fail> {
    let mut rng = seeded_rng(derive_seed(args.seed, 400));
    let mut pass = Pass {
        answers: 0,
        wall_ns: Vec::new(),
        total_ns: 0,
        overlap: 0.0,
        transcripts: Vec::new(),
    };
    let t0 = Instant::now();
    loop {
        let i = pass.answers;
        match (budget, replay) {
            (_, Some(n)) if i == n => break,
            (Some(b), _) if i >= WARMUP + MIN_TIMED && t0.elapsed() >= b => break,
            _ => {}
        }
        let q = &pool[rng.gen_range(0..pool.len())];
        let t = Instant::now();
        let transcript = {
            let _sp = trace.is_some().then(|| {
                hermes_trace::span_with(BENCH_ANSWER, &[(names::ARG_REQUEST_ID, i as u64)])
            });
            pipeline
                .generate(q, derive_seed(args.seed, 500 + i as u64))
                .map_err(Fail::engine)?
        };
        let wall = t.elapsed().as_nanos() as u64;
        if let Some(trace) = trace.as_deref_mut() {
            trace.drain()?;
        }
        pass.answers += 1;
        pass.total_ns += wall;
        if i >= WARMUP {
            pass.wall_ns.push(wall);
            pass.overlap += transcript.stride_overlap();
        }
        pass.transcripts.push(transcript);
    }
    Ok(pass)
}

pub fn rag_d768(args: &Args) -> Result<Outcome, Fail> {
    let inputs = Inputs::generate(RAG_SHAPE, args.seed, 0);
    let (pipeline, setup_s) = timed_setup(SETUP_REPS, || {
        let retriever = Retriever::build(RetrieverKind::Hermes, &inputs.base, &inputs.config)
            .map_err(Fail::engine)?;
        Ok(RagPipeline::new(retriever, ChunkStore::new(CHUNK_TOKENS)))
    })?;
    let store = pipeline
        .retriever()
        .clustered_store()
        .ok_or_else(|| Fail::new("Hermes retriever has no clustered store".into()))?;
    let engine = Engine::for_store(store);
    let reference = inputs
        .pool
        .iter()
        .map(|q| engine.execute(q))
        .collect::<Result<Vec<_>, _>>()
        .map_err(Fail::engine)?;
    let ids = (0..inputs.shape.docs as u64).collect();
    let truth = oracle(
        inputs.base.clone(),
        ids,
        &inputs.pool,
        inputs.shape.k,
        inputs.config.metric,
    )?;
    let recall_at_10 = reference
        .iter()
        .zip(&truth)
        .map(|(r, t)| recall(&r.hits, t))
        .sum::<f64>()
        / truth.len() as f64;

    let mut out = Outcome::default();
    let pass = answers(
        &pipeline,
        args,
        &inputs.pool,
        Some(args.seconds),
        None,
        None,
    )?;
    check(&pass, &inputs.pool, &reference, args, &mut out);

    let timed = pass.wall_ns.len();
    let d = Dist::from_ns(pass.wall_ns.iter().copied());
    let tail = d
        .tail(RAG_TAIL)
        .ok_or_else(|| Fail::new(format!("{timed} answers cannot support a p90")))?;
    // Rates over the whole timed run: answers (or answers within the
    // limit) per second of answering.
    let answering_s = pass.wall_ns.iter().sum::<u64>().max(1) as f64 * 1e-9;
    let met = pass
        .wall_ns
        .iter()
        .filter(|&&w| w as f64 / 1e3 <= RAG_LIMIT_US)
        .count();
    let throughput = timed as f64 / answering_s;
    let goodput = met as f64 / answering_s;
    let m = &mut out.e2e;
    m.put("setup_s", setup_s);
    m.put("throughput_qps", throughput);
    m.put("latency_p50_us", d.median());
    m.put("latency_p90_us", tail);
    m.put("slo_attainment", met as f64 / timed as f64);
    m.put("max_qps_at_slo", goodput);
    m.put("recall_at_10", recall_at_10);
    m.put("peak_rss_mb", peak_rss_mb());
    out.attempted = pass.answers as u64;
    let codes: usize = pass
        .transcripts
        .iter()
        .map(RagTranscript::total_scanned_codes)
        .sum();
    out.notes.push(format!(
        "answers: latency {} [wall], tail reported at p90 = {tail:.1} us; {throughput:.2} answers/s over {answering_s:.1} s of answering; {:.0} codes scanned per answer; limit {RAG_LIMIT_US} us",
        d.describe("us"),
        codes as f64 / pass.answers as f64
    ));

    if args.trace {
        let mut trace = TraceLog::default();
        hermes_trace::clear();
        hermes_trace::enable();
        let traced = answers(
            &pipeline,
            args,
            &inputs.pool,
            None,
            Some(pass.answers),
            Some(&mut trace),
        )?;
        hermes_trace::disable();
        trace.drain()?;
        if traced.transcripts != pass.transcripts {
            out.violations
                .push("traced replay produced different transcripts".to_string());
        }
        let m = &mut out.layers;
        m.put(
            "trace.overhead_frac",
            traced.total_ns as f64 / pass.total_ns.max(1) as f64 - 1.0,
        );
        m.put(
            "rag.retrieve.p50_us",
            trace.durations_us(names::RAG_RETRIEVE).median(),
        );
        let retrievals = trace
            .spans
            .iter()
            .filter(|s| s.name == names::RAG_RETRIEVE)
            .count();
        m.put(
            "rag.retrievals_per_answer",
            retrievals as f64 / traced.answers as f64,
        );
        m.put(
            "rag.stride_overlap",
            traced.overlap / traced.wall_ns.len().max(1) as f64,
        );
        // Per answer: its span minus the retrievals nested in it.
        let mut residual = Vec::new();
        for a in trace.spans.iter().filter(|s| s.name == BENCH_ANSWER) {
            let inside: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| {
                    s.name == names::RAG_RETRIEVE
                        && s.tid == a.tid
                        && s.start_ns >= a.start_ns
                        && s.start_ns + s.dur_ns <= a.start_ns + a.dur_ns
                })
                .cloned()
                .collect();
            residual.push((a.dur_ns as f64 - sum_ns(&inside, names::RAG_RETRIEVE) as f64) / 1e3);
        }
        m.put("rag.residual_us", Dist::new(residual).median());
        ladder::pool_layers(m, &trace, BENCH_ANSWER, traced.answers);
        ladder::engine_rungs(store, &inputs.pool, &mut trace, &mut out)?;
        out.trace = Some(trace);
    }
    Ok(out)
}

/// Every answer has one retrieval of `k` documents per stride, and its
/// first retrieval (made with the unmodified question) is exactly what a
/// standalone `Engine::execute` returns.
fn check(
    pass: &Pass,
    pool: &[Vec<f32>],
    reference: &[hermes_core::search::SearchOutcome],
    args: &Args,
    out: &mut Outcome,
) {
    let mut rng = seeded_rng(derive_seed(args.seed, 400));
    for (i, t) in pass.transcripts.iter().enumerate() {
        let qi = rng.gen_range(0..pool.len());
        let want: Vec<u64> = reference[qi].hits.iter().map(|h| h.id).collect();
        if t.strides.len() != STRIDES || t.strides.iter().any(|s| s.retrieved.len() != RAG_SHAPE.k)
        {
            out.violations.push(format!(
                "answer {i}: expected {STRIDES} retrievals of {} docs",
                RAG_SHAPE.k
            ));
        } else if t.strides[0].retrieved != want {
            out.violations.push(format!(
                "answer {i}: first retrieval differs from standalone Engine::execute"
            ));
        }
    }
}
