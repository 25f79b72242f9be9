//! Seeded inputs, serving-state construction and the ground-truth oracle.

use std::time::Instant;

use hermes_core::HermesConfig;
use hermes_datagen::{Corpus, CorpusSpec, QuerySet, QuerySpec};
use hermes_index::{FlatIndex, SearchParams, VectorIndex};
use hermes_math::rng::derive_seed;
use hermes_math::{Mat, Metric, Neighbor};

use crate::Fail;

/// Store shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub docs: usize,
    pub dim: usize,
    pub topics: usize,
    pub clusters: usize,
    pub m: usize,
    pub k: usize,
    /// Distinct queries requests are drawn from.
    pub pool: usize,
}

/// 20k docs x 64 dims, 10 clusters, m=3, SQ8, k=10: the serving shape.
pub const SERVE_SHAPE: Shape = Shape {
    docs: 20_000,
    dim: 64,
    topics: 10,
    clusters: 10,
    m: 3,
    k: 10,
    pool: 256,
};

/// The serving shape at d=768, whose SQ8 codes outgrow a per-core L2.
pub const RAG_SHAPE: Shape = Shape {
    dim: 768,
    ..SERVE_SHAPE
};

/// Everything generated from the seed before any serving state exists.
pub struct Inputs {
    pub shape: Shape,
    /// `shape.docs` base documents, ids `0..docs`.
    pub base: Mat,
    /// Extra documents for inserts, ids `docs..`.
    pub extra: Mat,
    pub pool_set: QuerySet,
    /// `pool_set` as owned rows.
    pub pool: Vec<Vec<f32>>,
    pub config: HermesConfig,
}

impl Inputs {
    pub fn generate(shape: Shape, seed: u64, extra_docs: usize) -> Self {
        let corpus = Corpus::generate(
            CorpusSpec::new(shape.docs + extra_docs, shape.dim, shape.topics)
                .with_seed(derive_seed(seed, 1)),
        );
        let pool_set = QuerySet::generate(
            &corpus,
            QuerySpec::new(shape.pool).with_seed(derive_seed(seed, 2)),
        );
        let all = corpus.embeddings().as_slice();
        let split = shape.docs * shape.dim;
        let config = HermesConfig::new(shape.clusters)
            .with_clusters_to_search(shape.m)
            .with_k(shape.k)
            .with_seed(derive_seed(seed, 3));
        Inputs {
            shape,
            base: Mat::from_flat(shape.docs, shape.dim, all[..split].to_vec()),
            extra: Mat::from_flat(extra_docs, shape.dim, all[split..].to_vec()),
            pool: pool_set.to_vecs(),
            pool_set,
            config,
        }
    }
}

/// Builds serving state `reps` times; returns the last build and the
/// median wall time in seconds (`setup_s`).
pub fn timed_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, Fail>,
) -> Result<(T, f64), Fail> {
    let mut secs = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        let t = Instant::now();
        let value = std::hint::black_box(build()?);
        secs.push(t.elapsed().as_secs_f64());
        built = Some(value);
    }
    let built = built.expect("reps is positive");
    Ok((built, crate::stats::median_of(&secs)))
}

/// Exact top-`k` ids of every query by brute force over `data`.
pub fn oracle(
    data: Mat,
    ids: Vec<u64>,
    queries: &[Vec<f32>],
    k: usize,
    metric: Metric,
) -> Result<Vec<Vec<u64>>, Fail> {
    let flat = FlatIndex::with_ids(data, ids, metric);
    queries
        .iter()
        .map(|q| {
            let hits = flat
                .search(q, k, &SearchParams::new())
                .map_err(|e| Fail::new(format!("oracle search failed: {e}")))?;
            Ok(hits.iter().map(|n| n.id).collect())
        })
        .collect()
}

/// Share of the oracle's top-`k` ids that `hits` contains.
pub fn recall(hits: &[Neighbor], truth: &[u64]) -> f64 {
    if truth.is_empty() {
        return 0.0;
    }
    let found = truth
        .iter()
        .filter(|id| hits.iter().any(|h| h.id == **id))
        .count();
    found as f64 / truth.len() as f64
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
