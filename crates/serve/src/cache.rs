//! Cache-fronted serving backend: the [`SemanticCache`] wired between
//! the dispatch loop and the engine.
//!
//! [`CachedBackend`] wraps a [`GenerationCell`] the way
//! [`GenerationBackend`](crate::GenerationBackend) does, but consults a
//! [`SemanticCache`] of [`SearchOutcome`]s before touching any shard. It
//! runs the same dispatch as every engine-backed backend (see
//! [`crate::server`]), with its cache plugged in:
//!
//! 1. **Exact phase** — every query is probed by bit pattern. Hits are
//!    answered immediately: zero routing, zero scatter.
//! 2. **Semantic phase** — the remaining queries are routed once
//!    ([`Engine::route_batch`]); each route's top cluster buckets a
//!    near-duplicate lookup. Hits return the stored query's outcome.
//! 3. **Compute phase** — true misses reuse their phase-2 routes via
//!    [`Engine::execute_coalesced_routed`] (the route stage is never
//!    paid twice), and every fresh outcome is inserted for the next
//!    batch.
//!
//! **Invalidation:** entries are stamped with
//! [`GenerationCell::version`], which counts *every* publish — swaps
//! *and* in-place churn mutations. A lookup from any other version
//! evicts the entry and recomputes, so a generation swap can never serve
//! a pre-swap result (`tests/adaptive_cache_equivalence.rs` pins this).
//!
//! **Exactness:** an exact hit is byte-for-byte the outcome the engine
//! produced at the same version — recomputing it now would produce the
//! same bits (the engine is deterministic). A semantic hit is exact *for
//! the stored query*; serving it for a probe within `1 − threshold`
//! cosine is the layer's explicit approximation, disabled entirely by
//! [`CacheConfig::exact_only`].
//!
//! **Panics:** a panic while the cache lock is held (say, inside an
//! insert) poisons the lock. The next dispatch takes the lock anyway and
//! empties the cache — a half-finished insert may have left it
//! inconsistent, and every entry can be recomputed — so one panic costs
//! hits, never correctness or the backend.

use std::sync::{Arc, Mutex, MutexGuard};

use hermes_cache::{CacheConfig, CacheStats, SemanticCache};
use hermes_core::exec::Engine;
use hermes_core::search::SearchOutcome;
use hermes_core::HermesError;
use hermes_obs::CachePath;
use hermes_trace::names;

use crate::generation::GenerationCell;
use crate::request::Request;
use crate::server::{dispatch, Backend, BatchOutcome};

/// A [`Backend`] that serves repeated and near-duplicate queries from a
/// [`SemanticCache`] and computes only the true misses.
pub struct CachedBackend {
    cell: Arc<GenerationCell>,
    threads: usize,
    cache: Mutex<SemanticCache<SearchOutcome>>,
}

impl CachedBackend {
    /// A cache of `cache_cfg` in front of whatever generation `cell`
    /// publishes at dispatch time, with batch fan-out `threads` (`0` =
    /// full pool, `1` = inline).
    pub fn new(cell: Arc<GenerationCell>, threads: usize, cache_cfg: CacheConfig) -> Self {
        CachedBackend {
            cell,
            threads,
            cache: Mutex::new(SemanticCache::new(cache_cfg)),
        }
    }

    /// The shared cell.
    pub fn cell(&self) -> &Arc<GenerationCell> {
        &self.cell
    }

    /// Cache accounting so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_cache().stats()
    }

    /// Takes the cache lock. A lock poisoned by a panic is recovered with
    /// an emptied cache (see the module docs).
    fn lock_cache(&self) -> MutexGuard<'_, SemanticCache<SearchOutcome>> {
        self.cache.lock().unwrap_or_else(|poisoned| {
            let mut cache = poisoned.into_inner();
            cache.clear();
            self.cache.clear_poison();
            cache
        })
    }
}

impl Backend for CachedBackend {
    fn run(&self, batch: &[Request]) -> Result<BatchOutcome, HermesError> {
        let mut sp = hermes_trace::span_with(names::CACHE_BATCH, &[("queries", batch.len() as u64)]);
        let store = self.cell.current();
        let version = self.cell.version();
        let mut cache = self.lock_cache();
        let out = dispatch(
            &Engine::for_store(&store),
            self.threads,
            batch,
            Some((&mut cache, version)),
        )?;
        sp.arg("hits", cache.stats().hits());
        sp.arg(
            "computed",
            out.cache_paths
                .iter()
                .filter(|&&p| p == CachePath::Computed)
                .count() as u64,
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;
    use hermes_core::HermesConfig;
    use hermes_datagen::{Corpus, CorpusSpec, QuerySet, QuerySpec};

    fn setup() -> (Vec<Vec<f32>>, Arc<GenerationCell>) {
        let corpus = Corpus::generate(CorpusSpec::new(600, 12, 5).with_seed(91));
        let queries = QuerySet::generate(&corpus, QuerySpec::new(10).with_seed(92));
        let cfg = HermesConfig::new(5)
            .with_clusters_to_search(2)
            .with_seed(93);
        let store = hermes_core::ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        (queries.to_vecs(), Arc::new(GenerationCell::new(store)))
    }

    fn execute_each(engine: &Engine, queries: &[Vec<f32>]) -> Vec<SearchOutcome> {
        queries.iter().map(|q| engine.execute(q).unwrap()).collect()
    }

    fn requests(queries: &[Vec<f32>]) -> Vec<Request> {
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| Request::new(i as u64, q.clone(), Priority::Standard, 0))
            .collect()
    }

    #[test]
    fn cold_batch_matches_uncached_engine_and_warm_repeat_hits() {
        let (queries, cell) = setup();
        let backend = CachedBackend::new(cell.clone(), 1, CacheConfig::default());
        let reqs = requests(&queries);

        let store = cell.current();
        let engine = Engine::for_store(&store);
        let reference = execute_each(&engine, &queries);

        let cold = backend.run(&reqs).unwrap();
        assert_eq!(cold.outcomes, reference, "cold pass computes everything");
        assert_eq!(backend.cache_stats().misses, queries.len() as u64);

        let warm = backend.run(&reqs).unwrap();
        assert_eq!(warm.outcomes, reference, "warm pass is bit-identical");
        assert_eq!(backend.cache_stats().exact_hits, queries.len() as u64);
        assert_eq!(warm.distinct_clusters, 0, "no shard was touched");
    }

    #[test]
    fn mutation_invalidates_every_prior_entry() {
        let (queries, cell) = setup();
        let backend = CachedBackend::new(cell.clone(), 1, CacheConfig::default());
        let reqs = requests(&queries);
        backend.run(&reqs).unwrap();
        backend.run(&reqs).unwrap();
        assert!(backend.cache_stats().hits() > 0);

        // In-place churn (no generation bump on the store) must still
        // invalidate: version counts every publish.
        let v = cell.current().split_centroid(0).to_vec();
        cell.mutate(|st| st.insert(88_888, &v).unwrap());

        let store = cell.current();
        let engine = Engine::for_store(&store);
        let fresh = execute_each(&engine, &queries);
        let post = backend.run(&reqs).unwrap();
        assert_eq!(post.outcomes, fresh, "post-churn answers are recomputed");
        let stats = backend.cache_stats();
        assert!(stats.stale > 0, "prior entries were stale-evicted");
    }

    #[test]
    fn semantic_layer_serves_stored_outcome_for_near_duplicates() {
        let (queries, cell) = setup();
        let backend = CachedBackend::new(
            cell.clone(),
            1,
            CacheConfig::default().with_semantic_threshold(0.99),
        );
        backend.run(&requests(&queries)).unwrap();

        // Perturb each query far below the threshold distance.
        let near: Vec<Vec<f32>> = queries
            .iter()
            .map(|q| {
                let mut v = q.clone();
                v[0] += 1e-4;
                v
            })
            .collect();
        let out = backend.run(&requests(&near)).unwrap();
        let stats = backend.cache_stats();
        assert!(stats.semantic_hits > 0, "near-duplicates hit semantically");

        // Every semantic hit equals the stored query's exact outcome.
        let store = cell.current();
        let engine = Engine::for_store(&store);
        let reference = execute_each(&engine, &queries);
        for (i, (got, want)) in out.outcomes.iter().zip(&reference).enumerate() {
            if got == want {
                continue; // semantic hit: stored outcome served verbatim
            }
            // Otherwise this query missed (fell under threshold) and was
            // computed exactly for the perturbed vector.
            assert_eq!(*got, engine.execute(&near[i]).unwrap());
        }
    }

    #[test]
    fn a_panic_under_the_lock_does_not_disable_the_backend() {
        let (queries, cell) = setup();
        let backend = CachedBackend::new(cell.clone(), 1, CacheConfig::default());
        let reqs = requests(&queries);
        backend.run(&reqs).unwrap();
        std::thread::scope(|s| {
            let panicked = s
                .spawn(|| {
                    let _guard = backend.cache.lock().unwrap();
                    panic!("injected panic while holding the cache lock");
                })
                .join();
            assert!(panicked.is_err());
        });
        assert!(backend.cache.is_poisoned());

        let store = cell.current();
        let reference = execute_each(&Engine::for_store(&store), &queries);
        let out = backend.run(&reqs).unwrap();
        assert_eq!(out.outcomes, reference, "recovered dispatch is exact");
        assert!(
            out.cache_paths.iter().all(|&p| p == CachePath::Computed),
            "the recovered cache starts empty"
        );
        assert!(!backend.cache.is_poisoned());
        assert_eq!(backend.run(&reqs).unwrap().outcomes, reference);
        assert!(backend.cache_stats().exact_hits >= queries.len() as u64);
    }
}
