//! What a hierarchical sample → rank → deep-search → rerank search
//! (paper Section 4.2) returns. The search itself runs in
//! [`crate::exec::Engine`].

use hermes_math::Neighbor;

use crate::exec::SearchStats;

/// Work performed by one search stage, in scanned codes — the quantity
/// the performance model converts to latency and joules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchPhaseCost {
    /// Vector codes scored during this stage.
    pub scanned_codes: usize,
    /// Clusters touched during this stage.
    pub clusters_touched: usize,
}

/// Outcome of one executed search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Global top-k hits, best first.
    pub hits: Vec<Neighbor>,
    /// All clusters ranked by routing score, best first.
    pub ranked_clusters: Vec<usize>,
    /// The clusters that received a deep search (a prefix of
    /// `ranked_clusters`).
    pub searched_clusters: Vec<usize>,
    /// Per-stage work record, filled in by the engine as the stages ran.
    pub stats: SearchStats,
}

impl SearchOutcome {
    /// Route-stage (sampling/centroid-ranking) work.
    pub fn sample_cost(&self) -> SearchPhaseCost {
        self.stats.route
    }

    /// Scatter-stage (deep-search) work, summed over searched clusters.
    pub fn deep_cost(&self) -> SearchPhaseCost {
        self.stats.deep
    }

    /// Codes scanned across all stages.
    pub fn total_scanned_codes(&self) -> usize {
        self.stats.total_scanned_codes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HermesConfig, Routing, SplitStrategy};
    use crate::exec::{Engine, QueryPlan};
    use crate::store::ClusteredStore;
    use crate::HermesError;
    use hermes_datagen::{Corpus, CorpusSpec, QuerySet, QuerySpec};
    use hermes_index::{FlatIndex, SearchParams, VectorIndex};
    use hermes_metrics::{ndcg_at_k, ranking::ids};
    use hermes_quant::CodecSpec;

    fn setup() -> (Corpus, QuerySet) {
        let corpus = Corpus::generate(CorpusSpec::new(1200, 24, 8).with_seed(7));
        let queries = QuerySet::generate(&corpus, QuerySpec::new(30).with_seed(8));
        (corpus, queries)
    }

    /// Routes and executes a batch through the engine's one batch path.
    fn batch_search(
        store: &ClusteredStore,
        queries: &[Vec<f32>],
        threads: usize,
    ) -> Result<Vec<SearchOutcome>, HermesError> {
        let engine = Engine::for_store(store);
        engine.execute_coalesced_routed(queries, engine.route_batch(queries, threads)?, threads)
    }

    fn truth(corpus: &Corpus, query: &[f32], k: usize) -> Vec<u64> {
        let flat = FlatIndex::new(corpus.embeddings().clone(), hermes_math::Metric::InnerProduct);
        ids(&flat.search(query, k, &SearchParams::new()).unwrap())
    }

    #[test]
    fn hierarchical_search_returns_k_hits() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8).with_seed(1).with_k(5);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let out = Engine::for_store(&store).execute(queries.embeddings().row(0)).unwrap();
        assert_eq!(out.hits.len(), 5);
        assert_eq!(out.searched_clusters.len(), 3);
        assert_eq!(out.ranked_clusters.len(), 8);
        assert!(out.sample_cost().scanned_codes > 0);
        assert!(out.deep_cost().scanned_codes > out.sample_cost().scanned_codes);
        assert_eq!(
            out.total_scanned_codes(),
            out.sample_cost().scanned_codes + out.deep_cost().scanned_codes
        );
    }

    #[test]
    fn searched_clusters_are_prefix_of_ranking() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let out = Engine::for_store(&store).execute(queries.embeddings().row(3)).unwrap();
        assert_eq!(out.searched_clusters[..], out.ranked_clusters[..3]);
    }

    #[test]
    fn hermes_matches_full_search_quality_with_3_of_8_clusters() {
        // The Figure 11 headline: document-sampled routing reaches
        // iso-accuracy with a small number of deep-searched clusters.
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8)
            .with_seed(1)
            .with_clusters_to_search(3)
            .with_codec(CodecSpec::Sq8);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let mut scores = Vec::new();
        for q in queries.embeddings().iter_rows() {
            let t = truth(&corpus, q, 5);
            let got = Engine::for_store(&store).execute(q).unwrap();
            scores.push(ndcg_at_k(&t, &ids(&got.hits), 5));
        }
        let mean = hermes_metrics::ranking::mean(scores);
        assert!(mean > 0.85, "Hermes NDCG {mean}");
    }

    #[test]
    fn sampling_routing_beats_round_robin_split() {
        let (corpus, queries) = setup();
        let hermes_cfg = HermesConfig::new(8).with_seed(1).with_clusters_to_search(2);
        let naive_cfg = hermes_cfg
            .with_split(SplitStrategy::RoundRobin)
            .with_routing(Routing::Unranked);
        let hermes = ClusteredStore::build(corpus.embeddings(), &hermes_cfg).unwrap();
        let naive = ClusteredStore::build(corpus.embeddings(), &naive_cfg).unwrap();
        let mut h_sum = 0.0;
        let mut n_sum = 0.0;
        for q in queries.embeddings().iter_rows() {
            let t = truth(&corpus, q, 5);
            h_sum += ndcg_at_k(&t, &ids(&Engine::for_store(&hermes).execute(q).unwrap().hits), 5);
            n_sum += ndcg_at_k(&t, &ids(&Engine::for_store(&naive).execute(q).unwrap().hits), 5);
        }
        assert!(
            h_sum > n_sum * 1.2,
            "hermes {h_sum} vs naive {n_sum}: clustered routing should win clearly"
        );
    }

    #[test]
    fn document_sampling_not_worse_than_centroid_ranking() {
        let (corpus, queries) = setup();
        let base = HermesConfig::new(8).with_seed(1).with_clusters_to_search(2);
        let sampled = ClusteredStore::build(corpus.embeddings(), &base).unwrap();
        let centroid = ClusteredStore::build(
            corpus.embeddings(),
            &base.with_routing(Routing::CentroidOnly),
        )
        .unwrap();
        let mut s_sum = 0.0;
        let mut c_sum = 0.0;
        for q in queries.embeddings().iter_rows() {
            let t = truth(&corpus, q, 5);
            s_sum += ndcg_at_k(&t, &ids(&Engine::for_store(&sampled).execute(q).unwrap().hits), 5);
            c_sum += ndcg_at_k(&t, &ids(&Engine::for_store(&centroid).execute(q).unwrap().hits), 5);
        }
        assert!(s_sum >= c_sum * 0.97, "sampling {s_sum} vs centroid {c_sum}");
    }

    #[test]
    fn search_all_clusters_recovers_union_quality() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8).with_seed(1).with_codec(CodecSpec::Flat);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        for q in queries.embeddings().iter_rows().take(10) {
            let t = truth(&corpus, q, 5);
            let all = Engine::new(&store, QueryPlan::exhaustive(store.config()))
                .execute(q)
                .unwrap();
            // Full fan-out over Flat-coded shards with nprobe 128 is
            // essentially exact.
            let ndcg = ndcg_at_k(&t, &ids(&all.hits), 5);
            assert!(ndcg > 0.95, "ndcg {ndcg}");
        }
    }

    #[test]
    fn search_all_clusters_has_no_route_cost() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let out = Engine::new(&store, QueryPlan::exhaustive(store.config()))
            .execute(queries.embeddings().row(0))
            .unwrap();
        assert_eq!(out.sample_cost(), SearchPhaseCost::default());
        assert_eq!(out.deep_cost().clusters_touched, 8);
        assert_eq!(out.searched_clusters, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn more_clusters_searched_never_reduces_ndcg_much() {
        let (corpus, queries) = setup();
        let mut prev = 0.0f64;
        for m in [1usize, 3, 8] {
            let cfg = HermesConfig::new(8).with_seed(1).with_clusters_to_search(m);
            let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            let mut sum = 0.0;
            for q in queries.embeddings().iter_rows() {
                let t = truth(&corpus, q, 5);
                sum += ndcg_at_k(&t, &ids(&Engine::for_store(&store).execute(q).unwrap().hits), 5);
            }
            assert!(sum >= prev - 0.5, "m={m}: {sum} < {prev}");
            prev = sum;
        }
    }

    #[test]
    fn route_and_search_agree_on_cluster_ranking() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let q = queries.embeddings().row(5);
        let ranked = Engine::for_store(&store).route(q).unwrap().ranked_clusters;
        let out = Engine::for_store(&store).execute(q).unwrap();
        assert_eq!(ranked, out.ranked_clusters);
    }

    #[test]
    fn access_histogram_counts_deep_searches() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8).with_seed(1).with_clusters_to_search(3);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let qs: Vec<Vec<f32>> = queries
            .embeddings()
            .iter_rows()
            .take(10)
            .map(<[f32]>::to_vec)
            .collect();
        let hist = Engine::for_store(&store).access_histogram(&qs, 0).unwrap();
        assert_eq!(hist.len(), 8);
        assert_eq!(hist.iter().sum::<usize>(), 10 * 3);
    }

    #[test]
    fn batch_search_matches_sequential() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let qs: Vec<Vec<f32>> = queries
            .embeddings()
            .iter_rows()
            .take(8)
            .map(<[f32]>::to_vec)
            .collect();
        let sequential: Vec<_> = qs
            .iter()
            .map(|q| Engine::for_store(&store).execute(q).unwrap())
            .collect();
        // 0 = full pool width, 1 = inline, 4 = capped, 64 = oversubscribed;
        // every schedule must be bit-identical to the sequential loop.
        for threads in [0usize, 1, 4, 64] {
            let batched = batch_search(&store, &qs, threads).unwrap();
            assert_eq!(sequential, batched, "threads={threads}");
        }
    }

    #[test]
    fn batch_search_propagates_errors() {
        let (corpus, _) = setup();
        let cfg = HermesConfig::new(4).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let bad = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
        assert!(batch_search(&store, &bad, 2).is_err());
    }

    #[test]
    fn batch_error_is_sequential_first_error_mid_batch() {
        // One wrong-dimension query in the middle of an otherwise good
        // batch: the reported error must be the first in *input* order
        // (the 2-dim mismatch, not the later 1-dim one), matching what a
        // sequential loop raises — for every thread cap.
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(4).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let good = |i: usize| queries.embeddings().row(i).to_vec();
        let batch = vec![good(0), vec![1.0f32, 2.0], good(1), vec![3.0f32]];
        let sequential_err = batch
            .iter()
            .map(|q| Engine::for_store(&store).execute(q))
            .find_map(Result::err)
            .unwrap();
        assert!(matches!(sequential_err, HermesError::Index(_)));
        for threads in [0usize, 2, 16] {
            let batch_err = batch_search(&store, &batch, threads).unwrap_err();
            assert_eq!(batch_err, sequential_err, "threads={threads}");
        }
    }

    #[test]
    fn access_histogram_matches_sequential_accumulation() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8).with_seed(1).with_clusters_to_search(3);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let qs: Vec<Vec<f32>> = queries
            .embeddings()
            .iter_rows()
            .map(<[f32]>::to_vec)
            .collect();
        let mut expected = vec![0usize; store.num_clusters()];
        for q in &qs {
            for &c in &Engine::for_store(&store).execute(q).unwrap().searched_clusters {
                expected[c] += 1;
            }
        }
        for threads in [0usize, 1, 4] {
            assert_eq!(
                Engine::for_store(&store).access_histogram(&qs, threads).unwrap(),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn dimension_mismatch_propagates() {
        let (corpus, _) = setup();
        let store =
            ClusteredStore::build(corpus.embeddings(), &HermesConfig::new(4).with_seed(1))
                .unwrap();
        let err = Engine::for_store(&store).execute(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, HermesError::Index(_)));
    }
}
