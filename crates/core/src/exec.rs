//! The staged scatter–gather query-execution engine.
//!
//! Every search in the workspace — single queries, serving batches, the
//! cache layer's misses, the access-frequency traces of Figures 13/18
//! and the `hermes-rag` retrievers — runs through one [`Engine`]
//! executing one [`QueryPlan`], and through **one** scatter/gather body:
//! [`Engine::execute_coalesced_routed`]. [`Engine::execute`] is
//! [`Engine::route`] followed by that body on a batch of one. The engine
//! runs the paper's sample → rank → deep → rerank pipeline (Section 4.2)
//! as three explicit stages:
//!
//! ```text
//!            ┌─────────────────────────────────────────────────┐
//!   batch ──▶│ ROUTE    sample every shard (or score its       │
//!            │          centroid), rank best-first per query   │
//!            ├─────────────────────────────────────────────────┤
//!            │ SCATTER  group the batch's top-m picks by       │
//!            │          cluster: one pool task per distinct    │
//!            │          shard deep-searches it for every query │
//!            │          that routed there                      │
//!            ├─────────────────────────────────────────────────┤
//!            │ GATHER   merge_topk over each query's per-shard │
//!            │          hits in its own rank order; fold the   │
//!            │          per-stage ScanStats into SearchStats   │
//!            └─────────────────────────────────────────────────┘
//! ```
//!
//! The route seam is explicit: callers route a batch with
//! [`Engine::route_batch`], may inspect the routes (the semantic cache
//! buckets lookups by top cluster), then hand them to
//! [`Engine::execute_coalesced_routed`], so the route stage is never paid
//! twice. Queries are borrowed as any `AsRef<[f32]>` row — owned
//! `Vec<f32>`s or slices — never copied.
//!
//! Parallelism: `threads` caps the batch-level fan-out (route: one task
//! per query; scatter: one task per distinct cluster; `0` = full pool,
//! `1` = inline sequential). The route stage's per-shard samples fan out
//! with [`QueryPlan::scatter_threads`]; inside a pool worker the pool's
//! nested-submission rule runs them inline, so batches keep exactly one
//! level of stealing while a single interactive query gets the full pool
//! to itself.
//!
//! Results are **bit-identical** for every routing mode, codec, batch
//! composition and thread count: tasks write results into their
//! input-order slot, every `(query, cluster)` deep search runs the same
//! deterministic scan, costs are integer sums over the same scans, and
//! the first error in input order is the one reported
//! (`tests/engine_equivalence.rs` pins all of this property-style).
//!
//! An emptied shard is not an error: its sample scores −∞ (it ranks
//! last) and a deep search of it returns no hits and scans nothing.
//!
//! When runtime telemetry is on (`hermes_trace::enable`), each stage
//! records a span — `engine.execute` (single queries) ▸ `engine.route` /
//! `engine.coalesced` ▸ `engine.gather`, plus per-shard `shard.sample`
//! and `shard.deep` spans on whichever pool worker stole the shard —
//! whose args carry the same scanned-code counts as [`SearchStats`].
//! Disabled, every site is a single relaxed atomic load.

use std::collections::BTreeMap;

use hermes_index::{IndexError, ScanStats, SearchParams, VectorIndex};
use hermes_trace::names;
use hermes_math::{topk::merge_topk, Neighbor};

use crate::adaptive::{AdaptiveConfig, DifficultyEstimator};
use crate::config::{HermesConfig, Routing};
use crate::search::{SearchOutcome, SearchPhaseCost};
use crate::store::ClusteredStore;
use crate::HermesError;


/// Per-stage work record of one executed query, filled in by the engine
/// while the stages run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Route-stage work: sampling probes (document-sampling routing) or
    /// one code per cluster (centroid routing); zero when unranked.
    pub route: SearchPhaseCost,
    /// Scatter-stage work, summed over the deep-searched shards.
    pub deep: SearchPhaseCost,
    /// Codes scanned by each deep-searched shard, aligned with
    /// `SearchOutcome::searched_clusters` — the input for per-shard
    /// deadline and straggler analyses.
    pub per_shard_scanned: Vec<usize>,
    /// Candidate hits the gather stage merged into the final top-k.
    pub gather_candidates: usize,
    /// Deep-search `nProbe` this query actually ran with — the plan's
    /// fixed knob, or the [`DifficultyEstimator`]'s per-query choice when
    /// the plan carries an [`AdaptiveConfig`]. Together with
    /// `deep.clusters_touched` this records the chosen adaptive depth.
    pub deep_nprobe: usize,
}

impl SearchStats {
    /// Codes scanned across all stages — the single work number the
    /// latency/energy models consume.
    pub fn total_scanned_codes(&self) -> usize {
        self.route.scanned_codes + self.deep.scanned_codes
    }
}

/// An executable description of one search: which stages run, with which
/// knobs — built from [`HermesConfig`] + the caller's intent, consumed by
/// [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPlan {
    /// How the route stage ranks clusters.
    pub routing: Routing,
    /// `nProbe` of the route stage's sampling searches.
    pub sample_nprobe: usize,
    /// `nProbe` of the scatter stage's deep searches.
    pub deep_nprobe: usize,
    /// How many top-ranked clusters the scatter stage deep-searches
    /// (clamped to the store's cluster count at execution time).
    pub clusters_to_search: usize,
    /// Hits returned per query.
    pub k: usize,
    /// Intra-query fan-out cap for the route and scatter stages: `0` uses
    /// the full shared pool, `1` runs the shards inline and sequentially,
    /// `t > 1` uses at most `t` threads.
    pub scatter_threads: usize,
    /// Per-query adaptive-depth policy. `None` (the default) runs the
    /// fixed `clusters_to_search`/`deep_nprobe` knobs bit-identically to
    /// the pre-adaptive engine; `Some` lets the [`DifficultyEstimator`]
    /// pick both per query from the routing scores (queries routed
    /// without scores — [`Routing::Unranked`] — still use the fixed
    /// knobs).
    pub adaptive: Option<AdaptiveConfig>,
    /// Serving-layer request id this plan executes on behalf of, if any.
    /// Purely observational: when set, the engine's `engine.execute`
    /// spans carry it as a `request_id` arg so trace events fold into
    /// per-request timelines — execution is bit-identical either way.
    pub request_id: Option<u64>,
}

impl QueryPlan {
    /// The store's default plan: the config's routing and knobs,
    /// full-pool intra-query scatter.
    pub fn from_config(cfg: &HermesConfig) -> Self {
        QueryPlan {
            routing: cfg.routing,
            sample_nprobe: cfg.sample_nprobe,
            deep_nprobe: cfg.deep_nprobe,
            clusters_to_search: cfg.clusters_to_search,
            k: cfg.k,
            scatter_threads: 0,
            adaptive: cfg.adaptive,
            request_id: None,
        }
    }

    /// No routing, every cluster deep-searched in index order — the
    /// naive distributed baseline Hermes is compared against (Figure 18).
    pub fn exhaustive(cfg: &HermesConfig) -> Self {
        QueryPlan {
            routing: Routing::Unranked,
            clusters_to_search: usize::MAX,
            adaptive: None,
            ..QueryPlan::from_config(cfg)
        }
    }

    /// Caps the intra-query fan-out (see [`QueryPlan::scatter_threads`]).
    pub fn with_scatter_threads(mut self, threads: usize) -> Self {
        self.scatter_threads = threads;
        self
    }

    /// Sets (or clears) the per-query adaptive-depth policy.
    pub fn with_adaptive(mut self, adaptive: Option<AdaptiveConfig>) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Tags the plan with the serving-layer request id its spans should
    /// carry (see [`QueryPlan::request_id`]).
    pub fn with_request_id(mut self, id: u64) -> Self {
        self.request_id = Some(id);
        self
    }
}

/// Outcome of the route stage: every cluster ranked best-first, plus the
/// work ranking them took.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOutcome {
    /// All clusters, best first.
    pub ranked_clusters: Vec<usize>,
    /// Routing score of each ranked cluster, aligned with
    /// `ranked_clusters` — the [`DifficultyEstimator`]'s input and the
    /// semantic cache's bucketing signal. Empty for [`Routing::Unranked`],
    /// which ranks without scoring.
    pub ranked_scores: Vec<f32>,
    /// Route-stage work.
    pub cost: SearchPhaseCost,
}

impl RouteOutcome {
    /// The best-ranked cluster, if any — the semantic cache's bucket key.
    pub fn top_cluster(&self) -> Option<usize> {
        self.ranked_clusters.first().copied()
    }
}

/// Orders `(cluster, score)` pairs best-first: descending score, ties
/// broken by ascending cluster id — the rank stage's deterministic
/// tiebreak, shared by every routing mode.
pub fn rank_by_score(scored: Vec<(usize, f32)>) -> Vec<usize> {
    rank_with_scores(scored).0
}

/// [`rank_by_score`], also returning the scores in rank order.
pub fn rank_with_scores(mut scored: Vec<(usize, f32)>) -> (Vec<usize>, Vec<f32>) {
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    scored.into_iter().unzip()
}

/// The query-execution engine: a [`QueryPlan`] bound to a
/// [`ClusteredStore`]. Cheap to construct (two references' worth of
/// data); build one per call or hold one across a batch.
///
/// # Examples
///
/// ```
/// use hermes_core::{ClusteredStore, HermesConfig};
/// use hermes_core::exec::{Engine, QueryPlan};
/// use hermes_math::Mat;
///
/// let rows: Vec<Vec<f32>> = (0..300)
///     .map(|i| vec![(i % 3) as f32 * 10.0, (i / 3) as f32 * 0.01])
///     .collect();
/// let data = Mat::from_rows(&rows);
/// let cfg = HermesConfig::new(3).with_clusters_to_search(2);
/// let store = ClusteredStore::build(&data, &cfg)?;
///
/// let engine = Engine::new(&store, QueryPlan::from_config(&cfg));
/// let out = engine.execute(&[10.0, 0.5])?;
/// assert_eq!(out.hits.len(), cfg.k);
/// assert_eq!(out.searched_clusters.len(), 2);
/// assert_eq!(out.stats.per_shard_scanned.len(), 2);
///
/// // A batch: route it once, then one coalesced scatter/gather.
/// let batch: [&[f32]; 2] = [&[10.0, 0.5], &[0.0, 1.0]];
/// let routes = engine.route_batch(&batch, 0)?;
/// let outs = engine.execute_coalesced_routed(&batch, routes, 0)?;
/// assert_eq!(outs[0], out);
/// # Ok::<(), hermes_core::HermesError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Engine<'s> {
    store: &'s ClusteredStore,
    plan: QueryPlan,
}

impl<'s> Engine<'s> {
    /// Binds `plan` to `store`.
    pub fn new(store: &'s ClusteredStore, plan: QueryPlan) -> Self {
        Engine { store, plan }
    }

    /// The engine running the store's configured plan.
    pub fn for_store(store: &'s ClusteredStore) -> Self {
        Engine::new(store, QueryPlan::from_config(store.config()))
    }

    /// The plan this engine executes.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// **Stage 1+2 (route):** ranks every cluster for `query` without
    /// deep-searching any. Records an `engine.route` span (args:
    /// `scanned_codes`, `clusters`) when telemetry is enabled.
    ///
    /// # Errors
    ///
    /// Propagates the first shard error in cluster order.
    pub fn route(&self, query: &[f32]) -> Result<RouteOutcome, HermesError> {
        let mut sp = hermes_trace::span(names::ENGINE_ROUTE);
        let out = self.route_stage(query)?;
        sp.arg("scanned_codes", out.cost.scanned_codes as u64);
        sp.arg("clusters", out.cost.clusters_touched as u64);
        Ok(out)
    }

    fn route_stage(&self, query: &[f32]) -> Result<RouteOutcome, HermesError> {
        let store = self.store;
        let n = store.num_clusters();
        match self.plan.routing {
            Routing::DocumentSampling => {
                // One cheap k=1 sample per shard, fanned out like the
                // scatter stage (samples dominate single-query latency
                // when m is small). An empty shard samples no hit and
                // scores −∞.
                let clusters: Vec<usize> = (0..n).collect();
                let samples = map_capped(&clusters, self.plan.scatter_threads, |&c| {
                    let mut sp = hermes_trace::span_with(names::SHARD_SAMPLE, &[("cluster", c as u64)]);
                    let (hits, stats) = self.search_shard(c, query, 1, self.plan.sample_nprobe)?;
                    sp.arg("scanned_codes", stats.scanned_codes as u64);
                    Ok((hits.first().map_or(f32::NEG_INFINITY, |h| h.score), stats))
                })?;
                let scanned = samples.iter().map(|(_, s)| s.scanned_codes).sum();
                let scored = clusters
                    .iter()
                    .map(|&c| (c, samples[c].0))
                    .collect::<Vec<_>>();
                let (ranked_clusters, ranked_scores) = rank_with_scores(scored);
                Ok(RouteOutcome {
                    ranked_clusters,
                    ranked_scores,
                    cost: SearchPhaseCost {
                        scanned_codes: scanned,
                        clusters_touched: n,
                    },
                })
            }
            Routing::CentroidOnly => {
                let expected = store.split_centroids_mat().cols();
                if query.len() != expected {
                    return Err(IndexError::DimensionMismatch {
                        expected,
                        got: query.len(),
                    }
                    .into());
                }
                let metric = store.config().metric;
                let scored: Vec<(usize, f32)> = (0..n)
                    .map(|c| (c, metric.similarity(query, store.split_centroid(c))))
                    .collect();
                let (ranked_clusters, ranked_scores) = rank_with_scores(scored);
                Ok(RouteOutcome {
                    ranked_clusters,
                    ranked_scores,
                    cost: SearchPhaseCost {
                        // Centroid ranking scans one vector per cluster.
                        scanned_codes: n,
                        clusters_touched: n,
                    },
                })
            }
            Routing::Unranked => Ok(RouteOutcome {
                ranked_clusters: (0..n).collect(),
                ranked_scores: Vec::new(),
                cost: SearchPhaseCost::default(),
            }),
        }
    }

    /// The one shard-search call of both stages. A shard with no live
    /// rows answers with no hits and zero scanned codes rather than
    /// [`IndexError::Empty`], so emptying one cluster cannot fail every
    /// query; dimension errors still propagate.
    fn search_shard(
        &self,
        cluster: usize,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<(Vec<Neighbor>, ScanStats), HermesError> {
        let params = SearchParams::new().with_nprobe(nprobe);
        match self.store.shard(cluster).search_with_stats(query, k, &params) {
            Err(IndexError::Empty) => Ok((Vec::new(), ScanStats::default())),
            r => r.map_err(HermesError::from),
        }
    }

    /// **Stage 1+2 for a whole batch:** routes every query, stealing
    /// queries from the shared pool cursor. `threads` caps the fan-out
    /// (`0` = full pool, `1` = inline sequential). The serving layer
    /// uses the routes to probe its cache and discover cluster overlap
    /// before committing to a scatter.
    ///
    /// # Errors
    ///
    /// Propagates the first per-query route error in input order.
    pub fn route_batch<Q: AsRef<[f32]> + Sync>(
        &self,
        queries: &[Q],
        threads: usize,
    ) -> Result<Vec<RouteOutcome>, HermesError> {
        map_capped(queries, threads, |q| self.route(q.as_ref()))
    }

    /// Executes the full pipeline for one query: [`Engine::route`], then
    /// [`Engine::execute_coalesced_routed`] on a batch of one with the
    /// plan's [`QueryPlan::scatter_threads`] as the fan-out cap.
    ///
    /// When telemetry is enabled, the call nests `engine.execute` ▸
    /// `engine.route` / `engine.coalesced` spans, with the outer span's
    /// end event carrying the `route_scanned` / `deep_scanned` /
    /// `deep_nprobe` totals from [`SearchStats`].
    ///
    /// # Errors
    ///
    /// Propagates the first shard error in stage order (route before
    /// scatter) and cluster order within a stage.
    pub fn execute(&self, query: &[f32]) -> Result<SearchOutcome, HermesError> {
        let mut query_span = hermes_trace::span(names::ENGINE_EXECUTE);
        if let Some(rid) = self.plan.request_id {
            query_span.arg(names::ARG_REQUEST_ID, rid);
        }
        let route = self.route(query)?;
        let outcome = self
            .execute_coalesced_routed(&[query], vec![route], self.plan.scatter_threads)?
            .pop()
            .expect("one outcome per query");
        query_span.arg("route_scanned", outcome.stats.route.scanned_codes as u64);
        query_span.arg("deep_scanned", outcome.stats.deep.scanned_codes as u64);
        query_span.arg("deep_nprobe", outcome.stats.deep_nprobe as u64);
        Ok(outcome)
    }

    /// Resolves the per-query depth: the [`DifficultyEstimator`]'s choice
    /// when the plan is adaptive and the route produced scores, the
    /// plan's fixed knobs otherwise. Returns `(clusters_to_search,
    /// deep_nprobe)`.
    fn depth_for(&self, route: &RouteOutcome) -> (usize, usize) {
        match self.plan.adaptive {
            Some(cfg) if !route.ranked_scores.is_empty() => {
                let choice = DifficultyEstimator::new(cfg).depth(&route.ranked_scores);
                (choice.clusters, choice.deep_nprobe)
            }
            _ => (self.plan.clusters_to_search, self.plan.deep_nprobe),
        }
    }

    /// **Stages 3+4 (scatter, gather)** for a batch of already-routed
    /// queries — the engine's only scatter/gather. The deep searches are
    /// **coalesced by cluster**: each distinct cluster any query's top-m
    /// selected is one pool task that serves all the queries routed to
    /// it, so at most `distinct clusters` tasks touch each shard exactly
    /// once. Queries with overlapping routing share a shard visit
    /// (locality); disjoint queries still fan out across shards.
    /// `threads` caps that fan-out (`0` = full pool, `1` = inline
    /// sequential).
    ///
    /// Routes must be positionally aligned with `queries` (typically
    /// [`Engine::route_batch`] of the same batch). Each query's outcome
    /// is bit-identical to [`Engine::execute`] of it alone: every
    /// `(query, cluster)` deep search runs the same deterministic scan,
    /// each query's gather merges its per-shard hits in its own rank
    /// order, and stats fold the same integers. Records an
    /// `engine.coalesced` span (args: `queries`, `distinct_clusters`,
    /// `deep_searches`) with one `shard.deep` span per distinct cluster.
    ///
    /// # Errors
    ///
    /// Propagates the first per-query scatter error in input order (rank
    /// order within a query).
    ///
    /// # Panics
    ///
    /// Panics if `routes.len() != queries.len()`.
    pub fn execute_coalesced_routed<Q: AsRef<[f32]> + Sync>(
        &self,
        queries: &[Q],
        routes: Vec<RouteOutcome>,
        threads: usize,
    ) -> Result<Vec<SearchOutcome>, HermesError> {
        assert_eq!(
            queries.len(),
            routes.len(),
            "one route per query, positionally aligned"
        );
        let mut batch_span =
            hermes_trace::span_with(names::ENGINE_COALESCED, &[("queries", queries.len() as u64)]);
        // Per-query depth (m, deep nProbe): fixed knobs or the adaptive
        // policy's per-route choice — resolved once, then honored by both
        // the group scatter and the per-query gather below.
        let depths: Vec<(usize, usize)> = routes.iter().map(|r| self.depth_for(r)).collect();
        let searched: Vec<Vec<usize>> = routes
            .iter()
            .zip(&depths)
            .map(|(route, &(m_limit, _))| {
                let m = m_limit.min(route.ranked_clusters.len());
                route.ranked_clusters[..m].to_vec()
            })
            .collect();

        // Invert query → clusters into cluster → queries (ascending
        // cluster id, queries in input order within a cluster).
        let mut cluster_queries: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (qi, clusters) in searched.iter().enumerate() {
            for &c in clusters {
                cluster_queries.entry(c).or_default().push(qi);
            }
        }
        let groups: Vec<(usize, Vec<usize>)> = cluster_queries.into_iter().collect();
        batch_span.arg("distinct_clusters", groups.len() as u64);

        // One task per distinct cluster: deep-search it for every query
        // that routed to it. Tasks never abort the fan-out — per-search
        // errors are carried to the assembly step so the *query* input
        // order, not the cluster order, decides which error wins.
        type DeepResult = Result<(Vec<Neighbor>, ScanStats), HermesError>;
        let k = self.plan.k;
        let per_group: Vec<Vec<DeepResult>> =
            map_capped(&groups, threads, |(c, qis)| -> Result<_, HermesError> {
                let mut sp = hermes_trace::span_with(names::SHARD_DEEP, &[("cluster", *c as u64)]);
                let results: Vec<DeepResult> = qis
                    .iter()
                    .map(|&qi| self.search_shard(*c, queries[qi].as_ref(), k, depths[qi].1))
                    .collect();
                let scanned = results.iter().flatten().map(|(_, s)| s.scanned_codes as u64);
                sp.arg("queries", qis.len() as u64);
                sp.arg("scanned_codes", scanned.sum());
                Ok(results)
            })?;

        // Re-slot each deep result into its query's rank-order position,
        // so gather sees the per-shard sequence in the query's own order.
        let mut slots: Vec<Vec<Option<DeepResult>>> = searched
            .iter()
            .map(|clusters| clusters.iter().map(|_| None).collect())
            .collect();
        for ((c, qis), results) in groups.iter().zip(per_group) {
            for (&qi, result) in qis.iter().zip(results) {
                let pos = searched[qi]
                    .iter()
                    .position(|cluster| cluster == c)
                    .expect("cluster group built from this query's searched list");
                slots[qi][pos] = Some(result);
            }
        }

        // Assemble outcomes in input order; the first failing query wins.
        let mut outcomes = Vec::with_capacity(queries.len());
        for (((route, query_searched), query_slots), (_, deep_nprobe)) in
            routes.into_iter().zip(searched).zip(slots).zip(depths)
        {
            let per_shard = query_slots
                .into_iter()
                .map(|slot| slot.expect("every searched cluster was scattered"))
                .collect::<Result<Vec<_>, _>>()?;
            outcomes.push(self.gather(route, query_searched, per_shard, deep_nprobe));
        }
        batch_span.arg(
            "deep_searches",
            outcomes
                .iter()
                .map(|o| o.searched_clusters.len() as u64)
                .sum(),
        );
        Ok(outcomes)
    }

    /// **Stage 4 (gather):** merges one query's per-shard hits (already in
    /// its rank order) into the final top-k and folds the stats.
    fn gather(
        &self,
        route: RouteOutcome,
        searched: Vec<usize>,
        per_shard: Vec<(Vec<Neighbor>, ScanStats)>,
        deep_nprobe: usize,
    ) -> SearchOutcome {
        let mut gather_span = hermes_trace::span(names::ENGINE_GATHER);
        let (per_cluster_hits, per_shard_scanned): (Vec<Vec<Neighbor>>, Vec<usize>) = per_shard
            .into_iter()
            .map(|(hits, s)| (hits, s.scanned_codes))
            .unzip();
        let hits = merge_topk(&per_cluster_hits, self.plan.k);
        let stats = SearchStats {
            route: route.cost,
            deep: SearchPhaseCost {
                scanned_codes: per_shard_scanned.iter().sum(),
                clusters_touched: searched.len(),
            },
            gather_candidates: per_cluster_hits.iter().map(Vec::len).sum(),
            per_shard_scanned,
            deep_nprobe,
        };
        gather_span.arg("candidates", stats.gather_candidates as u64);
        drop(gather_span);
        SearchOutcome {
            hits,
            ranked_clusters: route.ranked_clusters,
            searched_clusters: searched,
            stats,
        }
    }

    /// Routes and executes the batch, then folds each query's
    /// deep-searched clusters into a per-cluster access count — the trace
    /// of Figures 13/18 and the DVFS study's input. `threads` caps the
    /// fan-out as in [`Engine::route_batch`]; accumulation is sequential
    /// in input order, so counts are deterministic for any `threads`.
    ///
    /// # Errors
    ///
    /// Propagates the first per-query error in input order.
    pub fn access_histogram<Q: AsRef<[f32]> + Sync>(
        &self,
        queries: &[Q],
        threads: usize,
    ) -> Result<Vec<usize>, HermesError> {
        let routes = self.route_batch(queries, threads)?;
        let outcomes = self.execute_coalesced_routed(queries, routes, threads)?;
        let mut counts = vec![0usize; self.store.num_clusters()];
        for out in outcomes {
            for c in out.searched_clusters {
                counts[c] += 1;
            }
        }
        Ok(counts)
    }
}

/// Maps `f` over `items` with at most `threads` pool threads (`0` = full
/// pool, `1` = inline sequential), returning the first error in input
/// order. Inside a pool worker the pool runs nested maps inline, so a
/// batch's per-query fan-outs never re-enter the pool.
fn map_capped<T, U, F>(items: &[T], threads: usize, f: F) -> Result<Vec<U>, HermesError>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> Result<U, HermesError> + Sync,
{
    if threads == 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let cap = if threads == 0 { usize::MAX } else { threads };
    hermes_pool::Pool::global().try_parallel_map_capped(items, cap, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_datagen::{Corpus, CorpusSpec, QuerySet, QuerySpec};
    use hermes_testkit::prelude::*;

    fn setup() -> (Corpus, QuerySet) {
        let corpus = Corpus::generate(CorpusSpec::new(900, 16, 6).with_seed(41));
        let queries = QuerySet::generate(&corpus, QuerySpec::new(12).with_seed(42));
        (corpus, queries)
    }

    /// The batch path every caller uses: route the batch, then run the
    /// coalesced scatter/gather on those routes.
    fn run_batch<Q: AsRef<[f32]> + Sync>(
        engine: &Engine,
        batch: &[Q],
        threads: usize,
    ) -> Result<Vec<SearchOutcome>, HermesError> {
        engine.execute_coalesced_routed(batch, engine.route_batch(batch, threads)?, threads)
    }

    /// Per-query [`Engine::execute`], stopping at the first error.
    fn per_query<Q: AsRef<[f32]>>(
        engine: &Engine,
        batch: &[Q],
    ) -> Result<Vec<SearchOutcome>, HermesError> {
        batch.iter().map(|q| engine.execute(q.as_ref())).collect()
    }

    #[test]
    fn rank_by_score_orders_desc_with_id_tiebreak() {
        let ranked = rank_by_score(vec![(0, 1.0), (1, 3.0), (2, 1.0), (3, 2.0)]);
        assert_eq!(ranked, vec![1, 3, 0, 2]);
    }

    #[test]
    fn rank_by_score_handles_nan_without_panicking() {
        let ranked = rank_by_score(vec![(0, f32::NAN), (1, 1.0), (2, f32::NAN)]);
        assert_eq!(ranked.len(), 3);
    }

    #[test]
    fn plan_from_config_copies_knobs() {
        let cfg = HermesConfig::new(7)
            .with_clusters_to_search(2)
            .with_sample_nprobe(4)
            .with_deep_nprobe(32)
            .with_k(9);
        let plan = QueryPlan::from_config(&cfg);
        assert_eq!(plan.clusters_to_search, 2);
        assert_eq!(plan.sample_nprobe, 4);
        assert_eq!(plan.deep_nprobe, 32);
        assert_eq!(plan.k, 9);
        assert_eq!(plan.scatter_threads, 0);
    }

    #[test]
    fn exhaustive_plan_covers_every_cluster_unranked() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::new(&store, QueryPlan::exhaustive(&cfg));
        let out = engine.execute(queries.embeddings().row(0)).unwrap();
        assert_eq!(out.ranked_clusters, (0..6).collect::<Vec<_>>());
        assert_eq!(out.searched_clusters, (0..6).collect::<Vec<_>>());
        assert_eq!(out.stats.route, SearchPhaseCost::default());
    }

    #[test]
    fn scatter_width_does_not_change_results() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(3);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let plan = QueryPlan::from_config(&cfg);
        for q in queries.embeddings().iter_rows() {
            let inline = Engine::new(&store, plan.with_scatter_threads(1))
                .execute(q)
                .unwrap();
            for threads in [0usize, 2, 64] {
                let scattered = Engine::new(&store, plan.with_scatter_threads(threads))
                    .execute(q)
                    .unwrap();
                assert_eq!(inline, scattered, "scatter_threads={threads}");
            }
        }
    }

    #[test]
    fn coalesced_matches_per_query_execution_every_width() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(3);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        let batch = queries.to_vecs();
        let reference = per_query(&engine, &batch).unwrap();
        for threads in [0usize, 1, 2, 64] {
            let coalesced = run_batch(&engine, &batch, threads).unwrap();
            assert_eq!(coalesced, reference, "threads={threads}");
        }
    }

    /// Property: for random batches of 0–9 queries (repeats included, so
    /// shard visits are shared), every routing mode, adaptive depth on and
    /// off, every width and both owned and borrowed rows, the coalesced
    /// batch equals per-query `execute`, and a batch carrying one
    /// wrong-dimension query reports the first error in input order.
    #[test]
    fn coalesced_matches_for_every_routing_mode() {
        let (corpus, queries) = setup();
        let pool = queries.to_vecs();
        let mut engines_stores = Vec::new();
        for routing in [
            Routing::DocumentSampling,
            Routing::CentroidOnly,
            Routing::Unranked,
        ] {
            for adaptive in [None, Some(AdaptiveConfig::new(1, 5, 8, 128))] {
                let mut cfg = HermesConfig::new(6)
                    .with_seed(1)
                    .with_clusters_to_search(3)
                    .with_routing(routing);
                cfg.adaptive = adaptive;
                let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
                let label = format!("{routing:?}/adaptive={}", adaptive.is_some());
                engines_stores.push((label, store));
            }
        }
        let strat = tuple3(
            vec_of(usize_in(0..pool.len()), 0..10),
            usize_in(0..4),
            usize_in(0..10),
        );
        let cfg = Config::from_env().with_cases(12);
        check_with("coalesced_matches_for_every_routing_mode", &cfg, &strat, |(picks, t, bad_at)| {
            let threads = [0usize, 1, 2, 16][*t];
            let owned: Vec<Vec<f32>> = picks.iter().map(|&i| pool[i].clone()).collect();
            let borrowed: Vec<&[f32]> = owned.iter().map(Vec::as_slice).collect();
            let mut with_bad = owned.clone();
            with_bad.insert((*bad_at).min(owned.len()), vec![1.0; 3]);
            for (label, store) in &engines_stores {
                let engine = Engine::for_store(store);
                let reference = per_query(&engine, &owned).unwrap();
                let ctx = format!("{label} threads={threads}");
                prop_assert!(
                    run_batch(&engine, &owned, threads).as_ref() == Ok(&reference),
                    "owned rows diverge at {ctx}"
                );
                prop_assert!(
                    run_batch(&engine, &borrowed, threads).as_ref() == Ok(&reference),
                    "borrowed rows diverge at {ctx}"
                );
                let want = per_query(&engine, &with_bad).unwrap_err();
                let got = run_batch(&engine, &with_bad, threads).unwrap_err();
                prop_assert!(got == want, "error diverges at {ctx}: {got:?} vs {want:?}");
            }
            Ok(())
        });
    }

    #[test]
    fn coalesced_single_and_empty_batches() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(2);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        let one = vec![queries.embeddings().row(0).to_vec()];
        assert_eq!(
            run_batch(&engine, &one, 0).unwrap(),
            per_query(&engine, &one).unwrap()
        );
        assert!(run_batch::<Vec<f32>>(&engine, &[], 0).unwrap().is_empty());
    }

    #[test]
    fn coalesced_reports_first_error_in_input_order() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(3);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        // A wrong-dimension query fails at the route stage; put good
        // queries around it so ordering matters.
        let mut batch = queries.to_vecs();
        batch.insert(2, vec![1.0; 3]);
        batch.insert(5, vec![2.0; 5]);
        let expected = per_query(&engine, &batch).unwrap_err();
        for threads in [0usize, 1, 4] {
            let got = run_batch(&engine, &batch, threads).unwrap_err();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn route_batch_matches_sequential_route() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        let batch = queries.to_vecs();
        let sequential: Vec<RouteOutcome> =
            batch.iter().map(|q| engine.route(q).unwrap()).collect();
        for threads in [0usize, 1, 4] {
            assert_eq!(
                engine.route_batch(&batch, threads).unwrap(),
                sequential,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn execute_routed_matches_execute() {
        let (corpus, queries) = setup();
        for adaptive in [None, Some(AdaptiveConfig::new(1, 4, 16, 128))] {
            let mut cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(3);
            cfg.adaptive = adaptive;
            let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            let engine = Engine::for_store(&store);
            for q in queries.embeddings().iter_rows() {
                let route = engine.route(q).unwrap();
                assert_eq!(
                    engine.execute_coalesced_routed(&[q], vec![route], 0).unwrap(),
                    vec![engine.execute(q).unwrap()],
                    "adaptive={adaptive:?}"
                );
            }
        }
    }

    #[test]
    fn coalesced_routed_matches_coalesced() {
        let (corpus, queries) = setup();
        for adaptive in [None, Some(AdaptiveConfig::new(1, 4, 16, 128))] {
            let mut cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(3);
            cfg.adaptive = adaptive;
            let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            let engine = Engine::for_store(&store);
            let batch = queries.to_vecs();
            let inline = run_batch(&engine, &batch, 1).unwrap();
            for threads in [0usize, 1, 4] {
                let routes = engine.route_batch(&batch, threads).unwrap();
                assert_eq!(
                    engine
                        .execute_coalesced_routed(&batch, routes, threads)
                        .unwrap(),
                    inline,
                    "adaptive={adaptive:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn adaptive_depth_recorded_and_bounded() {
        let (corpus, queries) = setup();
        let adaptive = AdaptiveConfig::new(1, 4, 16, 96);
        let cfg = HermesConfig::new(6)
            .with_seed(1)
            .with_clusters_to_search(3)
            .with_adaptive(adaptive);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        for q in queries.embeddings().iter_rows() {
            let out = engine.execute(q).unwrap();
            let m = out.searched_clusters.len();
            assert!((1..=4).contains(&m), "m={m}");
            assert!(
                (16..=96).contains(&out.stats.deep_nprobe),
                "nprobe={}",
                out.stats.deep_nprobe
            );
            // The recorded depth matches a fresh estimate of the same route.
            let route = engine.route(q).unwrap();
            let choice = DifficultyEstimator::new(adaptive).depth(&route.ranked_scores);
            assert_eq!(out.stats.deep_nprobe, choice.deep_nprobe);
            assert_eq!(m, choice.clusters.min(store.num_clusters()));
        }
    }

    #[test]
    fn adaptive_paths_agree_at_every_width() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6)
            .with_seed(1)
            .with_clusters_to_search(3)
            .with_adaptive(AdaptiveConfig::new(1, 5, 8, 128));
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        let batch = queries.to_vecs();
        let reference = per_query(&engine, &batch).unwrap();
        for threads in [0usize, 2, 64] {
            assert_eq!(run_batch(&engine, &batch, threads).unwrap(), reference);
        }
    }

    #[test]
    fn adaptive_without_route_scores_falls_back_to_fixed_knobs() {
        let (corpus, queries) = setup();
        let fixed = HermesConfig::new(6)
            .with_seed(1)
            .with_routing(Routing::Unranked)
            .with_clusters_to_search(3);
        let adaptive = fixed.with_adaptive(AdaptiveConfig::new(1, 5, 8, 64));
        let store = ClusteredStore::build(corpus.embeddings(), &fixed).unwrap();
        let out_fixed = Engine::new(&store, QueryPlan::from_config(&fixed))
            .execute(queries.embeddings().row(0))
            .unwrap();
        let out_adaptive = Engine::new(&store, QueryPlan::from_config(&adaptive))
            .execute(queries.embeddings().row(0))
            .unwrap();
        assert_eq!(out_fixed, out_adaptive);
        assert_eq!(out_adaptive.stats.deep_nprobe, fixed.deep_nprobe);
    }

    #[test]
    fn fixed_plan_records_plan_nprobe() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1).with_deep_nprobe(64);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let out = Engine::for_store(&store)
            .execute(queries.embeddings().row(0))
            .unwrap();
        assert_eq!(out.stats.deep_nprobe, 64);
    }

    #[test]
    fn stats_fold_is_consistent() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(3);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let out = Engine::for_store(&store)
            .execute(queries.embeddings().row(2))
            .unwrap();
        assert_eq!(out.stats.per_shard_scanned.len(), 3);
        assert_eq!(
            out.stats.deep.scanned_codes,
            out.stats.per_shard_scanned.iter().sum::<usize>()
        );
        assert_eq!(out.stats.deep.clusters_touched, 3);
        assert!(out.stats.gather_candidates >= out.hits.len());
        assert_eq!(
            out.stats.total_scanned_codes(),
            out.stats.route.scanned_codes + out.stats.deep.scanned_codes
        );
    }
}
