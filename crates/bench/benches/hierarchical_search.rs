//! Benchmarks comparing the retrieval strategies end to end: monolithic
//! IVF, naive all-cluster fan-out, and Hermes hierarchical search at
//! different deep-cluster counts. Runs on the `hermes-testkit`
//! wall-clock runner (`cargo bench --bench hierarchical_search`).

use hermes_core::{ClusteredStore, Engine, HermesConfig, QueryPlan, SearchOutcome};
use hermes_datagen::{Corpus, CorpusSpec, QuerySet, QuerySpec};
use hermes_index::{IvfIndex, SearchParams, VectorIndex};
use hermes_pool::Pool;
use hermes_quant::CodecSpec;
use hermes_testkit::bench::Runner;

fn setup() -> (Corpus, QuerySet) {
    let corpus = Corpus::generate(CorpusSpec::new(20_000, 32, 10).with_seed(17));
    let queries = QuerySet::generate(&corpus, QuerySpec::new(16).with_seed(18));
    (corpus, queries)
}

fn main() {
    let mut runner = Runner::from_args("hierarchical_search");
    let (corpus, queries) = setup();
    let qs = queries.to_vecs();

    let index = IvfIndex::builder()
        .codec(CodecSpec::Sq8)
        .seed(19)
        .build(corpus.embeddings())
        .expect("build");
    let params = SearchParams::new().with_nprobe(128);
    runner.bench("search/monolithic_ivf_20k", || {
        for q in &qs {
            std::hint::black_box(index.search(q, 5, &params).expect("search"));
        }
    });
    runner.bench("batch/monolithic_ivf_pooled", || {
        std::hint::black_box(index.batch_search(&qs, 5, &params, 0).expect("search"))
    });

    for m in [1usize, 3, 10] {
        let cfg = HermesConfig::new(10)
            .with_clusters_to_search(m)
            .with_seed(19);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).expect("build");
        let engine = Engine::for_store(&store);
        runner.bench(&format!("search/hermes_20k/deep_clusters/{m}"), || {
            for q in &qs {
                std::hint::black_box(engine.execute(q).expect("search"));
            }
        });
    }

    let cfg = HermesConfig::new(10).with_clusters_to_search(3).with_seed(19);
    let store = ClusteredStore::build(corpus.embeddings(), &cfg).expect("build");
    let exhaustive = Engine::new(&store, QueryPlan::exhaustive(&cfg));
    runner.bench("search/naive_all_clusters_20k", || {
        for q in &qs {
            std::hint::black_box(exhaustive.execute(q).expect("search"));
        }
    });

    // Batch scheduling: fresh OS threads with static chunks per call
    // (the pre-pool design) vs the persistent work-stealing executor.
    // Run with HERMES_THREADS=<n> to size the pool; the spawn baseline
    // uses the same fan-out width.
    let threads = Pool::global().threads();
    runner.bench(&format!("batch/spawn_per_batch/t{threads}"), || {
        std::hint::black_box(spawn_per_batch(&store, &qs, threads))
    });
    let engine = Engine::for_store(&store);
    let batch = |threads| {
        let routes = engine.route_batch(&qs, threads).expect("route");
        engine.execute_coalesced_routed(&qs, routes, threads).expect("search")
    };
    runner.bench(&format!("batch/pooled/t{threads}"), || {
        std::hint::black_box(batch(0))
    });
    runner.bench("batch/sequential", || std::hint::black_box(batch(1)));

    runner.finish();
}

/// The pre-pool batch search: spawn `threads` scoped OS
/// threads per call, each owning a static contiguous chunk. Kept here as
/// the bench baseline the pooled path is measured against.
fn spawn_per_batch(store: &ClusteredStore, qs: &[Vec<f32>], threads: usize) -> Vec<SearchOutcome> {
    let chunk = qs.len().div_ceil(threads.max(1));
    let mut partials: Vec<Vec<SearchOutcome>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = qs
            .chunks(chunk)
            .map(|c| {
                scope.spawn(move || {
                    let engine = Engine::for_store(store);
                    c.iter()
                        .map(|q| engine.execute(q).expect("search"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            partials.push(h.join().expect("worker"));
        }
    });
    partials.concat()
}
