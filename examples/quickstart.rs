//! Quickstart: build a Hermes clustered datastore and run hierarchical
//! searches against it.
//!
//! ```text
//! cargo run -p hermes --release --example quickstart
//! ```

use hermes::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A corpus with topical structure — the stand-in for an encoded
    //    Common Crawl subset (see DESIGN.md for the substitution).
    println!("generating corpus (20k docs, 64 dims, 10 topics)...");
    let corpus = Corpus::generate(CorpusSpec::new(20_000, 64, 10).with_seed(1));

    // 2. Split it Hermes-style: seed-swept K-means into 10 clusters, one
    //    IVF-SQ8 index per cluster.
    println!("building clustered store...");
    let config = HermesConfig::new(10)
        .with_clusters_to_search(3)
        .with_seed(2);
    let store = ClusteredStore::build(corpus.embeddings(), &config)?;
    println!(
        "  {} clusters, sizes {:?}, imbalance {:.2}x, {:.1} MB",
        store.num_clusters(),
        store.cluster_sizes(),
        store.imbalance(),
        store.memory_bytes() as f64 / 1e6
    );

    // 3. Issue queries: sample all clusters, deep-search the top 3.
    let queries = QuerySet::generate(&corpus, QuerySpec::new(5).with_seed(3));
    let oracle = FlatIndex::new(corpus.embeddings().clone(), Metric::InnerProduct);
    let engine = Engine::for_store(&store);
    for (i, q) in queries.embeddings().iter_rows().enumerate() {
        let out = engine.execute(q)?;
        let truth: Vec<u64> = oracle
            .search(q, config.k, &SearchParams::new())?
            .iter()
            .map(|n| n.id)
            .collect();
        let got: Vec<u64> = out.hits.iter().map(|n| n.id).collect();
        println!(
            "query {i}: routed to clusters {:?} | top-{} {:?} | NDCG {:.3} | scanned {} codes",
            out.searched_clusters,
            config.k,
            got,
            ndcg_at_k(&truth, &got, config.k),
            out.total_scanned_codes(),
        );
    }

    // 4. Text queries work through the encoder stand-in.
    let encoder = HashEncoder::new(64);
    let retriever = Retriever::build(RetrieverKind::Hermes, corpus.embeddings(), &config)?;
    let hits = retriever
        .retrieve(&encoder.encode("which cluster stores the relevant documents"))?
        .hits;
    println!("text query top hit: doc {}", hits[0].id);
    Ok(())
}
