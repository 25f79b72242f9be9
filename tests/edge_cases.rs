//! Failure injection and boundary conditions across the stack.

use hermes::prelude::*;

#[test]
fn single_document_corpus_is_servable() {
    let data = Mat::from_rows(&[vec![1.0, 0.0, 0.0, 0.0]]);
    let cfg = HermesConfig::new(1)
        .with_clusters_to_search(1)
        .with_k(1)
        .with_seed(1);
    let store = ClusteredStore::build(&data, &cfg).unwrap();
    let out = Engine::for_store(&store).execute(&[1.0, 0.0, 0.0, 0.0]).unwrap();
    assert_eq!(out.hits.len(), 1);
    assert_eq!(out.hits[0].id, 0);
}

#[test]
fn more_clusters_than_documents_degrades_gracefully() {
    let data = Mat::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0], vec![9.0, 0.0]]);
    let cfg = HermesConfig::new(8)
        .with_clusters_to_search(2)
        .with_k(2)
        .with_metric(Metric::L2)
        .with_seed(2);
    // num_clusters is clamped to the document count inside the build.
    let store = ClusteredStore::build(&data, &cfg).unwrap();
    assert!(store.num_clusters() <= 3);
    let out = Engine::for_store(&store).execute(&[0.1, 0.1]).unwrap();
    assert_eq!(out.hits[0].id, 0);
}

#[test]
fn k_exceeding_cluster_contents_returns_what_exists() {
    let data = Mat::from_rows(&(0..12).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>());
    let cfg = HermesConfig::new(4)
        .with_clusters_to_search(1)
        .with_k(10)
        .with_seed(3);
    let store = ClusteredStore::build(&data, &cfg).unwrap();
    let out = Engine::for_store(&store).execute(&[0.0, 0.0]).unwrap();
    assert!(!out.hits.is_empty());
    assert!(out.hits.len() <= 10);
}

#[test]
fn duplicate_documents_yield_deterministic_ordering() {
    let data = Mat::from_rows(&vec![vec![1.0, 1.0]; 20]);
    let cfg = HermesConfig::new(2)
        .with_clusters_to_search(2)
        .with_k(5)
        .with_seed(4);
    let store = ClusteredStore::build(&data, &cfg).unwrap();
    let a = Engine::for_store(&store).execute(&[1.0, 1.0]).unwrap();
    let b = Engine::for_store(&store).execute(&[1.0, 1.0]).unwrap();
    assert_eq!(a.hits, b.hits);
    // Ties broken by id: the lowest ids win.
    let ids: Vec<u64> = a.hits.iter().map(|n| n.id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
}

#[test]
fn zero_vector_query_is_handled() {
    let corpus = Corpus::generate(CorpusSpec::new(200, 8, 4).with_seed(5));
    let cfg = HermesConfig::new(4)
        .with_clusters_to_search(2)
        .with_seed(6);
    let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    let out = Engine::for_store(&store).execute(&[0.0; 8]).unwrap();
    assert_eq!(out.hits.len(), cfg.k);
}

#[test]
fn nan_query_does_not_panic_or_poison_results() {
    let corpus = Corpus::generate(CorpusSpec::new(100, 4, 2).with_seed(7));
    let cfg = HermesConfig::new(2)
        .with_clusters_to_search(1)
        .with_seed(8);
    let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    let out = Engine::for_store(&store).execute(&[f32::NAN; 4]).unwrap();
    // Results are arbitrary but present and not NaN-scored duplicates.
    assert_eq!(out.hits.len(), cfg.k);
    let mut ids: Vec<u64> = out.hits.iter().map(|n| n.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), cfg.k);
}

#[test]
fn extreme_magnitude_vectors_survive_quantization() {
    let mut rows: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32 * 1e6, 1.0]).collect();
    rows.push(vec![-1e9, -1e9]);
    let data = Mat::from_rows(&rows);
    let index = IvfIndex::builder()
        .nlist(4)
        .metric(Metric::L2)
        .build(&data)
        .unwrap();
    let hits = index
        .search(&[-1e9, -1e9], 1, &SearchParams::new().with_nprobe(4))
        .unwrap();
    assert_eq!(hits[0].id, 64);
}

#[test]
fn hnsw_handles_single_and_two_element_graphs() {
    for n in [1usize, 2] {
        let data = Mat::from_rows(&(0..n).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>());
        let index = HnswIndex::builder().metric(Metric::L2).build(&data).unwrap();
        let hits = index.search(&[0.0, 0.0], n, &SearchParams::new()).unwrap();
        assert_eq!(hits.len(), n);
        assert_eq!(hits[0].id, 0);
    }
}

#[test]
fn pipeline_with_one_stride_still_augments() {
    let corpus = Corpus::generate(CorpusSpec::new(300, 8, 3).with_seed(9));
    let cfg = HermesConfig::new(3)
        .with_clusters_to_search(1)
        .with_seed(10);
    let retriever = Retriever::build(RetrieverKind::Hermes, corpus.embeddings(), &cfg).unwrap();
    let pipeline = hermes::rag::RagPipeline::new(retriever, ChunkStore::new(10))
        .with_output_tokens(8)
        .with_stride(16); // stride > output: exactly one stride
    let t = pipeline.generate(corpus.embeddings().row(0), 1).unwrap();
    assert_eq!(t.strides.len(), 1);
}

#[test]
fn simulator_handles_single_node_single_stride() {
    let sim = MultiNodeSim::new(Deployment::uniform(1_000_000, 1));
    let serving = ServingConfig::paper_default()
        .with_batch(1)
        .with_stride(256);
    let r = sim.run(
        &serving,
        RetrievalScheme::Hermes {
            clusters_to_search: 1,
            sample_nprobe: 1,
        },
        PipelinePolicy::combined(),
        DvfsMode::Off,
    );
    assert_eq!(r.strides, 1);
    assert!(r.e2e_s >= r.ttft_s);
}

#[test]
fn corrupted_store_files_are_rejected_not_crashed() {
    let corpus = Corpus::generate(CorpusSpec::new(200, 8, 2).with_seed(11));
    let cfg = HermesConfig::new(2)
        .with_clusters_to_search(1)
        .with_seed(12);
    let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    let mut bytes = store.to_bytes().to_vec();
    // Flip bytes through the payload; decoding must error, never panic.
    for pos in [9usize, 64, bytes.len() / 2, bytes.len() - 4] {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0xFF;
        let _ = ClusteredStore::from_bytes(&corrupted); // Err or (rarely) Ok, never panic
    }
    bytes.truncate(bytes.len() / 3);
    assert!(ClusteredStore::from_bytes(&bytes).is_err());
}

#[test]
fn inserting_into_every_cluster_keeps_sizes_consistent() {
    let corpus = Corpus::generate(CorpusSpec::new(400, 8, 4).with_seed(13));
    let cfg = HermesConfig::new(4)
        .with_clusters_to_search(2)
        .with_seed(14);
    let mut store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    let before = store.len();
    for c in 0..store.num_clusters() {
        let v = store.split_centroid(c).to_vec();
        let routed = store.insert(10_000 + c as u64, &v).unwrap();
        assert_eq!(routed, c);
    }
    assert_eq!(store.len(), before + store.num_clusters());
}

#[test]
fn empty_kmeans_cluster_placeholder_never_surfaces() {
    // 40 rows equal to (1,0,0,0) within 1e-6: K-means leaves clusters
    // empty, and each is built around a tombstoned placeholder row.
    let rows: Vec<Vec<f32>> = (0..40)
        .map(|i| vec![1.0, if i % 2 == 0 { 1e-6 } else { 0.0 }, 0.0, 0.0])
        .collect();
    let cfg = HermesConfig::new(4).with_seed(1).with_k(50);
    let store = ClusteredStore::build(&Mat::from_rows(&rows), &cfg).unwrap();
    assert!(store.cluster_sizes().contains(&0), "input must leave a cluster empty");
    assert_eq!(store.cluster_sizes().iter().sum::<usize>(), rows.len());
    assert_eq!(store.len(), rows.len());
    let q = [1.0, 0.0, 0.0, 0.0];
    let routed = Engine::for_store(&store).execute(&q).unwrap();
    let exhaustive = Engine::new(&store, QueryPlan::exhaustive(&cfg)).execute(&q).unwrap();
    for out in [routed, exhaustive] {
        assert!(!out.hits.is_empty());
        assert!(out.hits.iter().all(|h| h.id != u64::MAX), "placeholder row served");
    }
}

