//! Integration: feed *measured* cluster access frequencies from the real
//! retrieval stack into the multi-node simulator — exactly the coupling
//! the paper's analysis tool performs (trace of top clusters from the
//! query set, aggregated with device measurements).

use hermes::prelude::*;

fn measured_access_freqs() -> (Vec<f64>, usize) {
    let corpus = Corpus::generate(CorpusSpec::new(1200, 16, 10).with_seed(31));
    let queries = QuerySet::generate(&corpus, QuerySpec::new(60).with_seed(32));
    let cfg = HermesConfig::new(10)
        .with_clusters_to_search(3)
        .with_seed(33);
    let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();

    let mut counts = vec![0usize; store.num_clusters()];
    for q in queries.embeddings().iter_rows() {
        let out = Engine::for_store(&store).execute(q).unwrap();
        for &c in &out.searched_clusters {
            counts[c] += 1;
        }
    }
    let total: usize = counts.iter().sum();
    (
        counts.iter().map(|&c| c as f64 / total as f64).collect(),
        store.num_clusters(),
    )
}

#[test]
fn real_traces_drive_the_simulator() {
    let (freqs, n) = measured_access_freqs();
    assert_eq!(n, 10);
    assert!((freqs.iter().sum::<f64>() - 1.0).abs() < 1e-9);

    let deployment = Deployment::uniform(100_000_000_000, 10).with_access_freqs(&freqs);
    let sim = MultiNodeSim::new(deployment);
    let serving = ServingConfig::paper_default();

    let hermes = sim.run(
        &serving,
        RetrievalScheme::Hermes {
            clusters_to_search: 3,
            sample_nprobe: 8,
        },
        PipelinePolicy::combined(),
        DvfsMode::Off,
    );
    let baseline = sim.run(
        &serving,
        RetrievalScheme::Monolithic,
        PipelinePolicy::baseline(),
        DvfsMode::Off,
    );
    assert!(baseline.e2e_s > hermes.e2e_s * 3.0);
    assert!(baseline.total_joules() > hermes.total_joules());
}

#[test]
fn skewed_traces_cost_more_than_uniform_ones() {
    // Load concentration lengthens the deep-phase wall (hot node is the
    // straggler), so skewed access frequencies must not look cheaper.
    let serving = ServingConfig::paper_default();
    let scheme = RetrievalScheme::Hermes {
        clusters_to_search: 3,
        sample_nprobe: 8,
    };
    let uniform = MultiNodeSim::new(Deployment::uniform(100_000_000_000, 10)).retrieval_cost(
        &serving,
        scheme,
        DvfsMode::Off,
        0.0,
    );
    let skewed = MultiNodeSim::new(Deployment::skewed(100_000_000_000, 10, 2.0, 1.2, 5))
        .retrieval_cost(&serving, scheme, DvfsMode::Off, 0.0);
    assert!(skewed.latency_s >= uniform.latency_s * 0.95);
}

#[test]
fn dvfs_saves_energy_on_measured_traces() {
    let (freqs, _) = measured_access_freqs();
    let deployment = Deployment::uniform(100_000_000_000, 10).with_access_freqs(&freqs);
    let sim = MultiNodeSim::new(deployment);
    let serving = ServingConfig::paper_default();
    let scheme = RetrievalScheme::Hermes {
        clusters_to_search: 3,
        sample_nprobe: 8,
    };
    let decode = InferenceModel::default().decode_latency(serving.batch, serving.stride);

    let off = sim.retrieval_cost(&serving, scheme, DvfsMode::Off, decode);
    let slowest = sim.retrieval_cost(&serving, scheme, DvfsMode::SlowestCluster, decode);
    let enhanced = sim.retrieval_cost(&serving, scheme, DvfsMode::InferenceBound, decode * 20.0);
    assert!(slowest.joules <= off.joules);
    assert!(enhanced.joules <= slowest.joules);
}

#[test]
fn planner_node_count_hides_retrieval_in_simulation() {
    // Cross-check planner vs simulator: splitting a 100B datastore into
    // the planner's node count leaves no pipeline bubble in the sim.
    let planner = ClusterPlanner::default();
    let serving = ServingConfig::paper_default();
    let nodes = planner.nodes_required(
        100_000_000_000,
        serving.batch,
        serving.nprobe,
        serving.input_tokens,
        serving.stride,
    );
    let sim = MultiNodeSim::new(Deployment::uniform(100_000_000_000, nodes));
    let report = sim.run(
        &serving,
        RetrievalScheme::Hermes {
            clusters_to_search: 3.min(nodes),
            sample_nprobe: 8,
        },
        PipelinePolicy::combined(),
        DvfsMode::Off,
    );
    // Per-stride retrieval (sample+deep) should be within ~3x of decode —
    // the deep phase is load-spread, so a straggler can exceed one decode
    // interval, but the monolithic 18x exposure must be gone.
    assert!(
        report.retrieval_per_stride_s < report.decode_per_stride_s * 3.0,
        "retrieval {} vs decode {}",
        report.retrieval_per_stride_s,
        report.decode_per_stride_s
    );
}
