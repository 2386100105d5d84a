//! Cross-engine equivalence: Moctopus, PIM-hash and the RedisGraph-like
//! baseline must return exactly the same answers as the reference evaluator
//! for every workload family the paper evaluates on.

use graph_store::{AdjacencyGraph, NodeId};
use moctopus::{GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem};
use rpq::ReferenceEvaluator;

fn edge_list(graph: &AdjacencyGraph) -> Vec<(NodeId, NodeId)> {
    let mut edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
    edges.sort();
    edges
}

fn engines(edges: &[(NodeId, NodeId)]) -> Vec<Box<dyn GraphEngine>> {
    let cfg = MoctopusConfig::small_test();
    vec![
        Box::new(MoctopusSystem::new(cfg).with_edge_stream(edges)),
        Box::new(MoctopusSystem::pim_hash(cfg).with_edge_stream(edges)),
        Box::new(HostBaseline::from_edge_stream(cfg, edges)),
    ]
}

fn check_graph(graph: &AdjacencyGraph, ks: &[usize], num_sources: u64) {
    let edges = edge_list(graph);
    let reference = ReferenceEvaluator::new(graph);
    let sources: Vec<NodeId> = (0..num_sources).map(NodeId).collect();
    for mut engine in engines(&edges) {
        assert_eq!(engine.edge_count(), edges.len(), "{} lost edges", engine.name());
        for &k in ks {
            let (got, stats) = engine.k_hop_batch(&sources, k);
            let want = reference.k_hop(&sources, k);
            assert_eq!(stats.batch_size, sources.len());
            assert_eq!(stats.hops, k);
            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                let w: Vec<NodeId> = w.iter().copied().collect();
                assert_eq!(
                    g,
                    &w,
                    "{} disagrees with the reference for source {} at k = {}",
                    engine.name(),
                    i,
                    k
                );
            }
        }
    }
}

#[test]
fn road_network_equivalence() {
    let graph = graph_gen::road::generate(900, 0.1, 11);
    check_graph(&graph, &[1, 2, 4, 6], 48);
}

#[test]
fn power_law_equivalence() {
    let cfg = graph_gen::powerlaw::PowerLawConfig {
        nodes: 800,
        high_degree_fraction: 0.03,
        ..Default::default()
    };
    let graph = graph_gen::powerlaw::generate(&cfg, 23);
    check_graph(&graph, &[1, 2, 3], 48);
}

#[test]
fn uniform_graph_equivalence() {
    let graph = graph_gen::uniform::generate(700, 4.0, 31);
    check_graph(&graph, &[1, 2, 3], 48);
}

#[test]
fn table1_trace_standins_equivalence() {
    // One representative of each generator family from Table 1.
    for trace_id in [2usize, 8, 14] {
        let spec = graph_gen::traces::TraceSpec::by_trace_id(trace_id).expect("trace exists");
        let graph = spec.generate(0.0005, 7);
        check_graph(&graph, &[1, 2, 3], 32);
    }
}

#[test]
fn equivalence_survives_refinement_and_updates() {
    let graph = graph_gen::uniform::generate(500, 4.0, 3);
    let edges = edge_list(&graph);
    let cfg = MoctopusConfig::small_test();
    let mut moctopus = MoctopusSystem::new(cfg).with_edge_stream(&edges);
    let mut baseline = HostBaseline::from_edge_stream(cfg, &edges);

    // Mutate both engines identically.
    let inserts = graph_gen::stream::sample_new_edges(&graph, 200, 5);
    let deletes = graph_gen::stream::sample_existing_edges(&graph, 200, 9);
    moctopus.insert_edges(&inserts);
    baseline.insert_edges(&inserts);
    moctopus.delete_edges(&deletes);
    baseline.delete_edges(&deletes);
    moctopus.refine_locality();

    let sources: Vec<NodeId> = (0..64u64).map(NodeId).collect();
    for k in 1..=3 {
        let (a, _) = moctopus.k_hop_batch(&sources, k);
        let (b, _) = baseline.k_hop_batch(&sources, k);
        assert_eq!(a, b, "divergence after updates at k = {k}");
    }
    assert_eq!(moctopus.edge_count(), baseline.edge_count());
}

#[test]
fn batch_order_does_not_change_results() {
    let graph = graph_gen::uniform::generate(400, 3.0, 17);
    let edges = edge_list(&graph);
    let cfg = MoctopusConfig::small_test();
    let mut system = MoctopusSystem::new(cfg).with_edge_stream(&edges);
    let sources: Vec<NodeId> = vec![NodeId(5), NodeId(1), NodeId(5), NodeId(9)];
    let (results, stats) = system.k_hop_batch(&sources, 2);
    // Each batch row answers its own query, including duplicates.
    assert_eq!(results.len(), 4);
    assert_eq!(results[0], results[2]);
    assert_eq!(stats.batch_size, 4);
}
