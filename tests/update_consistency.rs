//! Update-path consistency: interleaved insertions and deletions applied to
//! the distributed engines must always agree with a simple in-memory model,
//! and the heterogeneous storage must keep its host/PIM halves consistent.

use graph_store::{AdjacencyGraph, HeterogeneousStorage, Label, NodeId};
use moctopus::{GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem};
use proptest::prelude::*;

/// One update operation in a random workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Delete(u64, u64),
}

fn op_strategy(max_node: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..max_node, 0..max_node).prop_map(|(s, d)| Op::Insert(s, d)),
        1 => (0..max_node, 0..max_node).prop_map(|(s, d)| Op::Delete(s, d)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Moctopus, PIM-hash and the model graph stay in lockstep under random
    /// interleavings of insertions and deletions.
    #[test]
    fn engines_track_a_model_graph(ops in prop::collection::vec(op_strategy(60), 1..300)) {
        let cfg = MoctopusConfig::small_test();
        let mut moctopus = MoctopusSystem::new(cfg);
        let mut pim_hash = MoctopusSystem::pim_hash(cfg);
        let mut model = AdjacencyGraph::new();

        for op in &ops {
            match *op {
                Op::Insert(s, d) if s != d => {
                    let applied_model = model.insert_edge(NodeId(s), NodeId(d), Label::ANY);
                    let a = moctopus.insert_edges(&[(NodeId(s), NodeId(d))]);
                    let b = pim_hash.insert_edges(&[(NodeId(s), NodeId(d))]);
                    prop_assert_eq!(a.applied == 1, applied_model);
                    prop_assert_eq!(b.applied == 1, applied_model);
                }
                Op::Delete(s, d) if s != d => {
                    let applied_model = model.remove_edge(NodeId(s), NodeId(d), Label::ANY);
                    let a = moctopus.delete_edges(&[(NodeId(s), NodeId(d))]);
                    let b = pim_hash.delete_edges(&[(NodeId(s), NodeId(d))]);
                    prop_assert_eq!(a.applied == 1, applied_model);
                    prop_assert_eq!(b.applied == 1, applied_model);
                }
                _ => {}
            }
        }
        prop_assert_eq!(moctopus.edge_count(), model.edge_count());
        prop_assert_eq!(pim_hash.edge_count(), model.edge_count());

        // Spot-check queries against the model after the whole workload.
        let sources: Vec<NodeId> = (0..10u64).map(NodeId).collect();
        let reference = rpq::ReferenceEvaluator::new(&model);
        let want = reference.k_hop(&sources, 2);
        let (got, _) = moctopus.k_hop_batch(&sources, 2);
        for (g, w) in got.iter().zip(want.iter()) {
            let w: Vec<NodeId> = w.iter().copied().collect();
            prop_assert_eq!(g, &w);
        }
    }

    /// The heterogeneous storage keeps `cols_vector`, `elem_position_map` and
    /// `free_list_map` mutually consistent under arbitrary labelled update
    /// sequences (the label is derived from the endpoints, so the same pair
    /// recurs under a few distinct labels across the workload).
    #[test]
    fn heterogeneous_storage_invariants(ops in prop::collection::vec(op_strategy(30), 1..400)) {
        let mut storage = HeterogeneousStorage::new();
        let mut model = AdjacencyGraph::new();
        let label_of = |s: u64, d: u64| Label(((s + d) % 3) as u16);
        for op in &ops {
            match *op {
                Op::Insert(s, d) => {
                    let label = label_of(s, d);
                    let changed = storage.insert_edge(NodeId(s), NodeId(d), label).changed;
                    let model_changed = model.insert_edge(NodeId(s), NodeId(d), label);
                    prop_assert_eq!(changed, model_changed);
                }
                Op::Delete(s, d) => {
                    let label = label_of(s, d);
                    let changed = storage.delete_edge(NodeId(s), NodeId(d), label).changed;
                    let model_changed = model.remove_edge(NodeId(s), NodeId(d), label);
                    prop_assert_eq!(changed, model_changed);
                }
            }
        }
        storage.check_invariants().expect("host/PIM halves diverged");
        prop_assert_eq!(storage.edge_count(), model.edge_count());
        for node in model.nodes() {
            let mut want: Vec<(NodeId, Label)> = model.neighbors(node).to_vec();
            want.sort();
            let mut got = storage.neighbors(node);
            got.sort();
            prop_assert_eq!(got, want);
        }
    }
}

#[test]
fn paper_sized_update_batches_complete() {
    // A scaled-down version of the Figure 6 workload end to end.
    let graph = graph_gen::uniform::generate(4000, 4.0, 19);
    let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
    let cfg = MoctopusConfig::paper_defaults();
    let mut moctopus = MoctopusSystem::new(cfg).with_edge_stream(&edges);
    let mut baseline = HostBaseline::from_edge_stream(cfg, &edges);

    let inserts = graph_gen::stream::sample_new_edges(&graph, 4096, 5);
    let deletes = graph_gen::stream::sample_existing_edges(&graph, 4096, 7);

    let moc_ins = moctopus.insert_edges(&inserts);
    let host_ins = baseline.insert_edges(&inserts);
    assert_eq!(moc_ins.applied, inserts.len());
    assert_eq!(host_ins.applied, inserts.len());

    let moc_del = moctopus.delete_edges(&deletes);
    let host_del = baseline.delete_edges(&deletes);
    assert_eq!(moc_del.applied, deletes.len());
    assert_eq!(host_del.applied, deletes.len());

    // The paper's headline: Moctopus updates are dramatically faster because
    // they bypass the host memory system.
    assert!(
        moc_ins.latency() < host_ins.latency(),
        "moctopus insert {} should beat the baseline {}",
        moc_ins.latency(),
        host_ins.latency()
    );
    assert!(moc_del.latency() < host_del.latency());
    assert_eq!(moctopus.edge_count(), baseline.edge_count());
}

#[test]
fn promotion_during_updates_preserves_all_edges() {
    // Drive one node across the high-degree threshold in several batches and
    // make sure no edge is lost during the PIM -> host migration.
    let cfg = MoctopusConfig::small_test();
    let mut moctopus = MoctopusSystem::new(cfg);
    for chunk in 0..5u64 {
        let batch: Vec<(NodeId, NodeId)> =
            (0..8u64).map(|i| (NodeId(0), NodeId(1 + chunk * 8 + i))).collect();
        moctopus.insert_edges(&batch);
    }
    assert_eq!(moctopus.edge_count(), 40);
    assert_eq!(moctopus.partition_of(NodeId(0)), Some(moctopus::PartitionId::Host));
    let (results, _) = moctopus.k_hop_batch(&[NodeId(0)], 1);
    assert_eq!(results[0].len(), 40);
}
