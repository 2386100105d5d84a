//! Parallel-runtime equivalence: executing the engines at `--threads ∈
//! {1, 2, 4, 8}` must be **observably identical** to single-threaded
//! execution — same `k_hop_batch`/`rpq_batch` results (also under the
//! bidirectional and rare-label-split planned executors), same simulated
//! `SimTime` per phase, same transfer-byte tallies — over labelled uniform
//! and power-law graphs with interleaved labelled updates.
//!
//! This is the executable form of the determinism contract in CONCURRENCY.md
//! (disjoint module ownership, private worker scratch, id-ordered merge):
//! `QueryStats`/`UpdateStats` derive `PartialEq` over the full per-phase
//! `Timeline` **including the floating-point `SimTime` values and the raw
//! `TransferStats` counters**, so a single inequality anywhere — a float
//! accumulated in a different order, one byte charged on the wrong bus —
//! fails the test.

use graph_gen::labels::{relabel, LabelMixConfig};
use graph_store::{AdjacencyGraph, Label, NodeId};
use moctopus::{GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem, QueryStats};
use proptest::prelude::*;
use rpq::PlanStrategy;

/// Thread counts the equivalence sweep compares against the 1-thread run.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Queries covering every execution strategy: label chain (matrix chain /
/// label-filtered hops), closure with alternation (NFA product / automaton
/// sweep), plain k-hop fast path, and transitive closure.
const QUERIES: [&str; 4] = ["1/2/3", "1/(2|3)*/4", ".{2}", "1+"];

/// Every query runs on the forward path (`None`, plain `rpq_batch`) and under
/// both non-forward planned executors. A split position without a mandatory
/// exact pivot, and every k-hop shape, falls back to forward.
const PLANS: [Option<PlanStrategy>; 3] =
    [None, Some(PlanStrategy::Bidirectional), Some(PlanStrategy::RareLabelSplit { split_at: 1 })];

/// Builds the three engines at the given thread count, loaded with the
/// labelled stream (Moctopus refined once, as in the experiment harness).
fn engines_at(threads: usize, edges: &[(NodeId, NodeId, Label)]) -> Vec<Box<dyn GraphEngine>> {
    let cfg = MoctopusConfig::small_test().with_threads(threads);
    let mut moctopus = MoctopusSystem::new(cfg);
    moctopus.insert_labeled_edges(edges);
    moctopus.refine_locality();
    let mut pim_hash = MoctopusSystem::pim_hash(cfg);
    pim_hash.insert_labeled_edges(edges);
    let mut baseline = HostBaseline::new(cfg);
    baseline.insert_labeled_edges(edges);
    vec![Box::new(moctopus), Box::new(pim_hash), Box::new(baseline)]
}

/// A batch of labelled edges, as consumed by the labelled update paths.
type LabeledBatch = Vec<(NodeId, NodeId, Label)>;

/// Deterministic update batches for the interleaving: new labelled edges and
/// deletions of existing ones.
fn update_batches(model: &AdjacencyGraph, seed: u64) -> (LabeledBatch, LabeledBatch) {
    let inserts: Vec<(NodeId, NodeId, Label)> =
        graph_gen::stream::sample_new_edges(model, 24, seed)
            .into_iter()
            .enumerate()
            .map(|(i, (s, d))| (s, d, Label((i % 4) as u16 + 1)))
            .collect();
    let mut deletes = graph_gen::labels::labeled_edge_stream(model);
    deletes.truncate(16);
    (inserts, deletes)
}

/// Answers `text` on `engine` under `plan`.
fn run_query(
    engine: &mut dyn GraphEngine,
    text: &str,
    sources: &[NodeId],
    plan: Option<PlanStrategy>,
) -> (Vec<Vec<NodeId>>, QueryStats) {
    let expr = rpq::parser::parse(text).expect("query set must parse");
    match plan {
        None => engine.rpq_batch(&expr, sources),
        Some(strategy) => engine.rpq_batch_planned(&expr, sources, strategy),
    }
}

/// Asserts every query of [`QUERIES`] under every plan of [`PLANS`] gives
/// the same results and the same full stats on both engines.
fn assert_queries_equal(
    reference: &mut dyn GraphEngine,
    parallel: &mut dyn GraphEngine,
    sources: &[NodeId],
    threads: usize,
    phase: &str,
) -> Result<(), TestCaseError> {
    for text in QUERIES {
        for plan in PLANS {
            let (want, want_stats) = run_query(reference, text, sources, plan);
            let (got, got_stats) = run_query(parallel, text, sources, plan);
            prop_assert_eq!(
                &got,
                &want,
                "{}: {} results differ at {} threads on {:?} under {:?}",
                phase,
                reference.name(),
                threads,
                text,
                plan
            );
            prop_assert_eq!(
                got_stats,
                want_stats,
                "{}: {} SimTime/transfer stats differ at {} threads on {:?} under {:?}",
                phase,
                reference.name(),
                threads,
                text,
                plan
            );
        }
    }
    Ok(())
}

/// Runs the full workload — queries, k-hop batches, interleaved updates,
/// more queries — on engines at `threads` and at 1 thread, asserting every
/// observable output (results + complete stats) is identical pairwise.
fn assert_thread_equivalence(
    model: &AdjacencyGraph,
    edges: &[(NodeId, NodeId, Label)],
    sources: &[NodeId],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut reference_engines = engines_at(1, edges);
    let (inserts, deletes) = update_batches(model, seed);

    for &threads in &THREAD_COUNTS[1..] {
        let mut parallel_engines = engines_at(threads, edges);
        for (reference, parallel) in reference_engines.iter_mut().zip(&mut parallel_engines) {
            prop_assert_eq!(parallel.threads(), threads);

            // Phase 1: queries over the freshly built graph.
            assert_queries_equal(reference, parallel, sources, threads, "fresh")?;
            for k in 1..=3usize {
                let (want, want_stats) = reference.k_hop_batch(sources, k);
                let (got, got_stats) = parallel.k_hop_batch(sources, k);
                prop_assert_eq!(&got, &want, "k-hop results differ at {} threads", threads);
                prop_assert_eq!(got_stats, want_stats, "k-hop stats differ at {} threads", threads);
            }

            // Phase 2: interleaved labelled updates, stats compared too.
            let want_ins = reference.insert_labeled_edges(&inserts);
            let got_ins = parallel.insert_labeled_edges(&inserts);
            prop_assert_eq!(got_ins, want_ins, "insert stats differ at {} threads", threads);
            let want_del = reference.delete_labeled_edges(&deletes);
            let got_del = parallel.delete_labeled_edges(&deletes);
            prop_assert_eq!(got_del, want_del, "delete stats differ at {} threads", threads);

            // Phase 3: queries over the updated graph (exercises promoted
            // rows, emptied rows, and the refreshed baseline matrices).
            assert_queries_equal(reference, parallel, sources, threads, "post-update")?;
        }
        // The 1-thread engines advanced through the updates; rebuild them so
        // every thread count is compared from the same pristine state.
        reference_engines = engines_at(1, edges);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Labelled uniform graphs: thread counts 2/4/8 match 1 exactly.
    #[test]
    fn uniform_labelled_graphs_are_thread_count_invariant(
        seed in 0u64..200,
        nodes in 60usize..160,
        degree_tenths in 20usize..50,
    ) {
        let topology = graph_gen::uniform::generate(nodes, degree_tenths as f64 / 10.0, seed);
        let model = relabel(&topology, &LabelMixConfig::default(), seed);
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let sources: Vec<NodeId> = (0..16u64).map(NodeId).collect();
        assert_thread_equivalence(&model, &edges, &sources, seed)?;
    }

    /// Labelled power-law graphs (hub promotion, host lane active): thread
    /// counts 2/4/8 match 1 exactly.
    #[test]
    fn power_law_labelled_graphs_are_thread_count_invariant(
        seed in 0u64..200,
        nodes in 120usize..300,
    ) {
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes,
            high_degree_fraction: 0.04,
            ..Default::default()
        };
        let topology = graph_gen::powerlaw::generate(&cfg, seed);
        let model = relabel(&topology, &LabelMixConfig::default(), seed);
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let sources: Vec<NodeId> = (0..16u64).map(NodeId).collect();
        assert_thread_equivalence(&model, &edges, &sources, seed)?;
    }
}

/// Thread counts far above the module count (8 modules in `small_test`) must
/// degrade to idle workers, not wrong answers.
#[test]
fn oversubscribed_thread_count_is_still_identical() {
    let topology = graph_gen::uniform::generate(100, 3.0, 7);
    let model = relabel(&topology, &LabelMixConfig::default(), 7);
    let edges = graph_gen::labels::labeled_edge_stream(&model);
    let sources: Vec<NodeId> = (0..8u64).map(NodeId).collect();

    let mut serial = engines_at(1, &edges);
    let mut oversubscribed = engines_at(64, &edges);
    for (a, b) in serial.iter_mut().zip(&mut oversubscribed) {
        let (want, want_stats) = a.k_hop_batch(&sources, 3);
        let (got, got_stats) = b.k_hop_batch(&sources, 3);
        assert_eq!(got, want, "{} differs when oversubscribed", a.name());
        assert_eq!(got_stats, want_stats);
    }
}

/// `set_threads` reconfigures a live engine without disturbing its contents
/// or its determinism.
#[test]
fn set_threads_on_a_live_engine_keeps_outputs_identical() {
    let topology = graph_gen::uniform::generate(150, 4.0, 11);
    let model = relabel(&topology, &LabelMixConfig::default(), 11);
    let edges = graph_gen::labels::labeled_edge_stream(&model);
    let sources: Vec<NodeId> = (0..12u64).map(NodeId).collect();

    let mut engine = MoctopusSystem::new(MoctopusConfig::small_test());
    engine.insert_labeled_edges(&edges);
    let (want, want_stats) = engine.k_hop_batch(&sources, 2);
    for threads in [2, 4, 1, 8] {
        engine.set_threads(threads);
        assert_eq!(engine.threads(), threads);
        let (got, got_stats) = engine.k_hop_batch(&sources, 2);
        assert_eq!(got, want, "results moved after set_threads({threads})");
        assert_eq!(got_stats, want_stats, "stats moved after set_threads({threads})");
    }
}
