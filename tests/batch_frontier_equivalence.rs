//! Property tests pinning both hop loops of the distributed engine to their
//! cost contracts.
//!
//! *The k-hop loop.* The engine rewrite (dense owner directory, epoch-marked
//! dedup, recycled frontier buffers) is a pure reproduction-speed
//! optimisation: results must match `rpq::ReferenceEvaluator`, and every
//! simulated charge must equal the naive per-hop formulation documented in
//! ARCHITECTURE.md §1 — dispatch bytes for PIM-resident sources, per-entry
//! CPC/IPC bytes with 25 host instructions per forwarded entry,
//! straggler-dominated PIM steps, and the gather + reduce tail.
//!
//! *The labelled product loop.* A batch shares one `(node, state, query)`
//! frontier per hop: the owner of a `(node, state)` pair scans its row once
//! for all the queries standing on it, and routes one combined entry per
//! `(sender, node, state')`, carrying the member query ids when there is
//! more than one. The product oracle recomputes that rule with ordered maps.
//!
//! Both oracles work from the logical graph and the owner directory alone,
//! so any divergence in the engine's cost accounting (bytes *or* float
//! charge order) fails the test. The last property checks that a batch
//! never costs more than its sources run one at a time.

use graph_partition::PartitionAssignment;
use graph_store::{AdjacencyGraph, Label, NodeId, PartitionId};
use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem, QueryStats};
use pim_sim::{Phase, PimSystem, SimTime, Timeline};
use proptest::prelude::*;
use rpq::{Nfa, PlanStrategy, ReferenceEvaluator, RpqExpr};
use std::collections::{BTreeMap, BTreeSet};

const ENTRY_BYTES: u64 = 8;
const ID_BYTES: u64 = 8;
const LABEL_BYTES: u64 = 2;
const STATE_BYTES: u64 = 2;
const QUERY_ID_BYTES: u64 = 4;
/// A routed product entry: node id plus automaton state.
const PRODUCT_ENTRY_BYTES: u64 = ENTRY_BYTES + STATE_BYTES;
/// A label-constrained row scan reads the id and label arrays.
const PRODUCT_SCAN_BYTES: u64 = ID_BYTES + LABEL_BYTES;

/// Recomputes the query timeline from the logical graph and the owner
/// directory, following ARCHITECTURE.md §1 / the paper's execution plan
/// verbatim (sorted frontiers, `sort`+`dedup` per hop). Insert-only
/// workloads keep every heterogeneous-storage row free of free slots, so a
/// host row's byte size equals its out-degree × 8.
fn oracle_query_timeline(
    graph: &AdjacencyGraph,
    assignment: &PartitionAssignment,
    config: &MoctopusConfig,
    sources: &[NodeId],
    k: usize,
) -> (Vec<Vec<NodeId>>, Timeline, usize) {
    let mut pim = PimSystem::new(config.pim);
    let module_count = config.pim.num_modules;
    let mut timeline = Timeline::new();
    let mut expansions = 0usize;

    let host_resident_bytes = host_resident_bytes(graph, assignment);
    charge_dispatch(&pim, assignment, sources, ENTRY_BYTES, &mut timeline);

    let mut frontiers: Vec<Vec<NodeId>> = sources.iter().map(|&s| vec![s]).collect();
    for _hop in 0..k {
        let mut hop = HopCharges::new(module_count);
        let mut next_frontiers: Vec<Vec<NodeId>> = vec![Vec::new(); frontiers.len()];
        for (q, frontier) in frontiers.iter().enumerate() {
            let next = &mut next_frontiers[q];
            for &v in frontier {
                expansions += 1;
                let row_bytes = graph.neighbors(v).len() as u64 * ID_BYTES;
                match assignment.partition_of(v) {
                    Some(PartitionId::Host) => {
                        hop.host_time += pim.host_random_access_cost(1, host_resident_bytes)
                            + pim.host_sequential_read_cost(row_bytes);
                        for &(u, _) in graph.neighbors(v) {
                            if matches!(assignment.partition_of(u), Some(PartitionId::Pim(_))) {
                                hop.cpc_bytes += ENTRY_BYTES;
                            }
                            next.push(u);
                        }
                    }
                    Some(PartitionId::Pim(m)) => {
                        hop.per_module[m as usize] += pim.pim_hash_lookup_cost(row_bytes);
                        for &(u, _) in graph.neighbors(v) {
                            match assignment.partition_of(u) {
                                Some(PartitionId::Pim(m2)) if m2 == m => {}
                                Some(PartitionId::Pim(_)) => {
                                    hop.ipc_bytes += ENTRY_BYTES;
                                    hop.ipc_messages += 1;
                                }
                                _ => hop.cpc_bytes += ENTRY_BYTES,
                            }
                            next.push(u);
                        }
                    }
                    None => {}
                }
            }
            next.sort();
            next.dedup();
        }
        hop.charge(&mut pim, &mut timeline);
        frontiers = next_frontiers;
    }

    let matched_pairs: usize = frontiers.iter().map(Vec::len).sum();
    charge_gather_reduce(&pim, matched_pairs, &mut timeline);
    (frontiers, timeline, expansions)
}

/// Bytes resident on the host: insert-only workloads keep every
/// heterogeneous-storage row free of free slots, so each host row holds its
/// out-degree × 8 bytes.
fn host_resident_bytes(graph: &AdjacencyGraph, assignment: &PartitionAssignment) -> u64 {
    assignment
        .iter()
        .filter(|&(_, p)| p == PartitionId::Host)
        .map(|(n, _)| graph.neighbors(n).len() as u64 * ID_BYTES)
        .sum()
}

/// Source dispatch: `entry` bytes per PIM-resident source, one transfer.
fn charge_dispatch(
    pim: &PimSystem,
    assignment: &PartitionAssignment,
    sources: &[NodeId],
    entry: u64,
    timeline: &mut Timeline,
) {
    let bytes = sources
        .iter()
        .filter(|&&s| matches!(assignment.partition_of(s), Some(PartitionId::Pim(_))))
        .count() as u64
        * entry;
    timeline.charge(Phase::Cpc, pim.cpc_transfer_cost(bytes));
    timeline.transfers.record_cpu_to_pim(bytes, 1);
}

/// The gather of `matched_pairs` answers to the host and their reduction.
fn charge_gather_reduce(pim: &PimSystem, matched_pairs: usize, timeline: &mut Timeline) {
    let gather_bytes = matched_pairs as u64 * ENTRY_BYTES;
    timeline.charge(Phase::Cpc, pim.cpc_transfer_cost(gather_bytes));
    timeline.transfers.record_pim_to_cpu(gather_bytes, 1);
    timeline.charge(
        Phase::Reduce,
        pim.host_sequential_read_cost(gather_bytes)
            + pim.host_instructions_cost(matched_pairs as u64 * 8),
    );
}

/// What one hop accumulated, before it is charged to the timeline.
struct HopCharges {
    per_module: Vec<SimTime>,
    host_time: SimTime,
    cpc_bytes: u64,
    ipc_bytes: u64,
    ipc_messages: u64,
}

impl HopCharges {
    fn new(module_count: usize) -> Self {
        HopCharges {
            per_module: vec![SimTime::ZERO; module_count],
            host_time: SimTime::ZERO,
            cpc_bytes: 0,
            ipc_bytes: 0,
            ipc_messages: 0,
        }
    }

    /// The slowest module, the host compute, the CPC gather, and inter-PIM
    /// forwarding with 25 host instructions per forwarded entry.
    fn charge(self, pim: &mut PimSystem, timeline: &mut Timeline) {
        timeline.charge(Phase::PimCompute, pim.parallel_step(&self.per_module));
        timeline.charge(Phase::HostCompute, self.host_time);
        timeline.charge(Phase::Cpc, pim.cpc_transfer_cost(self.cpc_bytes));
        timeline.charge(
            Phase::Ipc,
            pim.ipc_transfer_cost(self.ipc_bytes)
                + pim.host_instructions_cost(self.ipc_messages * 25),
        );
        timeline.transfers.record_pim_to_cpu(self.cpc_bytes, 1);
        timeline.transfers.record_inter_pim(self.ipc_bytes, self.ipc_messages);
    }
}

/// What the product oracle recomputes for one labelled batch.
struct ProductOracle {
    results: Vec<Vec<NodeId>>,
    timeline: Timeline,
    hops: usize,
    expansions: usize,
    /// Combined entries with more than one member query that left their
    /// sender (a module-local entry crosses no bus).
    shared_routed: usize,
}

/// Recomputes a labelled `rpq_batch` under the shared-entry rule
/// (ARCHITECTURE.md §1), with ordered maps in place of the engine's sorted
/// vectors:
///
/// * the frontier maps each `(node, state)` pair to the queries standing on
///   it; its row is scanned once (`ID_BYTES + LABEL_BYTES` per slot), and a
///   pair with k > 1 queries pays k instructions per matched transition on
///   the computing node that expands it;
/// * every matched transition adds its member queries to the combined entry
///   `(sender, node, state')`, which is routed once: `ENTRY_BYTES +
///   STATE_BYTES`, plus `QUERY_ID_BYTES` per member when it has several;
/// * each query keeps its own visited set, so a combined entry's member is
///   a next-frontier entry only if the pair is new to that query.
fn oracle_product(
    graph: &AdjacencyGraph,
    assignment: &PartitionAssignment,
    config: &MoctopusConfig,
    nfa: &Nfa,
    sources: &[NodeId],
) -> ProductOracle {
    let mut pim = PimSystem::new(config.pim);
    let module_count = config.pim.num_modules;
    let mut timeline = Timeline::new();
    let host_resident_bytes = host_resident_bytes(graph, assignment);
    charge_dispatch(&pim, assignment, sources, PRODUCT_ENTRY_BYTES, &mut timeline);

    let start = nfa.start() as u32;
    let mut visited: Vec<BTreeSet<(NodeId, u32)>> =
        sources.iter().map(|&s| BTreeSet::from([(s, start)])).collect();
    let mut frontier: BTreeMap<(NodeId, u32), Vec<u32>> = BTreeMap::new();
    for (q, &s) in (0u32..).zip(sources) {
        frontier.entry((s, start)).or_default().push(q);
    }
    let (mut hops, mut expansions, mut shared_routed) = (0usize, 0usize, 0usize);
    while !frontier.is_empty() {
        hops += 1;
        let mut hop = HopCharges::new(module_count);
        let mut routes: BTreeMap<(PartitionId, NodeId, u32), BTreeSet<u32>> = BTreeMap::new();
        for (&(v, state), queries) in &frontier {
            expansions += queries.len();
            let Some(at) = assignment.partition_of(v) else { continue };
            let row = graph.neighbors(v);
            let bytes = row.len() as u64 * PRODUCT_SCAN_BYTES;
            let k = queries.len() as u64;
            let (slot, copy) = match at {
                PartitionId::Host => {
                    hop.host_time += pim.host_random_access_cost(1, host_resident_bytes)
                        + pim.host_sequential_read_cost(bytes);
                    (&mut hop.host_time, pim.host_instructions_cost(k))
                }
                PartitionId::Pim(m) => {
                    hop.per_module[m as usize] += pim.pim_hash_lookup_cost(bytes);
                    (&mut hop.per_module[m as usize], pim.pim_instructions_cost(k))
                }
            };
            for &(u, label) in row {
                for &(spec, next) in nfa.transitions_from(state as usize) {
                    if spec.matches(label) {
                        if k > 1 {
                            *slot += copy;
                        }
                        routes.entry((at, u, next as u32)).or_default().extend(queries);
                    }
                }
            }
        }
        let mut next: BTreeMap<(NodeId, u32), Vec<u32>> = BTreeMap::new();
        for ((at, u, state), members) in routes {
            let k = members.len() as u64;
            let bytes = match k {
                1 => PRODUCT_ENTRY_BYTES,
                _ => PRODUCT_ENTRY_BYTES + k * QUERY_ID_BYTES,
            };
            let routed = match (at, assignment.partition_of(u)) {
                (PartitionId::Pim(m), Some(PartitionId::Pim(m2))) if m == m2 => false,
                (PartitionId::Pim(_), Some(PartitionId::Pim(_))) => {
                    hop.ipc_bytes += bytes;
                    hop.ipc_messages += 1;
                    true
                }
                (PartitionId::Host, Some(PartitionId::Pim(_))) | (PartitionId::Pim(_), _) => {
                    hop.cpc_bytes += bytes;
                    true
                }
                (PartitionId::Host, _) => false,
            };
            shared_routed += usize::from(routed && k > 1);
            for q in members {
                if visited[q as usize].insert((u, state)) {
                    next.entry((u, state)).or_default().push(q);
                }
            }
        }
        for queries in next.values_mut() {
            queries.sort_unstable();
        }
        hop.charge(&mut pim, &mut timeline);
        frontier = next;
    }

    let results: Vec<Vec<NodeId>> = visited
        .iter()
        .map(|seen| {
            let nodes: BTreeSet<NodeId> = seen
                .iter()
                .filter(|&&(_, state)| nfa.is_accepting(state as usize))
                .map(|&(node, _)| node)
                .collect();
            nodes.into_iter().collect()
        })
        .collect();
    let matched_pairs = results.iter().map(Vec::len).sum();
    charge_gather_reduce(&pim, matched_pairs, &mut timeline);
    ProductOracle { results, timeline, hops, expansions, shared_routed }
}

fn engine_for(policy_id: usize, config: MoctopusConfig) -> MoctopusSystem {
    if policy_id == 0 {
        MoctopusSystem::new(config)
    } else {
        MoctopusSystem::pim_hash(config)
    }
}

/// Loads a graph into an engine of the requested policy and checks, for each
/// k, that results match the reference evaluator and that the timeline is
/// identical to the oracle's naive formulation.
fn check_engine(graph: &AdjacencyGraph, policy_id: usize) -> Result<(), TestCaseError> {
    let config = MoctopusConfig::small_test();
    let mut edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
    edges.sort();
    let mut engine = engine_for(policy_id, config);
    engine.insert_edges(&edges);
    if policy_id == 0 {
        engine.refine_locality();
    }
    let reference = ReferenceEvaluator::new(graph);
    // A spread of known sources plus one id outside the graph (no-op path).
    let mut sources: Vec<NodeId> = (0..24u64).map(NodeId).collect();
    sources.push(NodeId(1 << 40));
    for k in 1..=3usize {
        let (got, stats): (Vec<Vec<NodeId>>, QueryStats) = engine.k_hop_batch(&sources, k);
        let want = reference.k_hop(&sources, k);
        for (g, w) in got.iter().zip(want.iter()) {
            let w: Vec<NodeId> = w.iter().copied().collect();
            prop_assert_eq!(g, &w, "result mismatch at k = {}", k);
        }
        let (oracle_results, oracle_timeline, oracle_expansions) =
            oracle_query_timeline(graph, engine.assignment(), engine.config(), &sources, k);
        prop_assert_eq!(&got, &oracle_results, "oracle frontier mismatch at k = {}", k);
        prop_assert_eq!(
            stats.timeline.transfers,
            oracle_timeline.transfers,
            "transfer counters diverge at k = {}",
            k
        );
        for phase in Phase::ALL {
            prop_assert_eq!(
                stats.timeline.time(phase),
                oracle_timeline.time(phase),
                "phase {} charge diverges at k = {}",
                phase,
                k
            );
        }
        prop_assert_eq!(stats.expansions, oracle_expansions);
        prop_assert_eq!(stats.matched_pairs, got.iter().map(Vec::len).sum::<usize>());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Uniform graphs, both placement policies.
    #[test]
    fn uniform_graphs_match_reference_and_cost_oracle(
        nodes in 60usize..320,
        degree_tenths in 10u32..60,
        seed in 0u64..1000,
        policy_id in 0usize..2,
    ) {
        let graph = graph_gen::uniform::generate(nodes, degree_tenths as f64 / 10.0, seed);
        check_engine(&graph, policy_id)?;
    }

    /// Power-law (skewed, hub-promoting) graphs, both placement policies.
    #[test]
    fn power_law_graphs_match_reference_and_cost_oracle(
        nodes in 120usize..500,
        hub_percent in 0u32..6,
        seed in 0u64..1000,
        policy_id in 0usize..2,
    ) {
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes,
            high_degree_fraction: hub_percent as f64 / 100.0,
            ..Default::default()
        };
        let graph = graph_gen::powerlaw::generate(&cfg, seed);
        check_engine(&graph, policy_id)?;
    }
}

/// Product-loop shapes (none is a plain k-hop): closures, chains,
/// alternation, optional and any-label steps.
const PRODUCT_QUERIES: [&str; 8] =
    ["1+", "1*/2", "(1|2)+/3", "1/2/3", "(1|2|3)*", "1?/2+", "./1*", "2/1+/3?"];

/// A deterministic splitmix64 stream for the generators below.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// A labelled graph whose queries converge: a label-1 cycle over the first
/// `cycle` nodes, random edges with labels 1..=3, and one hub with 24
/// out-edges (past the labor-division threshold, so Moctopus serves it from
/// the host). Returns the logical graph and the edge stream in insertion
/// order.
fn labelled_graph(
    nodes: u64,
    cycle: u64,
    degree_tenths: u64,
    seed: u64,
) -> (AdjacencyGraph, Vec<(NodeId, NodeId, Label)>) {
    let mut mix = Mix(seed);
    let mut edges: Vec<(NodeId, NodeId, Label)> =
        (0..cycle).map(|i| (NodeId(i), NodeId((i + 1) % cycle), Label(1))).collect();
    for _ in 0..nodes * degree_tenths / 10 {
        let (s, d) = (mix.below(nodes), mix.below(nodes));
        edges.push((NodeId(s), NodeId(d), Label(mix.below(3) as u16 + 1)));
    }
    let hub = nodes - 1;
    for _ in 0..24 {
        edges.push((NodeId(hub), NodeId(mix.below(nodes)), Label(mix.below(3) as u16 + 1)));
    }
    let mut graph = AdjacencyGraph::new();
    for &(s, d, l) in &edges {
        graph.insert_edge(s, d, l);
    }
    (graph, edges)
}

/// A batch with sources on the cycle, random sources, repeats of earlier
/// sources, the hub, and one id outside the graph.
fn converging_batch(nodes: u64, cycle: u64, seed: u64) -> Vec<NodeId> {
    let mut mix = Mix(seed ^ 0x5eed);
    let mut sources: Vec<NodeId> =
        (0..4 + mix.below(6)).map(|_| NodeId(mix.below(cycle))).collect();
    sources.extend((0..4 + mix.below(6)).map(|_| NodeId(mix.below(nodes))));
    for _ in 0..3 {
        let again = sources[mix.below(sources.len() as u64) as usize];
        sources.push(again);
    }
    sources.push(NodeId(nodes - 1));
    sources.push(NodeId(1 << 40));
    sources
}

/// Loads the labelled stream into an engine of the requested policy
/// (greedy-adaptive refined once, as in the experiment harness).
fn labelled_engine(policy_id: usize, edges: &[(NodeId, NodeId, Label)]) -> MoctopusSystem {
    let mut engine = engine_for(policy_id, MoctopusConfig::small_test());
    engine.insert_labeled_edges(edges);
    engine.refine_locality();
    engine
}

/// Checks every product query's answers against the reference evaluator and
/// its counters and full timeline against the product oracle. Returns the
/// number of routed combined entries with more than one member query.
fn check_product(
    graph: &AdjacencyGraph,
    edges: &[(NodeId, NodeId, Label)],
    policy_id: usize,
    sources: &[NodeId],
) -> Result<usize, TestCaseError> {
    let mut engine = labelled_engine(policy_id, edges);
    let reference = ReferenceEvaluator::new(graph);
    let mut shared_routed = 0usize;
    for text in PRODUCT_QUERIES {
        let expr = rpq::parser::parse(text).expect("product queries parse");
        prop_assert!(expr.as_k_hop().is_none(), "{} takes the k-hop loop", text);
        let (got, stats) = engine.rpq_batch(&expr, sources);
        let want: Vec<Vec<NodeId>> = reference
            .evaluate(&expr, sources)
            .into_iter()
            .map(|answer| answer.into_iter().collect())
            .collect();
        prop_assert_eq!(&got, &want, "{} answers diverge from the reference", text);

        let oracle = oracle_product(
            graph,
            engine.assignment(),
            engine.config(),
            &Nfa::from_expr(&expr),
            sources,
        );
        prop_assert_eq!(&got, &oracle.results, "{} answers diverge from the oracle", text);
        prop_assert_eq!(stats.batch_size, sources.len());
        prop_assert_eq!(stats.hops, oracle.hops, "{} hops", text);
        prop_assert_eq!(stats.expansions, oracle.expansions, "{} expansions", text);
        prop_assert_eq!(stats.matched_pairs, got.iter().map(Vec::len).sum::<usize>());
        prop_assert_eq!(
            stats.timeline.transfers,
            oracle.timeline.transfers,
            "{} transfer counters diverge",
            text
        );
        for phase in Phase::ALL {
            prop_assert_eq!(
                stats.timeline.time(phase),
                oracle.timeline.time(phase),
                "{} phase {} charge diverges",
                text,
                phase
            );
        }
        shared_routed += oracle.shared_routed;
    }
    Ok(shared_routed)
}

/// Runs every product query under every plan as one batch, as an empty
/// batch, and one source at a time: the batch answers are the per-source
/// answers, its counters add up, and it costs no more than the singles.
///
/// A leg that does not depend on the sources (the split plan's suffix leg,
/// which starts from the pivot label's sources) runs once per call, so the
/// empty batch's expansions are counted once in the batch and once in every
/// single.
fn check_subadditive(
    edges: &[(NodeId, NodeId, Label)],
    policy_id: usize,
    sources: &[NodeId],
) -> Result<(), TestCaseError> {
    let mut engine = labelled_engine(policy_id, edges);
    let strategies = [
        PlanStrategy::Forward,
        PlanStrategy::Bidirectional,
        PlanStrategy::RareLabelSplit { split_at: 1 },
    ];
    for text in PRODUCT_QUERIES {
        let expr: RpqExpr = rpq::parser::parse(text).expect("product queries parse").normalize();
        for strategy in strategies {
            let plan = strategy.describe();
            let (batch, stats) = engine.rpq_batch_planned(&expr, sources, strategy);
            let (_, empty) = engine.rpq_batch_planned(&expr, &[], strategy);
            let (mut latency, mut expansions, mut matched_pairs) = (0.0f64, 0usize, 0usize);
            for (answer, &s) in batch.iter().zip(sources) {
                let (one, single) = engine.rpq_batch_planned(&expr, &[s], strategy);
                prop_assert_eq!(
                    answer,
                    &one[0],
                    "{} under {}: batch answer for {:?}",
                    text,
                    plan,
                    s
                );
                latency += single.latency().as_nanos();
                expansions += single.expansions;
                matched_pairs += single.matched_pairs;
            }
            prop_assert_eq!(stats.matched_pairs, matched_pairs, "{} under {}", text, plan);
            prop_assert_eq!(
                stats.expansions + (sources.len() - 1) * empty.expansions,
                expansions,
                "{} under {}: expansions do not add up",
                text,
                plan
            );
            prop_assert!(
                stats.latency().as_nanos() <= latency * (1.0 + 1e-9),
                "{} under {}: batch costs {} ns, its sources alone {} ns",
                text,
                plan,
                stats.latency().as_nanos(),
                latency
            );
        }
    }
    Ok(())
}

/// A fixed converging batch routes shared entries on both placements, so
/// the oracle's k > 1 rule is exercised, not only its k = 1 case.
#[test]
fn converging_batches_route_shared_entries() {
    for policy_id in 0..2 {
        let (graph, edges) = labelled_graph(90, 12, 25, 7);
        let sources = converging_batch(90, 12, 7);
        let shared = check_product(&graph, &edges, policy_id, &sources).expect("oracle agrees");
        assert!(shared > 0, "policy {policy_id}: no routed entry was shared by two queries");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Labelled graphs with a cycle and a hub, both placement policies.
    #[test]
    fn labelled_batches_match_reference_and_product_oracle(
        nodes in 30u64..140,
        cycle in 6u64..24,
        degree_tenths in 10u64..40,
        seed in 0u64..1000,
        policy_id in 0usize..2,
    ) {
        let (graph, edges) = labelled_graph(nodes, cycle, degree_tenths, seed);
        check_product(&graph, &edges, policy_id, &converging_batch(nodes, cycle, seed))?;
    }

    /// Both placement policies, all three plans.
    #[test]
    fn batches_cost_no_more_than_their_sources_alone(
        nodes in 30u64..100,
        cycle in 6u64..20,
        degree_tenths in 10u64..35,
        seed in 0u64..1000,
        policy_id in 0usize..2,
    ) {
        let (_, edges) = labelled_graph(nodes, cycle, degree_tenths, seed);
        check_subadditive(&edges, policy_id, &converging_batch(nodes, cycle, seed))?;
    }
}
