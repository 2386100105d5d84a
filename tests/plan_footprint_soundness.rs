//! Direct soundness of the dependency footprints the server gives its cache
//! entries when plans other than forward serve queries (SERVING.md §3.5).
//!
//! `tests/serve_cache_equivalence.rs` proves footprints sound indirectly:
//! cache-on replays equal cache-off replays. This test asks the question
//! itself. Over random labelled graphs, random expressions and random
//! update batches — in all three consistency modes, with the optimizer on
//! and with each strategy forced through `ServerConfig::plan_override` —
//! it probes every cached key after every update. Every probe that hits
//! found an entry the update kept; a fresh uncached server with the same
//! settings, built on the updated graph, must then return identical
//! results, and under `CostExact` identical stats.

use graph_store::{Label, NodeId};
use moctopus::{DepMask, GraphEngine, MoctopusConfig, MoctopusSystem};
use moctopus_server::{
    CacheConfig, CacheOutcome, ConsistencyMode, QueryServer, Request, RequestKind, ResponseBody,
    ServerConfig,
};
use proptest::prelude::*;
use rpq::{PlanStrategy, RpqExpr};

mod common;
use common::{model, ArbExpr};

/// The serving settings under test: the optimizer's own choice, then each
/// strategy forced.
const PLANS: [(bool, Option<PlanStrategy>); 4] = [
    (true, None),
    (false, Some(PlanStrategy::Forward)),
    (false, Some(PlanStrategy::Bidirectional)),
    (false, Some(PlanStrategy::RareLabelSplit { split_at: 1 })),
];

/// A server over a fresh engine loaded with `edges`, then `updates` applied
/// through the serving path.
fn server(
    edges: &[(NodeId, NodeId, Label)],
    cache: Option<CacheConfig>,
    (optimize, plan_override): (bool, Option<PlanStrategy>),
    updates: &[RequestKind],
) -> QueryServer {
    let cfg = MoctopusConfig::small_test();
    let mut engine = MoctopusSystem::new(cfg);
    engine.insert_labeled_edges(edges);
    engine.refine_locality();
    let mut server = QueryServer::new(
        Box::new(engine),
        ServerConfig { cache, pricing: cfg, optimize, plan_override },
    );
    for (at, kind) in updates.iter().enumerate() {
        server.execute_next(Request { at: at as u64, kind: kind.clone() });
    }
    server
}

/// Random update batches: labelled inserts of new edges and deletes of
/// stored ones, two or three edges each.
fn update_batches(
    model: &graph_store::AdjacencyGraph,
    seed: u64,
    count: usize,
) -> Vec<RequestKind> {
    let inserts = graph_gen::stream::sample_new_edges(model, count * 3, seed ^ 0x7171);
    let stored = graph_gen::labels::labeled_edge_stream(model);
    (0..count)
        .map(|i| {
            let width = 2 + (seed as usize + i) % 2;
            if i % 3 == 2 {
                let start = (seed as usize * 7 + i * 13) % stored.len().max(1);
                RequestKind::Delete {
                    edges: stored.iter().cycle().skip(start).take(width).copied().collect(),
                }
            } else {
                RequestKind::Insert {
                    edges: inserts
                        .iter()
                        .skip(i * 3)
                        .take(width)
                        .enumerate()
                        .map(|(j, &(s, d))| (s, d, Label(((seed as usize + i + j) % 8) as u16 + 1)))
                        .collect(),
                }
            }
        })
        .collect()
}

/// Serves `key` as a query at `at` and returns the response body.
fn answer(server: &mut QueryServer, at: u64, key: &(RpqExpr, Vec<NodeId>)) -> ResponseBody {
    let kind = RequestKind::Query { expr: key.0.clone(), sources: key.1.clone() };
    server.execute_next(Request { at, kind }).body
}

/// Runs the probe-after-every-update loop for one (mode, plan) setting and
/// returns how many cached entries survived an update (and were checked).
fn check_setting(
    edges: &[(NodeId, NodeId, Label)],
    pool: &[RpqExpr],
    batches: &[Vec<NodeId>],
    updates: &[RequestKind],
    mode: ConsistencyMode,
    plan: (bool, Option<PlanStrategy>),
) -> Result<u64, TestCaseError> {
    let cache = Some(CacheConfig { mode, capacity: 4096 });
    let mut cached = server(edges, cache, plan, &[]);
    // Row mode caches per (expression, source): fill it with whole batches,
    // probe it row by row, so every probe names exactly one entry.
    let fills: Vec<(RpqExpr, Vec<NodeId>)> =
        pool.iter().flat_map(|e| batches.iter().map(move |b| (e.clone(), b.clone()))).collect();
    let probes: Vec<(RpqExpr, Vec<NodeId>)> = if mode == ConsistencyMode::RowExact {
        let mut rows: Vec<NodeId> = batches.concat();
        rows.sort_unstable();
        rows.dedup();
        pool.iter().flat_map(|e| rows.iter().map(move |&s| (e.clone(), vec![s]))).collect()
    } else {
        fills.clone()
    };
    let mut at = 1_000u64;
    for key in &fills {
        at += 1;
        answer(&mut cached, at, key);
    }
    let mut survived = 0u64;
    for (applied, update) in updates.iter().enumerate() {
        at += 1;
        cached.execute_next(Request { at, kind: update.clone() });
        let mut fresh = server(edges, None, plan, &updates[..=applied]);
        for key in &probes {
            at += 1;
            let ResponseBody::Query { results, stats, cache } = answer(&mut cached, at, key) else {
                unreachable!("a query answers with a query body")
            };
            if cache != CacheOutcome::Hit {
                continue;
            }
            survived += 1;
            let ResponseBody::Query { results: want, stats: want_stats, .. } =
                answer(&mut fresh, at, key)
            else {
                unreachable!("a query answers with a query body")
            };
            prop_assert_eq!(
                &results,
                &want,
                "{:?} {:?}: entry for {} kept across update {} serves a stale answer",
                mode,
                plan,
                key.0,
                applied
            );
            if mode == ConsistencyMode::CostExact {
                prop_assert_eq!(
                    stats,
                    want_stats,
                    "{:?} {:?}: entry for {} kept across update {} serves stale stats",
                    mode,
                    plan,
                    key.0,
                    applied
                );
            }
        }
    }
    Ok(survived)
}

/// The label-statistics coupling, pinned deterministically: an update
/// *disjoint* from a cached forward entry's traversal footprint can still
/// flip the plan a re-execution would choose — deleting far-away label-8
/// edges makes `1+/8` cheaper backward — and with it the stats a fresh
/// execution reports. Under `CostExact` with the optimizer on, the entry
/// must therefore not survive that update (every such entry carries the
/// "touched everything" footprint); whatever the cache does, the re-query
/// must equal a fresh uncached server's answer and stats.
#[test]
fn a_plan_flipping_disjoint_update_never_serves_stale_stats() {
    let expr = rpq::parser::parse("(1)+/8").expect("pattern parses").normalize();
    let sources = vec![NodeId(0), NodeId(5), NodeId(9)];
    // A label-1 ring with chords and a single label-8 exit.
    let n = 48u64;
    let mut main: Vec<(NodeId, NodeId, Label)> = (0..n)
        .flat_map(|i| {
            [
                (NodeId(i), NodeId((i + 1) % n), Label(1)),
                (NodeId(i), NodeId((i * 5 + 2) % n), Label(1)),
            ]
        })
        .collect();
    main.push((NodeId(40), NodeId(41), Label(8)));

    // The forward traversal's footprint over the main component.
    let cfg = MoctopusConfig::small_test();
    let mut probe = MoctopusSystem::new(cfg);
    probe.insert_labeled_edges(&main);
    let (_, _, deps) = probe.rpq_batch_tracked(&expr, &sources);
    let bucket = |id: u64| {
        let mut m = DepMask::EMPTY;
        m.insert(NodeId(id));
        m
    };
    // Far nodes whose dependency buckets the traversal never touched, so a
    // far update's footprint is disjoint from the entry's.
    let far: Vec<u64> =
        (1_000_000u64..).filter(|&id| !deps.nodes.intersects(bucket(id))).take(1024).collect();
    assert!(!deps.host_lane, "the main component must stay off the host lane");

    // The smallest far label-8 matching under which forward wins, while the
    // main component alone prefers a non-forward plan.
    let plan_with = |far_edges: &[(NodeId, NodeId, Label)]| {
        let mut engine = MoctopusSystem::new(cfg);
        engine.insert_labeled_edges(&main);
        engine.insert_labeled_edges(far_edges);
        rpq::choose_plan(&expr, &engine.label_stats(), sources.len()).strategy
    };
    assert_ne!(
        plan_with(&[]),
        PlanStrategy::Forward,
        "the rare exit must favour a non-forward plan"
    );
    let far_edges = (2..=9)
        .map(|k| {
            (0..1usize << k)
                .map(|i| (NodeId(far[2 * i]), NodeId(far[2 * i + 1]), Label(8)))
                .collect::<Vec<_>>()
        })
        .find(|edges| plan_with(edges) == PlanStrategy::Forward)
        .expect("enough far label-8 edges make forward the cheapest plan");

    let mut graph = main.clone();
    graph.extend(&far_edges);
    let delete = RequestKind::Delete { edges: far_edges.clone() };
    let key = (expr.clone(), sources.clone());
    let cache = Some(CacheConfig { mode: ConsistencyMode::CostExact, capacity: 64 });
    let mut cached = server(&graph, cache, (true, None), &[]);
    answer(&mut cached, 1, &key);
    assert_eq!(cached.last_plan().map(|p| p.strategy), Some(PlanStrategy::Forward));
    cached.execute_next(Request { at: 2, kind: delete.clone() });
    let ResponseBody::Query { results, stats, .. } = answer(&mut cached, 3, &key) else {
        unreachable!("a query answers with a query body")
    };

    let mut fresh = server(&graph, None, (true, None), &[delete]);
    let ResponseBody::Query { results: want, stats: want_stats, .. } = answer(&mut fresh, 3, &key)
    else {
        unreachable!("a query answers with a query body")
    };
    assert_ne!(fresh.last_plan().map(|p| p.strategy), Some(PlanStrategy::Forward), "plan flipped");
    assert_eq!(results, want, "stale answer after a plan-flipping update");
    assert_eq!(stats, want_stats, "stale stats after a plan-flipping update");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every entry a cache keeps across an update answers exactly what a
    /// fresh uncached server on the updated graph answers — in every mode,
    /// under every served plan.
    #[test]
    fn kept_entries_equal_fresh_uncached_execution(
        seed in 0u64..500,
        nodes in 40usize..90,
        random in prop::collection::vec(ArbExpr, 2..4),
    ) {
        let model = model(nodes, seed);
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        // The random expressions, plus the rare-label closure and chain the
        // non-forward strategies were built for.
        let mut pool: Vec<RpqExpr> = ["(1)+/8", "1/8/4"]
            .iter()
            .map(|text| rpq::parser::parse(text).expect("pool patterns parse"))
            .collect();
        pool.extend(random.into_iter().map(|e| e.normalize()));
        let starts = graph_gen::stream::sample_start_nodes(&model, 8, seed ^ 0x3c3c);
        let batches = vec![starts[..5].to_vec(), starts[3..].to_vec()];
        let updates = update_batches(&model, seed, 5);

        let mut survived = 0u64;
        for mode in [ConsistencyMode::CostExact, ConsistencyMode::ResultExact, ConsistencyMode::RowExact] {
            for plan in PLANS {
                survived += check_setting(&edges, &pool, &batches, &updates, mode, plan)?;
            }
        }
        prop_assert!(survived > 0, "no entry ever survived an update: the check is vacuous");
    }
}
