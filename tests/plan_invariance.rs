//! Plan invariance, property-tested: for *random* expressions served over
//! *random* labelled graphs with interleaved labelled updates, the plan that
//! serves a query must be invisible in its **answer**. The server executes
//! the optimizer's chosen plan, so served `QueryStats` are that plan's own
//! (deterministic: the choice is a pure function of label statistics); what
//! stays pinned is:
//!
//! * results are bit-identical with the optimizer on and off, in every cache
//!   consistency mode and with the cache disabled;
//! * with the optimizer on, cached serving equals uncached serving — results
//!   in every mode, stats too under `CostExact` (the footprints the server
//!   gives planned executions are sound);
//! * each forced strategy serves byte-identical responses at every
//!   (threads, shards) cell, and the strategies agree on every answer;
//! * the chosen plan's simulated cost never exceeds the forward plan's
//!   (left-to-right execution is always a candidate and wins ties), and
//! * every strategy's rewritten spelling normalizes back to the exact tree it
//!   was derived from, so a plan rewrite can never split a cache row.

use graph_store::{Label, NodeId};
use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem, QueryStats};
use moctopus_server::{
    CacheConfig, ConsistencyMode, QueryServer, Request, RequestKind, Response, ResponseBody,
    ServeTotals, ServerConfig, ShardPlan, ShardedEngine,
};
use proptest::prelude::*;
use rpq::{choose_plan, rewritten_for, PlanStrategy, RpqExpr};

mod common;
use common::{model, ArbExpr};

/// A request log interleaving queries from the sampled expression pool with
/// labelled inserts and deletes (every 4th request mutates), so plans are
/// chosen against statistics that drift mid-replay.
fn request_log(
    model: &graph_store::AdjacencyGraph,
    pool: &[RpqExpr],
    seed: u64,
    len: usize,
) -> Vec<Request> {
    let inserts = graph_gen::stream::sample_new_edges(model, len * 2, seed ^ 0x5151);
    let mut deletes = graph_gen::labels::labeled_edge_stream(model);
    deletes.truncate(len * 2);
    let sources: Vec<NodeId> = graph_gen::stream::sample_start_nodes(model, 16, seed ^ 0x9292);

    (0..len)
        .map(|i| {
            let at = (i + 1) as u64;
            let kind = match i % 8 {
                3 => RequestKind::Insert {
                    edges: inserts
                        .iter()
                        .skip(i)
                        .take(3)
                        .enumerate()
                        .map(|(j, &(s, d))| (s, d, Label((j % 8) as u16 + 1)))
                        .collect(),
                },
                7 => RequestKind::Delete {
                    edges: deletes.iter().skip(i / 2).take(3).copied().collect(),
                },
                q => RequestKind::Query {
                    expr: pool[(q + i / 8) % pool.len()].clone(),
                    sources: sources.iter().skip(i % 6).take(8).copied().collect(),
                },
            };
            Request { at, kind }
        })
        .collect()
}

/// Replays `log` on a fresh engine; when `optimize` is set, additionally
/// checks the one-sided cost bound after every executed query.
fn replay(
    edges: &[(NodeId, NodeId, Label)],
    cache: Option<CacheConfig>,
    optimize: bool,
    log: &[Request],
) -> Result<(Vec<Response>, ServeTotals, Option<moctopus_server::CacheStats>), TestCaseError> {
    let cfg = MoctopusConfig::small_test();
    let mut engine = MoctopusSystem::new(cfg);
    engine.insert_labeled_edges(edges);
    engine.refine_locality();
    let mut server = QueryServer::new(
        Box::new(engine),
        ServerConfig { cache, pricing: cfg, optimize, plan_override: None },
    );
    let mut responses = Vec::with_capacity(log.len());
    for request in log {
        let is_query = matches!(request.kind, RequestKind::Query { .. });
        responses.push(server.execute_next(request.clone()));
        if optimize && is_query {
            if let Some(plan) = server.last_plan() {
                prop_assert!(
                    plan.chosen_cost <= plan.forward_cost,
                    "chosen plan {:?} scored {} above forward {}",
                    plan.strategy,
                    plan.chosen_cost,
                    plan.forward_cost
                );
            }
        }
    }
    let stats = server.cache_stats();
    Ok((responses, server.totals(), stats))
}

/// The query answers of a replay, in log order (updates map to `None`).
fn answers(responses: &[Response]) -> Vec<Option<&[Vec<NodeId>]>> {
    responses.iter().map(Response::results).collect()
}

/// A query response's served stats (`None` for updates).
fn query_stats(response: &Response) -> Option<QueryStats> {
    match response.body {
        ResponseBody::Query { stats, .. } => Some(stats),
        ResponseBody::Update { .. } => None,
    }
}

/// Replays `log` through a sharded serving plane with a forced served
/// strategy ([`ServerConfig::plan_override`]) at a (threads, shards) cell.
fn forced_replay(
    edges: &[(NodeId, NodeId, Label)],
    log: &[Request],
    threads: usize,
    shards: usize,
    strategy: PlanStrategy,
) -> (Vec<Response>, ServeTotals) {
    let cfg = MoctopusConfig::small_test().with_threads(threads);
    let replicas: Vec<Box<dyn GraphEngine + Send>> = (0..shards)
        .map(|_| {
            let mut e = MoctopusSystem::new(cfg);
            e.insert_labeled_edges(edges);
            e.refine_locality();
            Box::new(e) as Box<dyn GraphEngine + Send>
        })
        .collect();
    let engine =
        ShardedEngine::new(replicas, ShardPlan::hashed(ShardPlan::DEFAULT_GROUPS), threads);
    let mut server = QueryServer::new(
        Box::new(engine),
        ServerConfig {
            cache: Some(CacheConfig::default()),
            pricing: cfg,
            optimize: false,
            plan_override: Some(strategy),
        },
    );
    let responses = log.iter().map(|request| server.execute_next(request.clone())).collect();
    (responses, server.totals())
}

/// The **executed**-plan leg: a forced-forward, a forced-bidirectional, and a
/// forced-rare-split replay of one request log — the non-forward strategies
/// really serving over the reverse adjacency indexes — each serve
/// bit-identical responses and totals at threads {1, 4} × shards {1, 2}
/// (compared with their own 1-thread, 1-shard run), and all three
/// strategies serve identical answers.
#[test]
fn forced_plan_execution_is_byte_invariant_across_threads_and_shards() {
    let model = model(90, 42);
    let edges = graph_gen::labels::labeled_edge_stream(&model);
    // A fixed pool biased toward the shapes the strategies were built for:
    // closures over the rare tail labels (bidirectional's home turf) and
    // concatenations with an exact pivot (rare-split's), plus generic forms.
    let pool: Vec<RpqExpr> = ["(1)+/8", "(1)*/8", "1/8/4", "(1|2)*", "1/(2|3)*/1", "2/8"]
        .iter()
        .map(|text| rpq::parser::parse(text).expect("pool patterns parse"))
        .collect();
    let log = request_log(&model, &pool, 42, 40);

    let strategies = [
        PlanStrategy::Forward,
        PlanStrategy::Bidirectional,
        PlanStrategy::RareLabelSplit { split_at: 1 },
    ];
    let (forward, _) = forced_replay(&edges, &log, 1, 1, PlanStrategy::Forward);
    for strategy in strategies {
        let (want, want_totals) = forced_replay(&edges, &log, 1, 1, strategy);
        assert_eq!(
            answers(&want),
            answers(&forward),
            "forced {strategy:?} answered differently from forced forward"
        );
        assert_eq!(want_totals.shadow_mismatches, 0);
        if strategy == PlanStrategy::Forward {
            assert_eq!(want_totals.shadow_chosen_time, pim_sim::SimTime::ZERO);
        } else {
            assert!(
                want_totals.shadow_chosen_time > pim_sim::SimTime::ZERO,
                "forced {strategy:?} never served a planned execution"
            );
        }
        for threads in [1usize, 4] {
            for shards in [1usize, 2] {
                let (got, totals) = forced_replay(&edges, &log, threads, shards, strategy);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        g.body, w.body,
                        "forced {strategy:?} served different bytes at t={} \
                         (threads {threads}, shards {shards})",
                        w.at
                    );
                }
                assert_eq!(
                    totals, want_totals,
                    "forced {strategy:?} totals moved (threads {threads}, shards {shards})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Optimizer-off vs optimizer-on replays of the same log serve
    /// identical answers and the same result-derived totals, in all three
    /// consistency modes and with the cache disabled; and with the optimizer
    /// on, every cached replay equals the uncached one — answers in every
    /// mode, stats too under `CostExact`.
    #[test]
    fn optimizer_is_invisible_and_never_regresses(
        seed in 0u64..200,
        nodes in 50usize..120,
        pool in prop::collection::vec(ArbExpr, 3..6),
    ) {
        let model = model(nodes, seed);
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let log = request_log(&model, &pool, seed, 32);
        let configs: Vec<Option<CacheConfig>> = std::iter::once(None)
            .chain(
                [ConsistencyMode::CostExact, ConsistencyMode::ResultExact, ConsistencyMode::RowExact]
                    .into_iter()
                    .map(|mode| Some(CacheConfig { mode, capacity: 32 })),
            )
            .collect();
        let (uncached, _, _) = replay(&edges, None, true, &log)?;
        for cache in configs {
            let mode = cache.map(|c| c.mode);
            let (want, want_totals, _) = replay(&edges, cache, false, &log)?;
            let (got, got_totals, _) = replay(&edges, cache, true, &log)?;
            prop_assert_eq!(answers(&got), answers(&want), "optimizer visible in answers ({:?})", mode);
            prop_assert!(got_totals.planned > 0, "optimizer-enabled replay never planned");
            prop_assert_eq!(want_totals.planned, 0, "optimizer-off replay must not plan");
            prop_assert_eq!(got_totals.shadow_mismatches, 0);
            prop_assert_eq!(
                (got_totals.queries, got_totals.updates, got_totals.matched_pairs),
                (want_totals.queries, want_totals.updates, want_totals.matched_pairs),
                "result-derived totals diverged ({:?})",
                mode
            );
            // Cache on == cache off, both optimizer-on (SERVING.md §9 rule 4).
            for (g, w) in got.iter().zip(&uncached) {
                prop_assert_eq!(g.results(), w.results(), "stale answer at t={} ({:?})", w.at, mode);
                if mode == Some(ConsistencyMode::CostExact) {
                    prop_assert_eq!(query_stats(g), query_stats(w), "stale stats at t={} ({:?})", w.at, mode);
                }
            }
        }
    }

    /// Every strategy's raw-constructor respelling of a random normalized
    /// expression collapses back to that exact tree, and plan choice is a
    /// deterministic pure function of (expression, statistics, batch size)
    /// that never scores its pick above the forward plan.
    #[test]
    fn rewrites_collapse_and_plans_never_regress(
        seed in 0u64..200,
        batch in 1usize..64,
        expr in ArbExpr,
    ) {
        let model = model(80, seed);
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let cfg = MoctopusConfig::small_test();
        let mut engine = MoctopusSystem::new(cfg);
        engine.insert_labeled_edges(&edges);
        let stats = engine.label_stats();

        let normalized = expr.normalize();
        let choice = choose_plan(&normalized, &stats, batch);
        prop_assert!(choice.chosen_cost <= choice.forward_cost);
        prop_assert_eq!(choose_plan(&normalized, &stats, batch), choice, "plan choice not deterministic");

        let mut strategies = vec![PlanStrategy::Forward, PlanStrategy::Bidirectional];
        if let RpqExpr::Concat(parts) = &normalized {
            strategies.extend((1..parts.len()).map(|split_at| PlanStrategy::RareLabelSplit { split_at }));
        }
        // Degenerate split positions must also collapse, not crash.
        strategies.push(PlanStrategy::RareLabelSplit { split_at: 0 });
        strategies.push(PlanStrategy::RareLabelSplit { split_at: 99 });
        for strategy in strategies {
            let respelled = rewritten_for(&normalized, strategy);
            prop_assert_eq!(
                respelled.normalize(),
                normalized.clone(),
                "strategy {:?} changed the normal form",
                strategy
            );
        }
    }
}
