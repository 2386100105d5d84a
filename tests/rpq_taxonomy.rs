//! The full PathForge AQ1–AQ28 conformance taxonomy, instantiated over the
//! repository's Zipf label mix: `a` is the most common label (1), `b` the
//! rarest (8), `c` a mid-rank label (4), per `LabelMixConfig::default()`'s
//! Zipf ranking (PathForge's `.` concatenation is this syntax's `/`).
//!
//! Three pinned surfaces:
//!
//! * **Agreement** — every AQ answers identically on all three engines, the
//!   reference evaluator, and a serving layer with the plan optimizer on and
//!   off, at 1 and 4 threads, on uniform and power-law labelled graphs.
//! * **Plan invariance** — the optimizer's choice is never visible in an
//!   answer; the served stats are the chosen plan's own, its priced cost
//!   never exceeds the left-to-right plan's, and neither does its executed
//!   cost.
//! * **Normal forms** — the canonical spelling and structural fingerprint of
//!   every AQ pattern is pinned; cache keying depends on both.

use graph_gen::labels::{relabel, LabelMixConfig};
use graph_store::{AdjacencyGraph, Label, NodeId};
use moctopus::{GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem, PimHashSystem};
use moctopus_bench::AQ_TAXONOMY as AQS;
use moctopus_server::{
    CacheConfig, CacheOutcome, QueryServer, Request, RequestKind, ResponseBody, ServerConfig,
};
use rpq::{parser, ReferenceEvaluator};

/// The two graph families the taxonomy sweeps (fixed seeds: this test pins
/// behaviour, it does not explore).
fn models() -> Vec<(&'static str, AdjacencyGraph)> {
    let mix = LabelMixConfig::default();
    let uniform = relabel(&graph_gen::uniform::generate(110, 3.5, 13), &mix, 13);
    let plaw_cfg = graph_gen::powerlaw::PowerLawConfig {
        nodes: 160,
        high_degree_fraction: 0.03,
        ..Default::default()
    };
    let power_law = relabel(&graph_gen::powerlaw::generate(&plaw_cfg, 13), &mix, 13);
    vec![("uniform", uniform), ("power-law", power_law)]
}

/// The three engines at a thread count, loaded with the labelled stream.
fn engines_at(
    threads: usize,
    edges: &[(NodeId, NodeId, Label)],
) -> Vec<Box<dyn GraphEngine + Send>> {
    let cfg = MoctopusConfig::small_test().with_threads(threads);
    let mut moctopus = MoctopusSystem::new(cfg);
    moctopus.insert_labeled_edges(edges);
    moctopus.refine_locality();
    let mut pim_hash = PimHashSystem::new(cfg);
    pim_hash.insert_labeled_edges(edges);
    let mut baseline = HostBaseline::new(cfg);
    baseline.insert_labeled_edges(edges);
    vec![Box::new(moctopus), Box::new(pim_hash), Box::new(baseline)]
}

/// Source batch: a sampled spread plus an unknown node (empty-answer path;
/// nullable AQs must still answer it with itself).
fn sources(model: &AdjacencyGraph) -> Vec<NodeId> {
    let mut out = graph_gen::stream::sample_start_nodes(model, 12, 13);
    out.push(NodeId(1 << 40));
    out
}

/// All 28 AQs agree across the three engines, the reference evaluator, and
/// both thread counts, on both graph families.
#[test]
fn taxonomy_agrees_across_engines_reference_and_threads() {
    for (family, model) in models() {
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let reference = ReferenceEvaluator::new(&model);
        let sources = sources(&model);
        for threads in [1usize, 4] {
            let mut engines = engines_at(threads, &edges);
            for (aq, text) in AQS {
                let expr = parser::parse(text).expect("AQ patterns parse");
                let want: Vec<Vec<NodeId>> = reference
                    .evaluate(&expr, &sources)
                    .into_iter()
                    .map(|set| set.into_iter().collect())
                    .collect();
                for engine in engines.iter_mut() {
                    let (got, stats) = engine.rpq_batch(&expr, &sources);
                    assert_eq!(
                        got,
                        want,
                        "{aq} ({text}) on {family}: {} at {threads} threads disagrees",
                        engine.name()
                    );
                    assert_eq!(stats.batch_size, sources.len());
                    assert_eq!(stats.matched_pairs, want.iter().map(Vec::len).sum::<usize>());
                }
            }
        }
    }
}

/// Serving every AQ with the plan optimizer on answers identically to
/// serving it with the optimizer off — on every engine, at both thread
/// counts. Each executed AQ is served by its chosen plan: the served stats
/// are exactly what `rpq_batch_planned(choice)` reports on an engine in the
/// same state, the optimizer never scores its choice above the forward plan,
/// and the summed engine time never exceeds the optimizer-off server's.
#[test]
fn taxonomy_is_invariant_under_the_optimizer() {
    let mut planned_served = 0u64;
    for (family, model) in models() {
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let sources = sources(&model);
        for threads in [1usize, 4] {
            for engine_idx in 0..3usize {
                let cfg = MoctopusConfig::small_test().with_threads(threads);
                let server_at = |optimize: bool| {
                    let engine = engines_at(threads, &edges).swap_remove(engine_idx);
                    QueryServer::new(
                        engine,
                        ServerConfig {
                            cache: Some(CacheConfig::default()),
                            pricing: cfg,
                            optimize,
                            plan_override: None,
                        },
                    )
                };
                let mut with = server_at(true);
                let mut without = server_at(false);
                // Queries mutate no engine state, so a mirror built the same
                // way answers the planned call the server made.
                let mut mirror = engines_at(threads, &edges).swap_remove(engine_idx);
                let name = with.engine_name();
                for (i, (aq, text)) in AQS.iter().enumerate() {
                    let request = || Request {
                        at: (i + 1) as u64,
                        kind: RequestKind::Query {
                            expr: parser::parse(text).expect("AQ patterns parse"),
                            sources: sources.clone(),
                        },
                    };
                    let a = with.execute_next(request());
                    let b = without.execute_next(request());
                    assert_eq!(
                        a.results(),
                        b.results(),
                        "{aq} ({text}) on {family}: optimizer visible in answers \
                         ({name}, {threads} threads)"
                    );
                    assert_eq!(a.cache_outcome(), b.cache_outcome());
                    let plan = with.last_plan().expect("every miss is planned");
                    assert!(
                        plan.chosen_cost <= plan.forward_cost,
                        "{aq} ({text}): chosen plan {} scored above forward {}",
                        plan.chosen_cost,
                        plan.forward_cost
                    );
                    if let ResponseBody::Query { stats, cache: CacheOutcome::Miss, .. } = a.body {
                        let expr = parser::parse(text).expect("AQ patterns parse").normalize();
                        let (_, planned) = mirror.rpq_batch_planned(&expr, &sources, plan.strategy);
                        assert_eq!(
                            stats,
                            planned,
                            "{aq} ({text}) on {family}: served stats are not the {} plan's \
                             ({name}, {threads} threads)",
                            plan.strategy.describe()
                        );
                    }
                }
                let (tw, to) = (with.totals(), without.totals());
                // Three AQ pairs share a normal form (AQ8/AQ21, AQ9/AQ17,
                // AQ15/AQ16); the second spelling is a cache hit and hits
                // are never re-planned — one plan per *distinct* miss.
                let distinct: std::collections::BTreeSet<u64> = AQS
                    .iter()
                    .map(|&(_, text)| {
                        parser::parse(text).expect("AQ patterns parse").normalize().fingerprint()
                    })
                    .collect();
                assert_eq!(tw.planned, distinct.len() as u64, "one plan per distinct AQ");
                assert_eq!(to.planned, 0);
                // Planned executions are served, and only when chosen.
                assert_eq!(
                    tw.shadow_chosen_time > pim_sim::SimTime::ZERO,
                    tw.plan_nonforward > 0,
                    "{family}/{name}: planned serving time without a non-forward plan"
                );
                assert_eq!(tw.shadow_mismatches, 0, "{family}/{name}: answers drifted");
                planned_served += tw.plan_nonforward;
                // Answer-derived totals are identical; engine time can only
                // fall, because every executed non-forward plan costs no
                // more than forward (see the next test).
                assert_eq!(
                    (tw.queries, tw.updates, tw.matched_pairs, tw.collapsed, tw.hit_time),
                    (to.queries, to.updates, to.matched_pairs, to.collapsed, to.hit_time),
                    "{family}/{name}: answer-derived totals diverged"
                );
                assert!(
                    tw.engine_time <= to.engine_time,
                    "{family}/{name} ({threads} threads): optimizer-on engine time {:?} \
                     exceeds optimizer-off {:?}",
                    tw.engine_time,
                    to.engine_time
                );
            }
        }
    }
    assert!(planned_served > 0, "the taxonomy never served a non-forward plan");
}

/// The execution half of the optimizer contract, swept over the taxonomy:
/// running the chosen plan (`GraphEngine::rpq_batch_planned`) answers every
/// AQ byte-identically to the canonical forward execution on all three
/// engines, and on every AQ where a non-forward plan was chosen, the
/// *executed* simulated cost does not exceed the forward execution's — the
/// priced win is a measured win.
#[test]
fn taxonomy_chosen_plans_execute_identically_and_never_cost_more() {
    let mut nonforward_seen = 0usize;
    for (family, model) in models() {
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let sources = sources(&model);
        let mut engines = engines_at(1, &edges);
        for engine in engines.iter_mut() {
            let stats = engine.label_stats();
            let name = engine.name();
            for (aq, text) in AQS {
                let expr = parser::parse(text).expect("AQ patterns parse").normalize();
                let choice = rpq::optimizer::choose_plan(&expr, &stats, sources.len());
                let (want, forward) = engine.rpq_batch(&expr, &sources);
                let (got, executed) = engine.rpq_batch_planned(&expr, &sources, choice.strategy);
                assert_eq!(
                    got,
                    want,
                    "{aq} ({text}) on {family}: executed {} plan drifted on {name}",
                    choice.strategy.describe()
                );
                if choice.strategy != rpq::PlanStrategy::Forward {
                    nonforward_seen += 1;
                    assert!(
                        executed.latency() <= forward.latency(),
                        "{aq} ({text}) on {family}/{name}: executed {} cost {:?} \
                         exceeds forward's {:?}",
                        choice.strategy.describe(),
                        executed.latency(),
                        forward.latency()
                    );
                }
            }
        }
    }
    assert!(nonforward_seen > 0, "the taxonomy never exercised a non-forward execution");
}

/// Pinned canonical spelling and structural fingerprint of every AQ pattern.
/// The serving cache keys on the normalized tree; drift here silently splits
/// or merges cache rows, so it must be loud. On mismatch the assertion
/// message prints the full replacement table.
#[test]
fn taxonomy_normal_forms_and_fingerprints_are_pinned() {
    // Note the cross-AQ collapses the normalizer produces: AQ8 ≡ AQ21
    // (alternation sorting), AQ9 ≡ AQ17 (associativity + sorting), and
    // AQ15 ≡ AQ16 (`1??` → `1?`). Those pairs share one cache row.
    let pins: [(&str, &str, u64); 28] = [
        ("AQ1", "1/8", 0x37924921c001a64d),
        ("AQ2", "1/8/4", 0xedba1bbee0489f2a),
        ("AQ3", "(1/8)?", 0x93e00e856b20a78a),
        ("AQ4", "1/(4|8)", 0xc2a23457fac15c0d),
        ("AQ5", "4/(1)?", 0x2e23ba88850027a6),
        ("AQ6", "(4)?/1", 0x83a8af322fdec326),
        ("AQ7", "(1|8)", 0x1e6850512c2e3f4a),
        ("AQ8", "(4|1/8)", 0x946342ab8564338d),
        ("AQ9", "(1|4|8)", 0xa59dc6b8d5df532d),
        ("AQ10", "(8|(1)+)", 0xcb17ecacf0e53dec),
        ("AQ11", "(8|(1)*)", 0xd10ed62c1ada740f),
        ("AQ12", "(1|4)", 0xa27d342d007116c6),
        ("AQ13", "(8|(1)?)", 0xe265d1834959e7cd),
        ("AQ14", "(4|(1)?)", 0x97c5bc0ad23192c1),
        ("AQ15", "(1)?", 0x8ed9df9cacc37d81),
        ("AQ16", "(1)?", 0x8ed9df9cacc37d81),
        ("AQ17", "(1|4|8)", 0xa59dc6b8d5df532d),
        ("AQ18", "((1|8))+", 0x7a42fa920c4d94ac),
        ("AQ19", "((1|8))?", 0xad0a0755fef40e8d),
        ("AQ20", "((1|8))*", 0x18ff2a9e7a5f224f),
        ("AQ21", "(4|1/8)", 0x946342ab8564338d),
        ("AQ22", "(1)+/8", 0x87e6aa05e738048b),
        ("AQ23", "(1)*/8", 0x7565c33e39163628),
        ("AQ24", "1/(8)+", 0x03cb45416d7fc7eb),
        ("AQ25", "1/(8)*", 0xee7a975cde955148),
        ("AQ26", "(1|(1)+)", 0xd8ef30a34c1b8da5),
        ("AQ27", "(1)+", 0x778bfac6544ed3a0),
        ("AQ28", "(1)*", 0x7d82e4457e4409c3),
    ];
    let got: Vec<(String, String, u64)> = AQS
        .iter()
        .map(|&(aq, text)| {
            let norm = parser::parse(text).expect("AQ patterns parse").normalize();
            (aq.to_string(), format!("{norm}"), norm.fingerprint())
        })
        .collect();
    let want: Vec<(String, String, u64)> =
        pins.iter().map(|&(aq, nf, fp)| (aq.to_string(), nf.to_string(), fp)).collect();
    if got != want {
        let replacement: String = got
            .iter()
            .map(|(aq, nf, fp)| format!("        ({aq:?}, {nf:?}, {fp:#018x}),\n"))
            .collect();
        panic!("AQ normal forms / fingerprints drifted; pinned table should be:\n{replacement}");
    }
}
