//! General-RPQ equivalence: the full `parser → Nfa → rpq_batch` pipeline on
//! all three engines must agree with `rpq::ReferenceEvaluator` over labelled
//! graphs — across topology families, both placement policies, and
//! interleaved labelled updates — and the NFA itself is cross-checked against
//! brute-force path enumeration on graphs small enough to enumerate.

use graph_gen::labels::{relabel, LabelMixConfig};
use graph_store::{AdjacencyGraph, Label, NodeId};
use moctopus::{GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem};
use proptest::prelude::*;
use rpq::{parser, Nfa, ReferenceEvaluator, RpqExpr};

/// The query pool the property tests draw from: every execution strategy —
/// matrix chain, k-hop fast path, NFA-product frontier / automaton sweep —
/// and every operator of the text syntax is represented.
const QUERY_POOL: [&str; 8] =
    ["1/2/3", "1/(2|3)*/4", ".{2}", "1+", "(1|2)?/3", "2{1,3}", "1/.{2}", "(1/2)+"];

/// Builds the three engines loaded with the labelled edge stream.
fn engines(edges: &[(NodeId, NodeId, Label)]) -> Vec<Box<dyn GraphEngine>> {
    let cfg = MoctopusConfig::small_test();
    let mut moctopus = MoctopusSystem::new(cfg);
    moctopus.insert_labeled_edges(edges);
    moctopus.refine_locality();
    let mut pim_hash = MoctopusSystem::pim_hash(cfg);
    pim_hash.insert_labeled_edges(edges);
    let mut baseline = HostBaseline::new(cfg);
    baseline.insert_labeled_edges(edges);
    vec![Box::new(moctopus), Box::new(pim_hash), Box::new(baseline)]
}

/// Checks every engine's `rpq_batch` against the reference evaluator on the
/// model graph, for each query in the pool.
fn check_against_reference(
    engines: &mut [Box<dyn GraphEngine>],
    model: &AdjacencyGraph,
    sources: &[NodeId],
) -> Result<(), TestCaseError> {
    let reference = ReferenceEvaluator::new(model);
    for text in QUERY_POOL {
        let expr = parser::parse(text).expect("query pool must parse");
        let want: Vec<Vec<NodeId>> = reference
            .evaluate(&expr, sources)
            .into_iter()
            .map(|set| set.into_iter().collect())
            .collect();
        for engine in engines.iter_mut() {
            let (got, stats) = engine.rpq_batch(&expr, sources);
            prop_assert_eq!(
                &got,
                &want,
                "{} disagrees with the reference on {:?}",
                engine.name(),
                text
            );
            prop_assert_eq!(stats.batch_size, sources.len());
            prop_assert_eq!(stats.matched_pairs, want.iter().map(Vec::len).sum::<usize>());
        }
    }
    Ok(())
}

/// A batch of labelled edges, as consumed by the labelled update paths.
type LabeledBatch = Vec<(NodeId, NodeId, Label)>;

/// Deterministic labelled update batches derived from the seed: some brand-new
/// labelled edges plus some deletions of existing ones.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Labelled uniform graphs: all engines match the reference before and
    /// after interleaved labelled updates.
    #[test]
    fn uniform_labelled_graphs_match_reference(
        nodes in 60usize..240,
        seed in 0u64..1000,
    ) {
        let topology = graph_gen::uniform::generate(nodes, 4.0, seed);
        let model = relabel(&topology, &LabelMixConfig { num_labels: 4, zipf_exponent: 0.8 }, seed);
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let mut engines = engines(&edges);
        let mut sources: Vec<NodeId> = (0..16u64).map(NodeId).collect();
        sources.push(NodeId(1 << 40)); // unknown node: empty-answer path
        check_against_reference(&mut engines, &model, &sources)?;

        // Interleave labelled updates on every engine and the model alike,
        // then re-check: the labelled update path must keep all four stores
        // (3 engines + model) in lockstep.
        let mut model = model;
        let (inserts, deletes) = update_batches(&model, seed);
        for engine in engines.iter_mut() {
            engine.insert_labeled_edges(&inserts);
            engine.delete_labeled_edges(&deletes);
        }
        for &(s, d, l) in &inserts {
            model.insert_edge(s, d, l);
        }
        for &(s, d, l) in &deletes {
            model.remove_edge(s, d, l);
        }
        for engine in engines.iter() {
            prop_assert_eq!(engine.edge_count(), model.edge_count(), "{} lost edges", engine.name());
        }
        check_against_reference(&mut engines, &model, &sources)?;
    }

    /// Labelled power-law graphs (hub promotion exercises the host store on
    /// the Moctopus placement; PIM-hash keeps hubs on modules).
    #[test]
    fn power_law_labelled_graphs_match_reference(
        nodes in 120usize..400,
        hub_percent in 0u32..6,
        seed in 0u64..1000,
    ) {
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes,
            high_degree_fraction: hub_percent as f64 / 100.0,
            ..Default::default()
        };
        let topology = graph_gen::powerlaw::generate(&cfg, seed);
        let model = relabel(&topology, &LabelMixConfig { num_labels: 4, zipf_exponent: 1.0 }, seed);
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let mut engines = engines(&edges);
        let sources: Vec<NodeId> = (0..16u64).map(NodeId).collect();
        check_against_reference(&mut engines, &model, &sources)?;
    }
}

// ---------------------------------------------------------------------------
// Brute-force path-enumeration cross-check of the NFA
// ---------------------------------------------------------------------------

/// Recursive regex matcher over a label sequence, independent of the NFA
/// construction (exponential, fine for the tiny sequences enumerated here).
fn expr_matches(expr: &RpqExpr, labels: &[Label]) -> bool {
    match expr {
        RpqExpr::Atom(spec) => labels.len() == 1 && spec.matches(labels[0]),
        RpqExpr::Concat(parts) => concat_matches(parts, labels),
        RpqExpr::Alt(branches) => branches.iter().any(|b| expr_matches(b, labels)),
        RpqExpr::Optional(inner) => labels.is_empty() || expr_matches(inner, labels),
        RpqExpr::Star(inner) => {
            labels.is_empty()
                || (1..=labels.len())
                    .any(|i| expr_matches(inner, &labels[..i]) && expr_matches(expr, &labels[i..]))
        }
        RpqExpr::Plus(inner) => {
            let star = RpqExpr::Star(inner.clone());
            (1..=labels.len())
                .any(|i| expr_matches(inner, &labels[..i]) && expr_matches(&star, &labels[i..]))
                || (labels.is_empty() && expr_matches(inner, labels))
        }
        RpqExpr::Repeat { expr, min, max } => repeat_matches(expr, *min, *max, labels),
    }
}

fn concat_matches(parts: &[RpqExpr], labels: &[Label]) -> bool {
    match parts.split_first() {
        None => labels.is_empty(),
        Some((head, tail)) => (0..=labels.len())
            .any(|i| expr_matches(head, &labels[..i]) && concat_matches(tail, &labels[i..])),
    }
}

fn repeat_matches(expr: &RpqExpr, min: usize, max: usize, labels: &[Label]) -> bool {
    if min == 0 && labels.is_empty() {
        return true;
    }
    if max == 0 {
        return labels.is_empty();
    }
    (0..=labels.len()).any(|i| {
        expr_matches(expr, &labels[..i])
            && repeat_matches(expr, min.saturating_sub(1), max - 1, &labels[i..])
    })
}

/// Simulates the ε-free NFA on one label sequence.
fn nfa_accepts(nfa: &Nfa, labels: &[Label]) -> bool {
    let mut states = vec![nfa.start()];
    for &label in labels {
        let mut next: Vec<usize> = Vec::new();
        for &s in &states {
            for &(spec, to) in nfa.transitions_from(s) {
                if spec.matches(label) && !next.contains(&to) {
                    next.push(to);
                }
            }
        }
        states = next;
        if states.is_empty() {
            return false;
        }
    }
    states.iter().any(|&s| nfa.is_accepting(s))
}

/// All label sequences over `alphabet` up to `max_len`, in length-lex order.
fn all_sequences(alphabet: &[Label], max_len: usize) -> Vec<Vec<Label>> {
    let mut out: Vec<Vec<Label>> = vec![Vec::new()];
    let mut last: Vec<Vec<Label>> = vec![Vec::new()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for seq in &last {
            for &l in alphabet {
                let mut longer = seq.clone();
                longer.push(l);
                next.push(longer);
            }
        }
        out.extend(next.iter().cloned());
        last = next;
    }
    out
}

/// Enumerates every path (walks may revisit nodes) of length ≤ `max_len`
/// from `source` and returns the endpoints whose label sequence satisfies
/// `accept`.
fn enumerate_path_endpoints(
    graph: &AdjacencyGraph,
    source: NodeId,
    max_len: usize,
    accept: impl Fn(&[Label]) -> bool,
) -> Vec<NodeId> {
    let mut endpoints = Vec::new();
    let mut stack: Vec<(NodeId, Vec<Label>)> = vec![(source, Vec::new())];
    while let Some((node, labels)) = stack.pop() {
        if accept(&labels) {
            endpoints.push(node);
        }
        if labels.len() == max_len {
            continue;
        }
        for &(dst, label) in graph.neighbors(node) {
            let mut longer = labels.clone();
            longer.push(label);
            stack.push((dst, longer));
        }
    }
    endpoints.sort_unstable();
    endpoints.dedup();
    endpoints
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On every sequence up to length 4, the compiled NFA accepts exactly the
    /// sequences the recursive matcher accepts.
    #[test]
    fn nfa_acceptance_matches_brute_force_matcher(query_idx in 0usize..QUERY_POOL.len()) {
        let expr = parser::parse(QUERY_POOL[query_idx]).expect("query pool must parse");
        let nfa = Nfa::from_expr(&expr);
        let alphabet: Vec<Label> = (1..=4u16).map(Label).collect();
        for seq in all_sequences(&alphabet, 4) {
            prop_assert_eq!(
                nfa_accepts(&nfa, &seq),
                expr_matches(&expr, &seq),
                "NFA and matcher disagree on {:?} for {:?}",
                seq,
                QUERY_POOL[query_idx]
            );
        }
    }

    /// On graphs small enough to enumerate every walk, the reference
    /// evaluator's answers equal brute-force path enumeration — exactly for
    /// bounded queries, and restricted to short-walk witnesses for unbounded
    /// ones (every enumerated endpoint must be reported).
    #[test]
    fn evaluator_matches_enumerated_paths(
        edges in prop::collection::vec((0u64..6, 0u64..6, 1u16..4), 1..14),
        query_idx in 0usize..QUERY_POOL.len(),
    ) {
        let mut graph = AdjacencyGraph::new();
        for &(s, d, l) in &edges {
            if s != d {
                graph.insert_edge(NodeId(s), NodeId(d), Label(l));
            }
        }
        let expr = parser::parse(QUERY_POOL[query_idx]).expect("query pool must parse");
        let max_len = 4usize;
        let reference = ReferenceEvaluator::new(&graph);
        let sources: Vec<NodeId> = (0..6u64).map(NodeId).collect();
        let answers = reference.evaluate(&expr, &sources);
        for (&source, answer) in sources.iter().zip(answers.iter()) {
            let enumerated = enumerate_path_endpoints(&graph, source, max_len, |labels| {
                expr_matches(&expr, labels)
            });
            let answer: Vec<NodeId> = answer.iter().copied().collect();
            match expr.max_path_length() {
                Some(bound) if bound <= max_len => {
                    prop_assert_eq!(
                        &answer,
                        &enumerated,
                        "bounded query {:?} diverges from enumeration at source {}",
                        QUERY_POOL[query_idx],
                        source
                    );
                }
                _ => {
                    for endpoint in &enumerated {
                        prop_assert!(
                            answer.contains(endpoint),
                            "unbounded query {:?} misses enumerated endpoint {} from {}",
                            QUERY_POOL[query_idx],
                            endpoint,
                            source
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Nullable / optional pattern taxonomy
// ---------------------------------------------------------------------------

/// Every way the grammar can spell an optional: bare, stacked, optionals of
/// alternations (both nestings), optionals inside concatenations (either
/// side), an optional inside a bounded repeat, and the zero-repeat spellings.
/// The nullable entries answer the source itself via the zero-hop path, which
/// historically fell through the frontier seeding — this pool keeps that path
/// pinned on all three engines. The two concat entries are deliberately *not*
/// nullable (one required atom remains): the epsilon branch must thread
/// through the middle of a product run without leaking a zero-hop answer.
const OPTIONAL_POOL: [&str; 10] =
    ["1?", "1??", "(1|2)?", "(1?|2)", "1?/2", "1/2?", "(1?){3}", ".{0}", "1{0}", "(1{0})?"];

/// Whether an [`OPTIONAL_POOL`] entry accepts the empty label sequence.
fn pool_is_nullable(text: &str) -> bool {
    !matches!(text, "1?/2" | "1/2?")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All three engines match the reference on the nullable taxonomy over
    /// labelled uniform graphs, including an out-of-bound source (the
    /// zero-hop answer must still surface for a node the stores never saw).
    #[test]
    fn nullable_patterns_match_reference(
        nodes in 60usize..180,
        seed in 0u64..1000,
    ) {
        let topology = graph_gen::uniform::generate(nodes, 4.0, seed);
        let model = relabel(&topology, &LabelMixConfig { num_labels: 4, zipf_exponent: 0.8 }, seed);
        let edges = graph_gen::labels::labeled_edge_stream(&model);
        let mut engines = engines(&edges);
        let reference = ReferenceEvaluator::new(&model);
        let mut sources: Vec<NodeId> = (0..12u64).map(NodeId).collect();
        sources.push(NodeId(1 << 40));
        for text in OPTIONAL_POOL {
            let expr = parser::parse(text).expect("optional pool must parse");
            prop_assert_eq!(expr.is_nullable(), pool_is_nullable(text), "{:?}", text);
            let want: Vec<Vec<NodeId>> = reference
                .evaluate(&expr, &sources)
                .into_iter()
                .map(|set| set.into_iter().collect())
                .collect();
            if pool_is_nullable(text) {
                for (i, &source) in sources.iter().enumerate() {
                    prop_assert!(
                        want[i].contains(&source),
                        "nullable {:?} must answer the source itself at {}",
                        text,
                        source
                    );
                }
            }
            for engine in engines.iter_mut() {
                let (got, stats) = engine.rpq_batch(&expr, &sources);
                prop_assert_eq!(
                    &got,
                    &want,
                    "{} disagrees with the reference on optional {:?}",
                    engine.name(),
                    text
                );
                prop_assert_eq!(stats.matched_pairs, want.iter().map(Vec::len).sum::<usize>());
            }
        }
    }

    /// The compiled NFA agrees with the recursive matcher on every optional
    /// pattern — in particular the two must agree on the empty sequence.
    #[test]
    fn optional_nfa_acceptance_matches_brute_force(query_idx in 0usize..OPTIONAL_POOL.len()) {
        let text = OPTIONAL_POOL[query_idx];
        let expr = parser::parse(text).expect("optional pool must parse");
        let nfa = Nfa::from_expr(&expr);
        let alphabet: Vec<Label> = (1..=3u16).map(Label).collect();
        for seq in all_sequences(&alphabet, 4) {
            prop_assert_eq!(
                nfa_accepts(&nfa, &seq),
                expr_matches(&expr, &seq),
                "NFA and matcher disagree on {:?} for {:?}",
                seq,
                text
            );
        }
        prop_assert_eq!(
            nfa_accepts(&nfa, &[]),
            pool_is_nullable(text),
            "empty-sequence acceptance wrong for {:?}",
            text
        );
    }
}

/// Pins the normalizer's output on the nullable taxonomy: the printed normal
/// form and its fingerprint. The cache keys on `(normalized expr, sources)`,
/// so any drift here silently splits (or worse, merges) cache rows — this
/// test turns that drift into a loud diff.
#[test]
fn nullable_normal_forms_and_fingerprints_are_pinned() {
    let pins: [(&str, &str, u64); 6] = [
        ("1??", "(1)?", 0x8ed9_df9c_acc3_7d81),
        (".{0}", "(.){0}", 0x184c_e0a4_5a4d_af8c),
        ("(1?|2)", "(2|(1)?)", 0x63ab_524c_ce41_1c47),
        ("(1|2)?", "((1|2))?", 0xf329_5d1f_bd58_51c7),
        ("(1?){3}", "((1)?){3}", 0x8eb5_dede_3a78_5189),
        ("1?/2", "(1)?/2", 0xa367_99fe_71dd_e520),
    ];
    for (text, normal, fp) in pins {
        let norm = parser::parse(text).unwrap().normalize();
        assert_eq!(format!("{norm}"), normal, "normal form drifted for {text:?}");
        assert_eq!(norm.fingerprint(), fp, "fingerprint drifted for {text:?}");
    }

    // Zero-repeat collapses: `(1{0})?` is *the* epsilon after normalization,
    // and stacked optionals are idempotent (`1??` ≡ `1?`).
    assert!(parser::parse("(1{0})?").unwrap().normalize().is_epsilon());
    assert_eq!(
        parser::parse("1??").unwrap().normalize().fingerprint(),
        parser::parse("1?").unwrap().normalize().fingerprint(),
        "optional must be idempotent under normalization"
    );

    // Nullability is decided on the raw AST and preserved by normalization.
    for text in OPTIONAL_POOL {
        let expr = parser::parse(text).unwrap();
        assert_eq!(expr.is_nullable(), pool_is_nullable(text), "{text:?}");
        assert_eq!(expr.normalize().is_nullable(), pool_is_nullable(text), "norm({text:?})");
    }
    for text in ["1", "1+", "2{1,3}", "(1|2)/3"] {
        assert!(!parser::parse(text).unwrap().is_nullable(), "{text:?} is not nullable");
    }
}

/// A hand-checkable end-to-end case: the full text pipeline on a labelled
/// diamond with a decoy label, on all three engines.
#[test]
fn labelled_diamond_end_to_end() {
    let mut model = AdjacencyGraph::new();
    model.insert_edge(NodeId(0), NodeId(1), Label(1));
    model.insert_edge(NodeId(0), NodeId(2), Label(2));
    model.insert_edge(NodeId(1), NodeId(3), Label(2));
    model.insert_edge(NodeId(2), NodeId(3), Label(1));
    model.insert_edge(NodeId(3), NodeId(4), Label(4));
    let edges = graph_gen::labels::labeled_edge_stream(&model);
    let mut all = engines(&edges);
    for engine in all.iter_mut() {
        // 1/(2|3)*/4 : 0 -1-> 1 -2-> 3 -4-> 4.
        let expr = parser::parse("1/(2|3)*/4").unwrap();
        let (results, _) = engine.rpq_batch(&expr, &[NodeId(0)]);
        assert_eq!(results[0], vec![NodeId(4)], "{}", engine.name());
        // 2/1 : 0 -2-> 2 -1-> 3 only.
        let expr = parser::parse("2/1").unwrap();
        let (results, _) = engine.rpq_batch(&expr, &[NodeId(0)]);
        assert_eq!(results[0], vec![NodeId(3)], "{}", engine.name());
    }
}
