//! Cost-based RPQ plan selection over incremental per-label statistics.
//!
//! The optimizer chooses *how* an RPQ would best be evaluated — left-to-right
//! ([`PlanStrategy::Forward`]), from the automaton end that touches the rarer
//! label with the NFA reversed ([`PlanStrategy::Bidirectional`]), or by
//! splitting a top-level concatenation at a rare-label pivot and growing both
//! halves out of it ([`PlanStrategy::RareLabelSplit`]) — using only the
//! [`LabelStatsSnapshot`] that every engine maintains incrementally on its
//! labelled update paths (never by rescanning stored rows).
//!
//! # The plan-invariance contract
//!
//! Plan choice is **observable only as simulated cost**. Every strategy's
//! executor answers with results bit-identical to the canonical forward
//! NFA-product execution; only the query statistics of the executed plan
//! differ. What [`choose_plan`] adds is a deterministic estimate of how much
//! simulated work each strategy would perform, and the argmin over those
//! estimates — a pure function of the statistics, so the plan (and with it
//! the served statistics) is deterministic too. Two further guarantees are
//! load-bearing and enforced by tests:
//!
//! * **Never worse than left-to-right.** [`PlanStrategy::Forward`] is always
//!   a candidate and ties break in its favour, so
//!   `chosen_cost <= forward_cost` on every query
//!   ([`PlanChoice::chosen_cost`]).
//! * **One cache row per language spelling.** [`rewritten_for`] respells an
//!   expression the way the chosen strategy would factor it, and every
//!   respelling normalizes back to the identical canonical tree — a query
//!   and its plan-rewritten form share one cache key in `moctopus-server`.
//!
//! # The cost model
//!
//! Costs are abstract *edge-traversal units* computed by a deterministic,
//! integer-only walk of the expression tree. A frontier of `f` product
//! entries expanding through an exact label `l` scans an estimated
//! `f * edges(l) / sources(l)` labelled slots forward (out-expansion), or
//! `f * edges(l) / targets(l)` backward (in-expansion) — the per-source and
//! per-target mean degrees the statistics table maintains. Any-label atoms
//! expand by the whole graph's mean degree. Three structural bounds keep the
//! estimates honest:
//!
//! * one sweep of an atom traverses at most the label's total edge count
//!   (boolean semantics dedups repeat visits);
//! * its output frontier lands only on the label's target population
//!   (source population, backward), and never exceeds
//!   [`LabelStatsSnapshot::node_hint`];
//! * closures flow only the *newly discovered* part of the reachable set
//!   into the next round, stopping at a fixpoint or a fixed horizon — the
//!   fixpoint-detection pass itself is (optimistically) free.
//!
//! All arithmetic is saturating `u64` with `u128` intermediates — no floats,
//! so the estimate is byte-identical on every platform and at every thread
//! count.

use crate::ast::{LabelSpec, RpqExpr};
use graph_store::{Label, LabelCounters, LabelStatsSnapshot};

/// Iteration horizon for unbounded closures (`*`, `+`) and the cap on
/// bounded-repetition unrolling. Eight steps saturate every realistic
/// frontier (the cap is the node population, and expansion is geometric);
/// a finite horizon keeps the estimate total and cheap.
const CLOSURE_HORIZON: u32 = 8;

/// Evaluation strategy for one RPQ, chosen by [`choose_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PlanStrategy {
    /// Canonical left-to-right expansion from the query sources.
    Forward,
    /// Expand from the automaton end touching the rarer label: run the
    /// reversed NFA from the target side, then reconcile with the sources.
    Bidirectional,
    /// Split a top-level concatenation at a rare-label pivot: seed from the
    /// pivot label's source set, grow the suffix forward and the prefix
    /// backward, and join at the seed.
    RareLabelSplit {
        /// Index into the normalized top-level concatenation's parts at
        /// which the suffix begins (`1..len`); the pivot atom is
        /// `parts[split_at]`.
        split_at: usize,
    },
}

impl PlanStrategy {
    /// Short stable name for experiment output (`"forward"`,
    /// `"bidirectional"`, `"rare-split@N"`).
    pub fn describe(&self) -> String {
        match self {
            PlanStrategy::Forward => "forward".to_string(),
            PlanStrategy::Bidirectional => "bidirectional".to_string(),
            PlanStrategy::RareLabelSplit { split_at } => format!("rare-split@{split_at}"),
        }
    }
}

/// The outcome of cost-based plan selection for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanChoice {
    /// The strategy with the lowest simulated cost (ties favour the earlier
    /// candidate in the fixed order forward, bidirectional, rare-split).
    pub strategy: PlanStrategy,
    /// Simulated cost of the baseline left-to-right plan, in edge-traversal
    /// units.
    pub forward_cost: u64,
    /// Simulated cost of the chosen plan; `<= forward_cost` always.
    pub chosen_cost: u64,
}

impl PlanChoice {
    /// `forward_cost / chosen_cost` as a ratio scaled by 1000 (integer
    /// millis), the simulated-speedup figure recorded in bench artifacts.
    /// Returns 1000 (parity) when either cost is zero.
    pub fn simulated_speedup_millis(&self) -> u64 {
        if self.chosen_cost == 0 || self.forward_cost == 0 {
            return 1000;
        }
        ((self.forward_cost as u128 * 1000) / self.chosen_cost as u128).min(u64::MAX as u128) as u64
    }
}

/// Which adjacency direction a sweep traverses; selects which cardinality
/// (distinct sources vs distinct targets) divides the label's edge count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Reverse,
}

/// Saturating `f * num / den` with a `u128` intermediate (den >= 1).
fn scale(f: u64, num: u64, den: u64) -> u64 {
    let den = den.max(1) as u128;
    ((f as u128 * num as u128) / den).min(u64::MAX as u128) as u64
}

/// Per-atom expansion factors in one direction: edge pool, the cardinality
/// dividing it (mean-degree denominator), and the landing population the
/// output frontier cannot exceed.
struct AtomFactors {
    edges: u64,
    fanout_div: u64,
    landing: u64,
}

fn atom_factors(spec: LabelSpec, stats: &LabelStatsSnapshot, dir: Direction) -> AtomFactors {
    match spec {
        LabelSpec::Any => AtomFactors {
            edges: stats.total_edges,
            fanout_div: stats.node_hint(),
            landing: u64::MAX,
        },
        LabelSpec::Exact(l) => {
            let LabelCounters { edges, sources, targets } = stats.counters(l);
            match dir {
                Direction::Forward => AtomFactors { edges, fanout_div: sources, landing: targets },
                Direction::Reverse => AtomFactors { edges, fanout_div: targets, landing: sources },
            }
        }
    }
}

/// Estimated (cost, output frontier) of sweeping `expr` over a frontier of
/// `f` entries. `cap` bounds every frontier estimate (boolean semantics).
///
/// The walk always consumes the tree left to right; a backward sweep is
/// priced by passing the *reversed* expression (see [`RpqExpr::reverse`])
/// with `Direction::Reverse` selecting in-side cardinalities.
fn sweep_cost(
    expr: &RpqExpr,
    f: u64,
    stats: &LabelStatsSnapshot,
    dir: Direction,
    cap: u64,
) -> (u64, u64) {
    match expr {
        RpqExpr::Atom(spec) => {
            let fct = atom_factors(*spec, stats, dir);
            // A single boolean-semantics sweep visits each labelled edge at
            // most once, and lands only inside the label's landing
            // population.
            let traversed = scale(f, fct.edges, fct.fanout_div).min(fct.edges);
            (traversed, traversed.min(fct.landing).min(cap))
        }
        RpqExpr::Concat(parts) => {
            let mut cost = 0u64;
            let mut frontier = f;
            for part in parts {
                let (c, out) = sweep_cost(part, frontier, stats, dir, cap);
                cost = cost.saturating_add(c);
                frontier = out;
            }
            (cost, frontier)
        }
        RpqExpr::Alt(branches) => {
            let mut cost = 0u64;
            let mut out = 0u64;
            for branch in branches {
                let (c, o) = sweep_cost(branch, f, stats, dir, cap);
                cost = cost.saturating_add(c);
                out = out.saturating_add(o);
            }
            (cost, out.min(cap))
        }
        RpqExpr::Star(inner) => closure_cost(inner, f, stats, dir, cap, true),
        RpqExpr::Plus(inner) => closure_cost(inner, f, stats, dir, cap, false),
        RpqExpr::Optional(inner) => {
            let (c, out) = sweep_cost(inner, f, stats, dir, cap);
            (c, f.saturating_add(out).min(cap))
        }
        RpqExpr::Repeat { expr: body, min, max } => {
            let mut cost = 0u64;
            let mut frontier = f;
            // Reached set: frontiers alive after >= min repetitions.
            let mut reach = if *min == 0 { f } else { 0 };
            let rounds = (*max).min(CLOSURE_HORIZON as usize);
            for i in 1..=rounds {
                let (c, out) = sweep_cost(body, frontier, stats, dir, cap);
                cost = cost.saturating_add(c);
                frontier = out;
                if i >= *min {
                    reach = reach.saturating_add(out).min(cap);
                }
                if out == 0 {
                    break;
                }
            }
            (cost, reach)
        }
    }
}

/// Closure (`*` / `+`) estimate: BFS-style iteration where only the *newly*
/// reached part of the estimate flows into the next round, until the
/// reachable set stops growing (that fixpoint-detection pass is priced at
/// zero — a deterministic, mildly optimistic choice) or the horizon is hit.
fn closure_cost(
    body: &RpqExpr,
    f: u64,
    stats: &LabelStatsSnapshot,
    dir: Direction,
    cap: u64,
    include_input: bool,
) -> (u64, u64) {
    let mut cost = 0u64;
    let mut frontier = f;
    let mut reach = if include_input { f.min(cap) } else { 0 };
    for _ in 0..CLOSURE_HORIZON {
        if frontier == 0 {
            break;
        }
        let (c, out) = sweep_cost(body, frontier, stats, dir, cap);
        let grown = reach.saturating_add(out).min(cap);
        let newly = grown - reach;
        if newly == 0 {
            break;
        }
        cost = cost.saturating_add(c);
        reach = grown;
        frontier = newly;
    }
    (cost, reach)
}

/// First atom a sweep of `expr` must traverse, when that atom is an exact
/// label and is *mandatory* (not skippable via nullability) — the pivot
/// requirement of [`PlanStrategy::RareLabelSplit`].
fn leading_exact_label(expr: &RpqExpr) -> Option<Label> {
    match expr {
        RpqExpr::Atom(LabelSpec::Exact(l)) => Some(*l),
        RpqExpr::Atom(LabelSpec::Any) => None,
        RpqExpr::Concat(parts) => parts.first().and_then(leading_exact_label),
        RpqExpr::Plus(inner) => leading_exact_label(inner),
        RpqExpr::Repeat { expr, min, .. } if *min >= 1 => leading_exact_label(expr),
        // Alternations, optionals, stars and zero-min repeats have no single
        // mandatory leading label.
        _ => None,
    }
}

/// Decomposes `expr` (assumed normalized) for executing
/// [`PlanStrategy::RareLabelSplit`]: the prefix and suffix halves around
/// `split_at` (both normalized) plus the suffix's mandatory leading exact
/// label — the pivot whose source set seeds the split execution. Returns
/// `None` when the strategy does not fit the tree (not a top-level
/// concatenation, split position out of range, or no mandatory exact pivot);
/// executors fall back to the forward plan in that case.
///
/// Because the pivot is *mandatory* (never skippable via nullability, see
/// `leading_exact_label`), the suffix accepts no empty word and every
/// suffix match starts with a pivot-labelled edge — so seeding evaluation at
/// the pivot label's exact source set loses no answers.
pub fn split_for(expr: &RpqExpr, split_at: usize) -> Option<(RpqExpr, RpqExpr, Label)> {
    let RpqExpr::Concat(parts) = expr else { return None };
    if split_at == 0 || split_at >= parts.len() {
        return None;
    }
    let pivot = leading_exact_label(&parts[split_at])?;
    let prefix = RpqExpr::Concat(parts[..split_at].to_vec()).normalize();
    let suffix = RpqExpr::Concat(parts[split_at..].to_vec()).normalize();
    Some((prefix, suffix, pivot))
}

/// Whether `expr` accepts the empty word (expression-level nullability,
/// agreeing with `Nfa::accepts_empty` on the compiled automaton).
fn nullable(expr: &RpqExpr) -> bool {
    match expr {
        RpqExpr::Atom(_) => false,
        RpqExpr::Concat(parts) => parts.iter().all(nullable),
        RpqExpr::Alt(branches) => branches.iter().any(nullable),
        RpqExpr::Star(_) | RpqExpr::Optional(_) => true,
        RpqExpr::Plus(inner) => nullable(inner),
        RpqExpr::Repeat { expr, min, .. } => *min == 0 || nullable(expr),
    }
}

/// Estimated size of the backward base seed for `reversed` (the reversed
/// expression): the population an executor's useful-set pass must enumerate
/// before any reverse row is walked. Executors cannot know which end nodes
/// matter, so the backward plan starts from *every* node carrying a
/// leading-atom edge — `sources(l)` for an exact leading label (the
/// statistics table's distinct-source set, which is exactly what
/// `spec_sources` materializes), the whole node population for an any-label
/// atom. Leading alternation branches add up; a nullable leading part also
/// exposes the part after it.
fn seed_population(reversed: &RpqExpr, stats: &LabelStatsSnapshot, cap: u64) -> u64 {
    let seed = match reversed {
        RpqExpr::Atom(LabelSpec::Exact(l)) => stats.counters(*l).sources,
        RpqExpr::Atom(LabelSpec::Any) => cap,
        RpqExpr::Concat(parts) => {
            let mut seed = 0u64;
            for part in parts {
                seed = seed.saturating_add(seed_population(part, stats, cap));
                if !nullable(part) {
                    break;
                }
            }
            seed
        }
        RpqExpr::Alt(branches) => {
            branches.iter().fold(0u64, |acc, b| acc.saturating_add(seed_population(b, stats, cap)))
        }
        RpqExpr::Star(inner) | RpqExpr::Plus(inner) | RpqExpr::Optional(inner) => {
            seed_population(inner, stats, cap)
        }
        RpqExpr::Repeat { expr, .. } => seed_population(expr, stats, cap),
    };
    seed.min(cap)
}

/// Simulated cost of the bidirectional plan: a full sweep of the reversed
/// expression from the target side, plus a reconciliation surcharge of one
/// pass over the source batch (anchoring the backward-reached sets to each
/// query source). The per-node join work is already priced inside the sweep.
///
/// The backward sweep starts from [`seed_population`] — the full population
/// of possible end anchors, **not** the query batch. An executor running the
/// plan has no target list to start from, so it seeds its useful-set pass
/// from every node with a final-atom edge; pricing the sweep against the
/// batch instead would make the plan look cheap exactly on queries ending in
/// a *common* label, where the executed backward pass is at its most
/// expensive. One additional `seed`-sized pass prices gathering that base
/// set from the statistics table.
fn bidirectional_cost(expr: &RpqExpr, stats: &LabelStatsSnapshot, batch: u64, cap: u64) -> u64 {
    let reversed = expr.reverse();
    let seed = seed_population(&reversed, stats, cap);
    let (c, _) = sweep_cost(&reversed, seed, stats, Direction::Reverse, cap);
    c.saturating_add(seed).saturating_add(batch)
}

/// Simulated cost of splitting `parts` at `split_at`: seed from the pivot
/// label's source population (independent of the batch size — the whole
/// point of rare-label-first evaluation), sweep the suffix forward and the
/// reversed prefix backward from that seed, then *anchor* to the query
/// sources: the executor still runs a forward product of the prefix from
/// the batch — pruned to the pairs the backward prefix sweep marked useful
/// — before joining at the pivots. That anchored pass is priced as a
/// forward prefix sweep whose frontier is confined to the useful
/// population (the backward sweep's reach estimate); omitting it makes the
/// split look free exactly when the prefix floods and pruning buys
/// nothing, which is where the executed plan degenerates to forward work
/// plus seeding overhead.
fn split_cost(
    parts: &[RpqExpr],
    split_at: usize,
    pivot: Label,
    stats: &LabelStatsSnapshot,
    batch: u64,
    cap: u64,
) -> u64 {
    let seed = stats.counters(pivot).sources.min(cap);
    let suffix = RpqExpr::Concat(parts[split_at..].to_vec());
    let prefix_fwd = RpqExpr::Concat(parts[..split_at].to_vec());
    let prefix_rev = prefix_fwd.reverse();
    let (fwd_c, _) = sweep_cost(&suffix, seed, stats, Direction::Forward, cap);
    let (rev_c, useful) = sweep_cost(&prefix_rev, seed, stats, Direction::Reverse, cap);
    let (anchor_c, _) =
        sweep_cost(&prefix_fwd, batch, stats, Direction::Forward, cap.min(useful.max(1)));
    fwd_c.saturating_add(rev_c).saturating_add(anchor_c).saturating_add(batch)
}

/// Chooses the cheapest evaluation strategy for `expr` over a source batch
/// of `batch_size` under the given statistics.
///
/// The expression should be normalized ([`RpqExpr::normalize`]) — the
/// rare-label-split candidates are enumerated over the *top-level* parts of
/// a normalized concatenation. Candidates are costed in the fixed order
/// forward, bidirectional, then each split position ascending, and a later
/// candidate replaces the incumbent only when **strictly** cheaper — so the
/// choice is deterministic and `chosen_cost <= forward_cost` always holds.
///
/// The forward start-frontier is `batch_size`; backward-anchored plans
/// start from the population of possible end anchors instead (see
/// `seed_population`) — the caller knows its source count but never the
/// matching target set, and an executor pays for that asymmetry.
///
/// # Examples
///
/// ```
/// use rpq::{optimizer, parser};
/// use graph_store::LabelStatsSnapshot;
/// let expr = parser::parse("1*/8")?.normalize();
/// // Empty statistics: everything costs zero, the forward plan wins ties.
/// let choice = optimizer::choose_plan(&expr, &LabelStatsSnapshot::default(), 16);
/// assert_eq!(choice.strategy, optimizer::PlanStrategy::Forward);
/// assert!(choice.chosen_cost <= choice.forward_cost);
/// # Ok::<(), rpq::parser::ParseRpqError>(())
/// ```
pub fn choose_plan(expr: &RpqExpr, stats: &LabelStatsSnapshot, batch_size: usize) -> PlanChoice {
    let cap = stats.node_hint();
    let batch = (batch_size as u64).max(1);
    let forward_cost = sweep_cost(expr, batch, stats, Direction::Forward, cap).0;

    let mut strategy = PlanStrategy::Forward;
    let mut chosen_cost = forward_cost;

    let bidi = bidirectional_cost(expr, stats, batch, cap);
    if bidi < chosen_cost {
        strategy = PlanStrategy::Bidirectional;
        chosen_cost = bidi;
    }

    if let RpqExpr::Concat(parts) = expr {
        for split_at in 1..parts.len() {
            let Some(pivot) = leading_exact_label(&parts[split_at]) else { continue };
            let cost = split_cost(parts, split_at, pivot, stats, batch, cap);
            if cost < chosen_cost {
                strategy = PlanStrategy::RareLabelSplit { split_at };
                chosen_cost = cost;
            }
        }
    }

    PlanChoice { strategy, forward_cost, chosen_cost }
}

/// Respells `expr` (assumed normalized) the way `strategy` factors it, such
/// that the respelling **normalizes back to `expr` exactly** — the chosen
/// strategy becomes part of the normalized form, and a query and its
/// plan-rewritten form always share one cache row.
///
/// * [`PlanStrategy::Forward`] — the identity spelling.
/// * [`PlanStrategy::Bidirectional`] — an `ε`-prefixed concatenation
///   (`ε/e`): the reversed-sweep factorization anchored at the target end;
///   normalization drops the `ε`.
/// * [`PlanStrategy::RareLabelSplit`] — the two-part grouping
///   `(prefix)/(suffix)` around the pivot; normalization flattens the
///   nested concatenations.
///
/// # Examples
///
/// ```
/// use rpq::{optimizer, parser};
/// let e = parser::parse("1/2/8")?.normalize();
/// let split = optimizer::PlanStrategy::RareLabelSplit { split_at: 2 };
/// let respelt = optimizer::rewritten_for(&e, split);
/// assert_ne!(respelt, e);            // a different spelling…
/// assert_eq!(respelt.normalize(), e); // …of the same canonical form.
/// # Ok::<(), rpq::parser::ParseRpqError>(())
/// ```
pub fn rewritten_for(expr: &RpqExpr, strategy: PlanStrategy) -> RpqExpr {
    match strategy {
        PlanStrategy::Forward => expr.clone(),
        PlanStrategy::Bidirectional => RpqExpr::Concat(vec![RpqExpr::epsilon(), expr.clone()]),
        PlanStrategy::RareLabelSplit { split_at } => match expr {
            RpqExpr::Concat(parts) if split_at >= 1 && split_at < parts.len() => {
                RpqExpr::Concat(vec![
                    RpqExpr::Concat(parts[..split_at].to_vec()),
                    RpqExpr::Concat(parts[split_at..].to_vec()),
                ])
            }
            // A split position that does not match the tree degenerates to
            // the ε-prefixed spelling (still normalizes to `expr`).
            _ => RpqExpr::Concat(vec![RpqExpr::epsilon(), expr.clone()]),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// A synthetic Zipf-ish statistics table: label 1 common, label 4 mid,
    /// label 8 rare.
    fn stats() -> LabelStatsSnapshot {
        LabelStatsSnapshot {
            per_label: vec![
                (Label(1), LabelCounters { edges: 4000, sources: 900, targets: 900 }),
                (Label(4), LabelCounters { edges: 500, sources: 300, targets: 300 }),
                (Label(8), LabelCounters { edges: 20, sources: 15, targets: 15 }),
            ],
            total_edges: 4520,
        }
    }

    fn norm(text: &str) -> RpqExpr {
        parse(text).expect("test query must parse").normalize()
    }

    #[test]
    fn forward_always_bounds_the_chosen_cost() {
        let s = stats();
        for text in
            ["1/2/3", "1/(2|3)*/4", ".{2}", "1+", "1*/8", "8/1*", "1/8", "4|(1/8)", "1{2,5}/8"]
        {
            let choice = choose_plan(&norm(text), &s, 16);
            assert!(
                choice.chosen_cost <= choice.forward_cost,
                "{text}: chosen {} > forward {}",
                choice.chosen_cost,
                choice.forward_cost
            );
        }
    }

    #[test]
    fn rare_tail_prefers_a_non_forward_plan() {
        let s = stats();
        // `1*/8` (the `a*.b` rare-tail class): forward floods through the
        // common label before filtering on the rare one; sweeping from the
        // rare end first is cheaper.
        let choice = choose_plan(&norm("1*/8"), &s, 16);
        assert_ne!(choice.strategy, PlanStrategy::Forward);
        assert!(choice.chosen_cost < choice.forward_cost);
    }

    #[test]
    fn rare_branch_tail_wins_big_on_wide_batches() {
        let s = stats();
        // `(4|1)/8` (the `(c|a).b` class) over a wide batch: the forward
        // plan pays both branches' fan-out before the rare filter; the
        // backward sweep seeds from the rare label's tiny source set and
        // never floods.
        let choice = choose_plan(&norm("(4|1)/8"), &s, 64);
        assert_ne!(choice.strategy, PlanStrategy::Forward);
        assert!(
            choice.simulated_speedup_millis() >= 1500,
            "expected >= 1.5x simulated win, got {}x/1000",
            choice.simulated_speedup_millis()
        );
    }

    #[test]
    fn common_tail_keeps_the_forward_plan() {
        let s = stats();
        // `4?/1` ends in the *most common* label: the backward plan would
        // have to seed its useful-set pass from nearly every node, so the
        // honest price keeps left-to-right even though the query starts
        // with an optional (skippable) atom.
        let choice = choose_plan(&norm("4?/1"), &s, 16);
        assert_eq!(choice.strategy, PlanStrategy::Forward);
        assert_eq!(choice.chosen_cost, choice.forward_cost);
    }

    #[test]
    fn rare_head_keeps_the_forward_plan() {
        let s = stats();
        // `8/1*`: the rare label already leads, so left-to-right is optimal
        // and the fixed tie-break keeps it.
        let choice = choose_plan(&norm("8/1*"), &s, 16);
        assert_eq!(choice.strategy, PlanStrategy::Forward);
        assert_eq!(choice.chosen_cost, choice.forward_cost);
    }

    #[test]
    fn empty_stats_degenerate_to_forward() {
        let empty = LabelStatsSnapshot::default();
        for text in ["1/8", "1*/8", "(1|8)+", "."] {
            let choice = choose_plan(&norm(text), &empty, 8);
            assert_eq!(choice.strategy, PlanStrategy::Forward, "{text}");
        }
    }

    #[test]
    fn choice_is_deterministic() {
        let s = stats();
        let e = norm("1/(2|3)*/8");
        let a = choose_plan(&e, &s, 32);
        let b = choose_plan(&e, &s, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn rewritten_spellings_normalize_to_the_same_tree() {
        let s = stats();
        for text in ["1/2/3", "1/(2|3)*/4", "1*/8", "1/8", "1+", ".{2}", "(1|8)+"] {
            let e = norm(text);
            let choice = choose_plan(&e, &s, 16);
            for strat in [
                PlanStrategy::Forward,
                PlanStrategy::Bidirectional,
                choice.strategy,
                PlanStrategy::RareLabelSplit { split_at: 1 },
            ] {
                let respelt = rewritten_for(&e, strat);
                assert_eq!(
                    respelt.normalize(),
                    e,
                    "{text}: {} respelling must normalize back",
                    strat.describe()
                );
            }
        }
    }

    #[test]
    fn split_requires_a_mandatory_exact_pivot() {
        assert_eq!(leading_exact_label(&norm("8/1")), Some(Label(8)));
        assert_eq!(leading_exact_label(&norm("8+/1")), Some(Label(8)));
        assert_eq!(leading_exact_label(&norm("8*/1")), None);
        assert_eq!(leading_exact_label(&norm("(8|4)/1")), None);
        assert_eq!(leading_exact_label(&norm(".{2}")), None);
    }

    #[test]
    fn split_for_extracts_the_pivot_halves() {
        let e = norm("1*/8/1");
        let (prefix, suffix, pivot) = split_for(&e, 1).expect("mandatory pivot at 1");
        assert_eq!(pivot, Label(8));
        assert_eq!(prefix, norm("1*"));
        assert_eq!(suffix, norm("8/1"));
        assert!(split_for(&e, 0).is_none(), "split before the first part is meaningless");
        assert!(split_for(&e, 3).is_none(), "split past the last part is out of range");
        assert!(split_for(&norm("1|8"), 1).is_none(), "only concatenations split");
        assert!(split_for(&norm("1/8*/1"), 1).is_none(), "a nullable part cannot pivot");
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(PlanStrategy::Forward.describe(), "forward");
        assert_eq!(PlanStrategy::Bidirectional.describe(), "bidirectional");
        assert_eq!(PlanStrategy::RareLabelSplit { split_at: 3 }.describe(), "rare-split@3");
    }
}
