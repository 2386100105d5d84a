//! Shared generators of the plan property tests (`tests/plan_invariance.rs`,
//! `tests/plan_footprint_soundness.rs`).

use graph_store::Label;
use proptest::prelude::*;
use rpq::{LabelSpec, RpqExpr};

/// Random RPQ expressions over the generator's label alphabet (1..=8), with
/// the occasional any-label atom. Depth and width are kept small — plan
/// divergence comes from label skew, not from expression size.
pub struct ArbExpr;

impl Strategy for ArbExpr {
    type Value = RpqExpr;

    fn sample(&self, rng: &mut TestRng) -> RpqExpr {
        sample_expr(rng, 3)
    }
}

fn sample_expr(rng: &mut TestRng, depth: u32) -> RpqExpr {
    if depth == 0 || rng.below(3) == 0 {
        return if rng.below(7) == 0 {
            RpqExpr::Atom(LabelSpec::Any)
        } else {
            RpqExpr::Atom(LabelSpec::Exact(Label(1 + rng.below(8) as u16)))
        };
    }
    match rng.below(6) {
        0 => RpqExpr::Concat((0..2 + rng.below(2)).map(|_| sample_expr(rng, depth - 1)).collect()),
        1 => RpqExpr::Alt((0..2 + rng.below(2)).map(|_| sample_expr(rng, depth - 1)).collect()),
        2 => RpqExpr::Star(Box::new(sample_expr(rng, depth - 1))),
        3 => RpqExpr::Plus(Box::new(sample_expr(rng, depth - 1))),
        4 => RpqExpr::Optional(Box::new(sample_expr(rng, depth - 1))),
        _ => {
            let min = rng.below(3) as usize;
            let max = min + rng.below(3) as usize;
            RpqExpr::Repeat { expr: Box::new(sample_expr(rng, depth - 1)), min, max }
        }
    }
}

/// A labelled uniform graph under the default Zipf mix.
pub fn model(nodes: usize, seed: u64) -> graph_store::AdjacencyGraph {
    let topology = graph_gen::uniform::generate(nodes, 3.5, seed);
    graph_gen::labels::relabel(&topology, &graph_gen::labels::LabelMixConfig::default(), seed)
}
