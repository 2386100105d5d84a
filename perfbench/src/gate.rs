//! The correctness gate: every reply against `rpq::ReferenceEvaluator` on a
//! mirror graph that applies the same updates in the server's
//! `(at, client, seq)` order.

use crate::workload::{Op, Workload};
use graph_store::NodeId;
use moctopus_server::{Response, ResponseBody};
use std::collections::HashMap;
use std::fmt::Write as _;

/// FNV-1a, for digests that must match byte for byte.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in `bytes`.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds in `v` as one word (FNV-1a over 64-bit words). Each step is a
    /// bijection of the state, so a single differing word always changes
    /// the digest.
    pub fn u64(mut self, v: u64) -> Self {
        self.0 = (self.0 ^ v).wrapping_mul(0x0100_0000_01b3);
        self
    }

    /// Folds in a query answer: row count, then each row's length and ids.
    pub fn rows<'a>(mut self, rows: impl ExactSizeIterator<Item = &'a [NodeId]>) -> Self {
        self = self.u64(rows.len() as u64);
        for row in rows {
            self = self.u64(row.len() as u64);
            for node in row {
                self = self.u64(node.0);
            }
        }
        self
    }
}

/// What the gate needs from one reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// A query answer, by digest.
    Query(u64),
    /// An update, by the number of edges it changed.
    Update(usize),
}

impl Observed {
    /// Summarises a reply.
    pub fn of(reply: &Response) -> Observed {
        match &reply.body {
            ResponseBody::Query { results, .. } => {
                Observed::Query(Fnv::new().rows(results.iter().map(Vec::as_slice)).0)
            }
            ResponseBody::Update { stats, .. } => Observed::Update(stats.applied),
        }
    }
}

/// What is kept of one reply, so the client can drop the reply as soon as
/// it has drained it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Position of the request in its client's log.
    pub seq: usize,
    /// Digest of every byte the client can observe in the reply. `Debug`
    /// of the stats prints each `f64` in its shortest exact form.
    pub hash: u64,
    /// What the gate checks.
    pub observed: Observed,
}

impl Digest {
    /// Summarises the reply to request `seq`.
    pub fn of(seq: usize, reply: &Response) -> Digest {
        let observed = Observed::of(reply);
        let mut text = format!("{observed:?} ");
        let _ = match &reply.body {
            ResponseBody::Query { stats, cache, .. } => write!(text, "{stats:?} {cache:?}"),
            ResponseBody::Update { stats, invalidated } => write!(text, "{stats:?} {invalidated}"),
        };
        let hash = Fnv::new()
            .u64(reply.id.client.0 as u64)
            .u64(reply.id.seq)
            .u64(reply.at)
            .bytes(text.as_bytes())
            .0;
        Digest { seq, hash, observed }
    }
}

/// What the gate found.
#[derive(Debug, Clone, Copy, Default)]
pub struct GateReport {
    /// Replies checked.
    pub checked: u64,
    /// Query replies that differ from the reference, plus update replies
    /// whose applied-edge count differs from the mirror's.
    pub mismatches: u64,
}

/// Checks the replies (per client, in submission order; a request that
/// failed has no reply, and the mirror skips it too) against the reference.
pub fn check(workload: &Workload, replies: &[Vec<Digest>]) -> GateReport {
    let mut order: Vec<(u64, usize, usize)> = Vec::new();
    for (c, replies) in replies.iter().enumerate() {
        for (k, reply) in replies.iter().enumerate() {
            order.push((workload.logs[c][reply.seq].0, c, k));
        }
    }
    order.sort_unstable();

    let mut mirror = workload.base.graph.clone();
    // Reference rows per (query, source), valid until the mirror changes.
    let mut memo: HashMap<(&'static str, NodeId), Vec<NodeId>> = HashMap::new();
    let mut report = GateReport::default();
    for (_, c, k) in order {
        let reply = &replies[c][k];
        let op = &workload.logs[c][reply.seq].1;
        report.checked += 1;
        let want = match op {
            Op::Query { text, sources } => {
                let expr = rpq::parser::parse(text).expect("workload queries parse");
                let evaluator = rpq::ReferenceEvaluator::new(&mirror);
                for &s in sources {
                    memo.entry((*text, s)).or_insert_with(|| {
                        evaluator.evaluate(&expr, &[s]).remove(0).into_iter().collect()
                    });
                }
                let rows = sources.iter().map(|&s| memo[&(*text, s)].as_slice());
                Observed::Query(Fnv::new().rows(rows).0)
            }
            Op::Insert(edges) | Op::Delete(edges) => {
                let insert = matches!(op, Op::Insert(_));
                let applied = edges
                    .iter()
                    .filter(|&&(s, d, l)| {
                        if insert {
                            mirror.insert_edge(s, d, l)
                        } else {
                            mirror.remove_edge(s, d, l)
                        }
                    })
                    .count();
                if applied > 0 {
                    memo.clear();
                }
                Observed::Update(applied)
            }
        };
        if reply.observed != want {
            report.mismatches += 1;
        }
    }
    report
}
