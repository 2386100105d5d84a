//! Bench-side tracing: spans recorded around each layer's public calls.
//!
//! Nothing here reaches into the program. [`Traced`] is a `GraphEngine`
//! that forwards every trait method to the engine it wraps and records a
//! span around the call; the closed loop in `main.rs` records the request
//! and parse spans around `Session::submit`/`drain`. Spans stay in memory
//! ([`Recorder`]) and are folded into self times when a pass ends.

use graph_store::{Label, LabelStatsSnapshot, NodeId, SnapshotState};
use moctopus::{GraphEngine, QueryDeps, QueryStats, UpdateFootprint, UpdateStats};
use pim_sim::Timeline;
use rpq::{PlanStrategy, RpqExpr};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span covers; the layer is the prefix of its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A client request, from before parsing until its reply was drained.
    Request,
    /// Client-side parsing of the query text.
    Parse,
    /// A `ShardedEngine` call (the plane: scatter, pool, merge).
    ShardQuery,
    /// A `ShardedEngine` update broadcast.
    ShardUpdate,
    /// A `DurableEngine` update (WAL append, fsync, rotation, inner apply).
    WalUpdate,
    /// A forwarded `DurableEngine` query.
    WalQuery,
    /// A `MoctopusSystem` query call.
    CoreQuery,
    /// A `MoctopusSystem` update call.
    CoreUpdate,
    /// `rpq_batch_planned` on the outermost engine (the optimizer's shadow run).
    Planned,
    /// `label_stats` on the outermost engine (the optimizer's statistics read).
    LabelStats,
}

impl SpanKind {
    /// Stable span name, as written to a span dump.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "server.request",
            SpanKind::Parse => "rpq.parse",
            SpanKind::ShardQuery => "shard.query",
            SpanKind::ShardUpdate => "shard.update",
            SpanKind::WalUpdate => "wal.update",
            SpanKind::WalQuery => "wal.query",
            SpanKind::CoreQuery => "core.query",
            SpanKind::CoreUpdate => "core.update",
            SpanKind::Planned => "rpq.plan.shadow",
            SpanKind::LabelStats => "rpq.plan.label_stats",
        }
    }
}

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covers.
    pub kind: SpanKind,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// This span's id (1-based).
    pub id: u32,
    /// The enclosing span's id, 0 for a root.
    pub parent: u32,
    /// The request the recording thread was serving (its session's request;
    /// an engine call made while one session pumps another's request carries
    /// the pumping session's id, because that is the call stack it ran on).
    pub request: u32,
    /// Recording thread, numbered in first-use order.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Counts the layers report through their return values, accumulated by
/// the wrappers.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Simulated timeline of every executed call on the outermost engine,
    /// shadow runs excluded (what `ServeTotals::engine_time` sums).
    pub served_timeline: Timeline,
    /// Calls on the innermost engines (replicas).
    pub core_calls: u64,
    /// Frontier expansions reported by innermost query calls.
    pub expansions: u64,
    /// Matched pairs reported by innermost query calls.
    pub matched_pairs: u64,
    /// Query calls on the shard plane.
    pub plane_queries: u64,
    /// Query calls on replicas behind the shard plane.
    pub replica_queries: u64,
    /// Snapshot rotations observed.
    pub rotations: u64,
    /// Bytes the durable directory grew by, summed per file.
    pub wal_bytes: u64,
    /// Edges requested by WAL-logged updates.
    pub wal_edges: u64,
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
    /// This thread's number, assigned on first use.
    static THREAD: RefCell<Option<u32>> = const { RefCell::new(None) };
}

/// In-memory span store shared by every wrapper of one pass.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    next_thread: AtomicU32,
    /// The outermost engine span currently open. Engine calls are serialised
    /// by the server's core lock, so at most one exists; replica calls on
    /// shard-pool threads take it as their parent.
    engine_root: Mutex<Option<(u32, u32)>>,
    /// Counts gathered from the layers' return values.
    pub counters: Mutex<Counters>,
}

/// An open span; [`Recorder::close`] records it.
#[derive(Debug)]
pub struct Open {
    kind: SpanKind,
    start: u64,
    id: u32,
    parent: u32,
    request: u32,
    root: bool,
}

impl Recorder {
    /// A fresh recorder with its epoch at now.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
            next_thread: AtomicU32::new(0),
            engine_root: Mutex::new(None),
            counters: Mutex::new(Counters::default()),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span on this thread. `request` is set only by the closed
    /// loop; nested spans inherit their parent's request. An `engine_root`
    /// span is the outermost engine call, visible to pool threads.
    pub fn open(&self, kind: SpanKind, request: Option<u32>, engine_root: bool) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (mut parent, mut inherited) =
            STACK.with(|s| s.borrow().last().copied()).unwrap_or((0, 0));
        if parent == 0 {
            if let Some((root, root_request)) = *self.engine_root.lock().expect("recorder poisoned")
            {
                parent = root;
                inherited = root_request;
            }
        }
        let request = request.unwrap_or(inherited);
        STACK.with(|s| s.borrow_mut().push((id, request)));
        if engine_root {
            *self.engine_root.lock().expect("recorder poisoned") = Some((id, request));
        }
        Open { kind, start: self.now(), id, parent, request, root: engine_root }
    }

    /// Closes a span opened on this thread and records it.
    pub fn close(&self, open: Open) {
        let end = self.now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(s.last().map(|e| e.0), Some(open.id), "spans close innermost first");
            s.pop();
        });
        if open.root {
            *self.engine_root.lock().expect("recorder poisoned") = None;
        }
        let thread = THREAD.with(|t| {
            *t.borrow_mut().get_or_insert_with(|| self.next_thread.fetch_add(1, Ordering::Relaxed))
        });
        let span = Span {
            kind: open.kind,
            start: open.start,
            end,
            id: open.id,
            parent: open.parent,
            request: open.request,
            thread,
        };
        self.spans.lock().expect("recorder poisoned").push(span);
    }

    /// Takes every recorded span, sorted by id.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("recorder poisoned"));
        spans.sort_by_key(|s| s.id);
        spans
    }

    fn count(&self, f: impl FnOnce(&mut Counters)) {
        f(&mut self.counters.lock().expect("recorder poisoned"));
    }
}

/// Which layer a [`Traced`] wrapper stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `ShardedEngine`, the outermost engine.
    Shard,
    /// `DurableEngine`, the outermost engine.
    Wal,
    /// `MoctopusSystem` as the outermost engine.
    CoreTop,
    /// `MoctopusSystem` behind a shard plane or a durable engine.
    CoreInner,
}

impl Role {
    fn top(self) -> bool {
        self != Role::CoreInner
    }

    fn query_kind(self) -> SpanKind {
        match self {
            Role::Shard => SpanKind::ShardQuery,
            Role::Wal => SpanKind::WalQuery,
            Role::CoreTop | Role::CoreInner => SpanKind::CoreQuery,
        }
    }

    fn update_kind(self) -> SpanKind {
        match self {
            Role::Shard => SpanKind::ShardUpdate,
            Role::Wal => SpanKind::WalUpdate,
            Role::CoreTop | Role::CoreInner => SpanKind::CoreUpdate,
        }
    }

    fn core(self) -> bool {
        matches!(self, Role::CoreTop | Role::CoreInner)
    }
}

/// A labelled edge as the engines take it.
pub type Edge = (NodeId, NodeId, Label);

/// Hook run after each update call, outside its span (the WAL byte probe);
/// gets the batch and whether it was an insert.
pub type AfterUpdate<E> = Box<dyn FnMut(&E, &Recorder, &[Edge], bool) + Send>;

/// A transparent tracing wrapper: forwards **every** `GraphEngine` method
/// (the trait's defaults would silently change behaviour: a missing
/// `rpq_batch_tracked` reports `QueryDeps::all()`, a missing `label_stats`
/// hands the optimizer empty statistics) and records a span per call.
pub struct Traced<E> {
    inner: E,
    role: Role,
    rec: Arc<Recorder>,
    after_update: Option<AfterUpdate<E>>,
}

impl<E: GraphEngine> Traced<E> {
    /// Wraps `inner` as the given layer.
    pub fn new(inner: E, role: Role, rec: Arc<Recorder>) -> Self {
        Traced { inner, role, rec, after_update: None }
    }

    /// Installs a hook run after every update call.
    pub fn with_after_update(mut self, hook: AfterUpdate<E>) -> Self {
        self.after_update = Some(hook);
        self
    }

    fn query<R>(
        &mut self,
        kind: SpanKind,
        call: impl FnOnce(&mut E) -> R,
        stats: impl Fn(&R) -> QueryStats,
    ) -> R {
        let open = self.rec.open(kind, None, self.role.top());
        let out = call(&mut self.inner);
        self.rec.close(open);
        // A shadow run is the rpq layer's: neither served nor core work.
        if kind == SpanKind::Planned {
            return out;
        }
        let stats = stats(&out);
        let role = self.role;
        self.rec.count(|c| {
            if role.top() {
                c.served_timeline += stats.timeline;
            }
            match role {
                Role::Shard => c.plane_queries += 1,
                Role::CoreInner | Role::CoreTop => {
                    c.core_calls += 1;
                    c.expansions += stats.expansions as u64;
                    c.matched_pairs += stats.matched_pairs as u64;
                    if role == Role::CoreInner {
                        c.replica_queries += 1;
                    }
                }
                Role::Wal => {}
            }
        });
        out
    }

    fn update<R>(
        &mut self,
        edges: &[Edge],
        insert: bool,
        call: impl FnOnce(&mut E) -> R,
        stats: impl Fn(&R) -> UpdateStats,
    ) -> R {
        let open = self.rec.open(self.role.update_kind(), None, self.role.top());
        let out = call(&mut self.inner);
        self.rec.close(open);
        let stats = stats(&out);
        let role = self.role;
        self.rec.count(|c| {
            if role.top() {
                c.served_timeline += stats.timeline;
            }
            if role.core() {
                c.core_calls += 1;
            }
        });
        if let Some(hook) = self.after_update.as_mut() {
            hook(&self.inner, &self.rec, edges, insert);
        }
        out
    }
}

impl<E: GraphEngine> GraphEngine for Traced<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
        self.update(&[], true, |e| e.insert_edges(edges), |s| *s)
    }

    fn delete_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
        self.update(&[], false, |e| e.delete_edges(edges), |s| *s)
    }

    fn insert_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
        self.update(edges, true, |e| e.insert_labeled_edges(edges), |s| *s)
    }

    fn delete_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
        self.update(edges, false, |e| e.delete_labeled_edges(edges), |s| *s)
    }

    fn k_hop_batch(&mut self, sources: &[NodeId], k: usize) -> (Vec<Vec<NodeId>>, QueryStats) {
        let kind = self.role.query_kind();
        self.query(kind, |e| e.k_hop_batch(sources, k), |r| r.1)
    }

    fn rpq_batch(&mut self, expr: &RpqExpr, sources: &[NodeId]) -> (Vec<Vec<NodeId>>, QueryStats) {
        let kind = self.role.query_kind();
        self.query(kind, |e| e.rpq_batch(expr, sources), |r| r.1)
    }

    fn rpq_batch_planned(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
        strategy: PlanStrategy,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        let kind = if self.role.top() { SpanKind::Planned } else { SpanKind::CoreQuery };
        self.query(kind, |e| e.rpq_batch_planned(expr, sources, strategy), |r| r.1)
    }

    fn rpq_batch_tracked(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, QueryStats, QueryDeps) {
        let kind = self.role.query_kind();
        self.query(kind, |e| e.rpq_batch_tracked(expr, sources), |r| r.1)
    }

    fn insert_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        self.update(edges, true, |e| e.insert_labeled_edges_tracked(edges), |r| r.0)
    }

    fn delete_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        self.update(edges, false, |e| e.delete_labeled_edges_tracked(edges), |r| r.0)
    }

    fn edge_count(&self) -> usize {
        self.inner.edge_count()
    }

    fn set_threads(&mut self, threads: usize) {
        self.inner.set_threads(threads)
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn export_snapshot(&self) -> Option<SnapshotState> {
        self.inner.export_snapshot()
    }

    fn restore_snapshot(&mut self, snapshot: &SnapshotState) -> bool {
        self.inner.restore_snapshot(snapshot)
    }

    fn label_stats(&self) -> LabelStatsSnapshot {
        if !self.role.top() {
            return self.inner.label_stats();
        }
        let open = self.rec.open(SpanKind::LabelStats, None, true);
        let out = self.inner.label_stats();
        self.rec.close(open);
        out
    }

    fn export_rev_rows(&self) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
        self.inner.export_rev_rows()
    }
}

/// Length of the union of `intervals` (half-open, any order).
pub fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Each span's self time: its duration minus the union of its children's
/// intervals (children on any thread, clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&p) = index.get(&span.parent) {
            let parent = &spans[p];
            let (s, e) = (span.start.max(parent.start), span.end.min(parent.end));
            if s < e {
                children[p].push((s, e));
            }
        }
    }
    spans.iter().zip(children).map(|(s, c)| s.dur().saturating_sub(union_len(c))).collect()
}
