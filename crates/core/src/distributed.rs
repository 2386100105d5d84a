//! The distributed PIM execution engine: [`MoctopusSystem`].
//!
//! Moctopus and the PIM-hash contrast system differ only in *where rows are
//! placed* (greedy-adaptive partitioning with labor division versus plain
//! hashing); the operator processors, the communication accounting, and the
//! update machinery are identical. So they are one type with two
//! constructors, [`MoctopusSystem::new`] and [`MoctopusSystem::pim_hash`],
//! and the engine implements the shared machinery once:
//!
//! * every PIM module owns a [`LocalGraphStorage`] hash-map segment of the
//!   adjacency matrix;
//! * the host owns a [`HeterogeneousStorage`] for high-degree rows (empty when
//!   labor division is off, as in PIM-hash);
//! * batch k-hop queries are executed hop by hop: each frontier entry is
//!   expanded by the computing node that owns its row, produced next-hops that
//!   leave the module are charged as inter-PIM communication (forwarded by the
//!   CPU), and each hop's PIM latency is the *slowest* module (stragglers from
//!   load imbalance are therefore visible in the result, exactly as on the
//!   real platform);
//! * general regular path queries run the same hop loop over the *product* of
//!   the graph and the query automaton: frontier entries become
//!   `(node, nfa_state)` pairs and rows are filtered by edge label
//!   ([`GraphEngine::rpq_batch`]); the whole batch shares one sorted
//!   frontier, so a pair that several queries stand on is scanned once and
//!   what it produces is routed once; plain `.{k}` shapes take the k-hop
//!   fast path unchanged;
//! * batch updates are routed to the owning computing node and charged to the
//!   narrow CPU↔PIM bus plus the owner's compute budget; edge labels ride
//!   along, with the default label elided on the wire.
//!
//! # Parallel execution
//!
//! The per-hop work of both query loops runs on a
//! [`moctopus_runtime::WorkerPool`]: every hop is split into a *plan* stage
//! (dispatch accounting, worker layout), an embarrassingly parallel *execute*
//! stage (each worker owns a disjoint slice of PIM modules — worker 0 also
//! owns the host lane — and expands only the frontier entries its computing
//! nodes own, accumulating into a private [`StatsDelta`] and private frontier
//! scratch), and a deterministic *merge* stage (worker deltas reduce in
//! ascending worker-id order, candidate frontiers are sorted and deduplicated
//! on the calling thread). Disjoint ownership plus the id-ordered merge keep
//! every simulated number — including the order floating-point charges
//! accumulate in — byte-identical at any thread count; CONCURRENCY.md walks
//! the full argument.

use crate::config::MoctopusConfig;
use crate::deps::{QueryDeps, UpdateFootprint};
use crate::engine::GraphEngine;
use crate::stats::{QueryStats, StatsDelta, UpdateStats};
use graph_partition::{
    GreedyAdaptivePartitioner, HashPartitioner, MigrationReport, PartitionAssignment,
    PartitionMetrics, StreamingPartitioner,
};
use graph_store::{
    AdjacencyGraph, HeterogeneousStorage, HostRowSnapshot, Label, LabelStatsSnapshot,
    LocalGraphStorage, LocalModuleSnapshot, NodeId, PartitionId, SnapshotState,
};
use moctopus_runtime::{chunk_ranges, WorkerPool};
use pim_sim::{Phase, PimSystem, SimTime, Timeline};
use rpq::{optimizer, LabelSpec, Nfa, PlanStrategy, RpqExpr};
use sparse::EpochMarks;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Bytes of one routed frontier entry: the destination node id. An entry
/// that belongs to one query travels in that query's transfer buffer, so
/// only the node id crosses the bus (as in the paper's column-index result
/// matrices). A product entry shared by several queries of a batch also
/// carries its membership list, [`QUERY_ID_BYTES`] per member.
const ENTRY_BYTES: u64 = 8;
/// Bytes of one query id in the membership list of a routed product entry
/// shared by more than one query (`u32` batch index).
const QUERY_ID_BYTES: u64 = 4;
/// Bytes of one routed edge: (source id, destination id). Labelled edges
/// additionally carry [`LABEL_BYTES`]; the default [`Label::ANY`] is elided
/// on the wire (the untyped relationship is the protocol default).
const EDGE_BYTES: u64 = 16;
/// Bytes of one node id.
const ID_BYTES: u64 = 8;
/// Bytes of one edge label (`u16`), charged explicitly whenever a non-default
/// label crosses a bus or is scanned by a label-constrained traversal.
const LABEL_BYTES: u64 = 2;
/// Bytes of one NFA state id attached to a routed product-frontier entry
/// during general RPQ evaluation (`u16` state index).
const STATE_BYTES: u64 = 2;

/// What one frontier loop charges per row slot it scans and per entry it
/// routes. Both loops share every charge formula and differ in these widths;
/// the product loop also shares entries between the queries of a batch
/// ([`shared_entry_bytes`]).
#[derive(Debug, Clone, Copy)]
struct Widths {
    scan: u64,
    entry: u64,
}

/// The k-hop loop scans id arrays and routes bare node ids.
const KHOP_WIDTHS: Widths = Widths { scan: ID_BYTES, entry: ENTRY_BYTES };
/// The labelled product loop also scans the label array and routes the
/// automaton state along with each node id.
const PRODUCT_WIDTHS: Widths =
    Widths { scan: ID_BYTES + LABEL_BYTES, entry: ENTRY_BYTES + STATE_BYTES };

/// Wire bytes of one routed product entry whose membership list holds
/// `members` queries: the bare labelled entry for one query, plus the query
/// ids when the entry is shared.
fn shared_entry_bytes(members: usize) -> u64 {
    match members {
        1 => PRODUCT_WIDTHS.entry,
        k => PRODUCT_WIDTHS.entry + k as u64 * QUERY_ID_BYTES,
    }
}

/// Wire bytes of one edge label: the default label is elided, every other
/// label costs [`LABEL_BYTES`].
fn label_wire_bytes(label: Label) -> u64 {
    if label == Label::ANY {
        0
    } else {
        LABEL_BYTES
    }
}

/// Wire bytes of the label array of a whole migrated row (default labels
/// elided, as on the per-edge paths).
fn row_label_wire_bytes(row: &[(NodeId, Label)]) -> u64 {
    row.iter().map(|&(_, l)| label_wire_bytes(l)).sum()
}

/// Where a [`MoctopusSystem`] places rows; chosen by its constructor.
#[derive(Debug, Clone)]
enum PlacementPolicy {
    /// The paper's greedy-adaptive partitioner with labor division.
    GreedyAdaptive(GreedyAdaptivePartitioner),
    /// Consistent hashing over PIM modules (the PIM-hash contrast system).
    Hash(HashPartitioner),
}

impl PlacementPolicy {
    fn on_edge(&mut self, src: NodeId, dst: NodeId) {
        match self {
            PlacementPolicy::GreedyAdaptive(p) => p.on_edge(src, dst),
            PlacementPolicy::Hash(p) => p.on_edge(src, dst),
        }
    }

    fn on_edge_delete(&mut self, src: NodeId, dst: NodeId) {
        if let PlacementPolicy::GreedyAdaptive(p) = self {
            p.on_edge_delete(src, dst);
        }
    }

    fn partition_of(&self, node: NodeId) -> Option<PartitionId> {
        match self {
            PlacementPolicy::GreedyAdaptive(p) => p.partition_of(node),
            PlacementPolicy::Hash(p) => p.partition_of(node),
        }
    }

    fn assignment(&self) -> &PartitionAssignment {
        match self {
            PlacementPolicy::GreedyAdaptive(p) => p.assignment(),
            PlacementPolicy::Hash(p) => p.assignment(),
        }
    }
}

/// Reusable scratch state of the batch-frontier hop loop.
///
/// `k_hop_batch` is the innermost loop of every experiment binary, so its
/// working memory survives across hops, queries, and whole batches instead of
/// being allocated per hop:
///
/// * `marks` — one [`EpochMarks`] generation per `(query, hop)` deduplicates
///   produced next-hops in O(1) per entry, replacing the `sort` + `dedup`
///   over the duplicate-laden raw expansion;
/// * `pool` — recycled frontier buffers; each hop's spent frontiers are
///   returned to the pool and handed back out (capacity intact) as the next
///   hop's output buffers.
///
/// The scratch only changes *how* frontiers are materialised, never what the
/// cost model charges.
#[derive(Debug, Clone, Default)]
struct FrontierScratch {
    marks: EpochMarks,
    pool: Vec<Vec<NodeId>>,
}

impl FrontierScratch {
    /// Hands out an empty buffer, recycling capacity when the pool has one.
    fn take_buffer(&mut self) -> Vec<NodeId> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a spent buffer to the pool.
    fn recycle(&mut self, buf: Vec<NodeId>) {
        self.pool.push(buf);
    }
}

/// Per-worker context of one k-hop execute stage: the worker's private
/// dedup marks and buffer pool, plus its per-query candidate frontiers.
///
/// Everything in here is owned exclusively by one worker while the execute
/// stage runs (determinism rule 2: private scratch); the merge stage drains
/// `nexts` on the calling thread and the scratch survives inside the engine
/// across hops, queries, and batches.
#[derive(Debug, Clone, Default)]
struct HopCtx {
    scratch: FrontierScratch,
    nexts: Vec<Vec<NodeId>>,
}

impl HopCtx {
    /// Hands out one candidate buffer per query for the coming hop.
    fn prepare(&mut self, queries: usize) {
        debug_assert!(self.nexts.is_empty(), "previous hop must have drained the candidates");
        for _ in 0..queries {
            let buf = self.scratch.take_buffer();
            self.nexts.push(buf);
        }
    }
}

/// One entry of the shared product frontier: `(node, nfa_state, query)`.
/// A batch's frontier is one vector of these, sorted, so the member queries
/// of a `(node, state)` pair form one contiguous run: the *shared entry*.
type ProductEntry = (NodeId, u32, u32);

/// Packs a produced product entry into one sort key whose order is
/// `(node, state, query)`.
fn pack_entry(node: NodeId, state: u32, query: u32) -> u128 {
    (node.0 as u128) << 64 | (state as u128) << 32 | query as u128
}

/// Inverse of [`pack_entry`].
fn unpack_entry(key: u128) -> ProductEntry {
    (NodeId((key >> 64) as u64), (key >> 32) as u32, key as u32)
}

/// Per-worker context of one NFA-product execute stage: the hop's
/// productions as packed entries, one bucket per sending computing node
/// (slot `m` for PIM module `m`, the last slot for the host).
///
/// Sorting a sender's bucket groups its productions by destination pair,
/// which is both the unit a combined entry is routed in and the sender's
/// dedup of its candidates; the merge then drains the sorted buckets.
/// Unlike the k-hop loop the product traversal's cross-hop dedup lives in
/// the batch's global [`VisitedTable`], which only the merge consults.
#[derive(Debug, Clone, Default)]
struct NfaHopCtx {
    routes: Vec<Vec<u128>>,
}

/// The queries that reached one product pair.
#[derive(Clone, Copy)]
enum Members {
    /// Exactly one query, kept inline: an unshared pair allocates nothing.
    One(u32),
    /// Two or more queries: an index into [`VisitedTable`]'s ascending
    /// lists.
    List(usize),
}

/// The visited product pairs of one product batch: for every reached
/// `(node, state)` pair, the ascending ids of the queries that reached it.
///
/// This is every query's global visited set at once, stored pair-major like
/// the shared frontier. The merge visits candidates in `(node, state,
/// query)` order, so it looks a pair up once per candidate group instead of
/// taking one cold probe per candidate in per-query sets. A pair reached by
/// one query keeps its id inline; a shared pair holds one `u32` per member.
#[derive(Default)]
struct VisitedTable {
    rows: HashMap<(NodeId, u32), Members>,
    lists: Vec<Vec<u32>>,
}

impl VisitedTable {
    /// Marks `queries` (ascending, duplicate-free) as having reached
    /// `(node, state)`, and pushes `(node, state, q)` onto `fresh` for every
    /// query that had not reached it before, in ascending query order.
    fn admit(
        &mut self,
        node: NodeId,
        state: u32,
        queries: impl Iterator<Item = u32>,
        fresh: &mut Vec<ProductEntry>,
    ) {
        let first = fresh.len();
        let list = match self.rows.entry((node, state)) {
            Entry::Vacant(slot) => {
                fresh.extend(queries.map(|q| (node, state, q)));
                match fresh[first..] {
                    [] => {}
                    [(_, _, q)] => {
                        slot.insert(Members::One(q));
                    }
                    ref shared => {
                        slot.insert(Members::List(self.lists.len()));
                        self.lists.push(shared.iter().map(|&(_, _, q)| q).collect());
                    }
                }
                return;
            }
            Entry::Occupied(mut slot) => match *slot.get() {
                Members::One(known) => {
                    fresh.extend(queries.filter(|&q| q != known).map(|q| (node, state, q)));
                    if fresh.len() == first {
                        return;
                    }
                    slot.insert(Members::List(self.lists.len()));
                    self.lists.push(vec![known]);
                    self.lists.len() - 1
                }
                Members::List(i) => {
                    let members = &self.lists[i];
                    fresh.extend(
                        queries
                            .filter(|q| members.binary_search(q).is_err())
                            .map(|q| (node, state, q)),
                    );
                    if fresh.len() == first {
                        return;
                    }
                    i
                }
            },
        };
        // Two ascending runs: the stable sort merges them in linear time.
        let members = &mut self.lists[list];
        members.extend(fresh[first..].iter().map(|&(_, _, q)| q));
        members.sort();
    }

    /// Every visited pair with the queries that reached it, in arbitrary
    /// order.
    fn pairs(&self) -> impl Iterator<Item = ((NodeId, u32), &[u32])> + '_ {
        // moctopus-lint: allow(hash-iter-order, reason = "callers union pairs into commutative sets or into per-query answers they sort")
        self.rows.iter().map(|(&pair, members)| match members {
            Members::One(q) => (pair, std::slice::from_ref(q)),
            Members::List(i) => (pair, self.lists[*i].as_slice()),
        })
    }
}

/// The inputs a planned (non-forward) execution adds to the product loop.
/// The forward plan passes none of them.
struct PlannedLeg<'a> {
    /// The backward useful-set sweep and seed gathering, charged once as one
    /// bulk phase before dispatch.
    preamble: StatsDelta,
    /// Only useful pairs enter a frontier. The filter runs on merged state,
    /// after every candidate has entered `visited`: accepting pairs are
    /// usually not useful, and answers are read from `visited`.
    useful: Option<&'a HashSet<(NodeId, u32)>>,
    /// Answers are restricted to these nodes when read out of `visited`.
    accept_nodes: Option<&'a HashSet<NodeId>>,
}

/// Takes `workers` per-worker contexts out of the engine's `store`, growing
/// it on demand when the thread count rose since the last batch.
fn take_ctxs<T: Default>(store: &mut Vec<T>, workers: usize) -> Vec<T> {
    store.resize_with(workers.max(store.len()), T::default);
    store.drain(..workers).collect()
}

/// Returns contexts to the engine's `store` so their capacity survives into
/// the next batch.
fn put_ctxs<T>(store: &mut Vec<T>, mut ctxs: Vec<T>) {
    ctxs.append(store);
    *store = ctxs;
}

/// What one worker owns during a hop's execute stage: a contiguous slice of
/// PIM modules and, for worker 0 only, the host lane.
struct Lane {
    modules: Range<usize>,
    host: bool,
}

/// The k-hop merge stage: unions each query's per-worker candidate lists
/// into the hop's next frontier (worker-id order), sorts, and — when more
/// than one worker produced candidates — deduplicates entries that distinct
/// workers discovered independently.
///
/// The sequential loop's next frontier is the sorted set of all next-hops
/// produced this hop; worker-local epoch marks already make each candidate
/// list duplicate-free, so concatenate + sort + cross-worker dedup yields
/// exactly that set. With a single worker the candidate list *is* the
/// frontier (buffers are swapped, not copied), which is byte-for-byte the
/// sequential code path.
fn merge_khop_frontiers(ctxs: &mut [HopCtx], next_frontiers: &mut [Vec<NodeId>]) {
    if let [only] = ctxs {
        for (next, candidates) in next_frontiers.iter_mut().zip(only.nexts.iter_mut()) {
            std::mem::swap(next, candidates);
            next.sort_unstable();
        }
    } else {
        for (q, next) in next_frontiers.iter_mut().enumerate() {
            for ctx in ctxs.iter() {
                next.extend_from_slice(&ctx.nexts[q]);
            }
            next.sort_unstable();
            next.dedup();
        }
    }
    // Recycle every worker's spent candidate buffers into its own pool.
    for ctx in ctxs {
        for mut buf in ctx.nexts.drain(..) {
            buf.clear();
            ctx.scratch.recycle(buf);
        }
    }
}

/// The Moctopus PIM-based graph data management system, and — built with
/// [`MoctopusSystem::pim_hash`] — the PIM-hash contrast system: one
/// distributed engine over a simulated PIM platform whose placement is the
/// only thing the two constructors choose.
///
/// [`MoctopusSystem::new`] couples the engine with the paper's PIM-friendly
/// dynamic graph partitioning algorithm: labor division sends high-degree
/// rows to the host, the radical greedy heuristic keeps neighbouring
/// low-degree rows on the same PIM module, a dynamic 1.05× capacity
/// constraint maintains load balance, and the node migrator repairs
/// incorrectly partitioned rows detected during path matching.
///
/// # Examples
///
/// ```
/// use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem, NodeId};
///
/// let edges: Vec<(NodeId, NodeId)> = (0..32u64).map(|i| (NodeId(i), NodeId((i + 1) % 32))).collect();
/// let mut moctopus = MoctopusSystem::new(MoctopusConfig::small_test());
/// moctopus.insert_edges(&edges);
/// let (results, _stats) = moctopus.k_hop_batch(&[NodeId(4)], 2);
/// assert_eq!(results[0], vec![NodeId(6)]);
/// ```
#[derive(Debug, Clone)]
pub struct MoctopusSystem {
    config: MoctopusConfig,
    pim: PimSystem,
    policy: PlacementPolicy,
    local_stores: Vec<LocalGraphStorage>,
    host_store: HeterogeneousStorage,
    edge_count: usize,
    scratch: FrontierScratch,
    pool: WorkerPool,
    /// One private context per worker for each loop, persisted across
    /// batches so hot-loop buffers, marks and sets are never re-allocated
    /// per query (see `take_ctxs`).
    hop_ctxs: Vec<HopCtx>,
    nfa_ctxs: Vec<NfaHopCtx>,
}

impl MoctopusSystem {
    /// Creates an empty Moctopus deployment: greedy-adaptive placement with
    /// labor division.
    ///
    /// The execution runtime uses `config.threads` host worker threads
    /// (`0` = available parallelism); see [`GraphEngine::set_threads`].
    pub fn new(config: MoctopusConfig) -> Self {
        let partitioner = GreedyAdaptivePartitioner::with_config(config.partitioner_config());
        Self::with_policy(config, PlacementPolicy::GreedyAdaptive(partitioner))
    }

    /// Creates an empty PIM-hash deployment: the same engine with every
    /// graph node assigned to a PIM module by a consistent hash — the
    /// partitioning scheme used by distributed graph databases such as G-Tran
    /// and ByteGraph — and no labor division.
    ///
    /// Hash placement is oblivious to locality (nearly every next-hop crosses
    /// the narrow CPU↔PIM bus as inter-PIM traffic) and to skew (high-degree
    /// nodes overload individual modules), which is precisely what Figures 4
    /// and 5 measure against.
    ///
    /// # Examples
    ///
    /// ```
    /// use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem, NodeId};
    /// let mut system = MoctopusSystem::pim_hash(MoctopusConfig::small_test());
    /// system.insert_edges(&[(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
    /// let (results, _) = system.k_hop_batch(&[NodeId(0)], 2);
    /// assert_eq!(results[0], vec![NodeId(2)]);
    /// assert_eq!(system.name(), "PIM-hash");
    /// ```
    pub fn pim_hash(config: MoctopusConfig) -> Self {
        let partitioner = HashPartitioner::new(config.pim.num_modules);
        Self::with_policy(config, PlacementPolicy::Hash(partitioner))
    }

    fn with_policy(config: MoctopusConfig, policy: PlacementPolicy) -> Self {
        let pim = PimSystem::new(config.pim);
        let local_stores = (0..config.pim.num_modules).map(|_| LocalGraphStorage::new()).collect();
        MoctopusSystem {
            pool: WorkerPool::new(config.threads),
            config,
            pim,
            policy,
            local_stores,
            host_store: HeterogeneousStorage::new(),
            edge_count: 0,
            scratch: FrontierScratch::default(),
            hop_ctxs: Vec::new(),
            nfa_ctxs: Vec::new(),
        }
    }

    /// Streams an edge list through the placement and then runs one
    /// locality-refinement pass (a no-op under hash placement): the steady
    /// state a long-running deployment converges to.
    pub fn with_edge_stream(mut self, edges: &[(NodeId, NodeId)]) -> Self {
        self.insert_edges(edges);
        self.refine_locality();
        self
    }

    /// The hop loops' batch-level worker count for the current thread count.
    /// At most one worker per module, so extra threads idle rather than
    /// splitting a module's (order-sensitive) float accumulator.
    fn layout_width(&self) -> usize {
        self.pool.workers_for(self.config.pim.num_modules)
    }

    /// One hop's execute and merge stages, shared by both loops.
    ///
    /// Execute fans `work` out over the worker pool: each active worker owns
    /// one contiguous [`Lane`] of modules (worker 0 also the host lane) and
    /// fills its own context and delta. The worker count is the batch layout
    /// clamped by the hop's frontier size: a long-tail hop with three entries
    /// gets at most three workers, and an empty one still gets one so the
    /// merge has a delta to reduce. The determinism contract makes any clamp
    /// produce identical output, so this is purely a wall-clock decision.
    /// Merge reduces the deltas in worker-id order and charges the result.
    /// Returns the active worker count and the merged delta.
    fn run_hop<C: Send>(
        &mut self,
        ctxs: &mut [C],
        frontier_entries: usize,
        timeline: &mut Timeline,
        work: impl Fn(&Self, &Lane, &mut C) -> StatsDelta + Sync,
    ) -> (usize, StatsDelta) {
        let module_count = self.config.pim.num_modules;
        let active = ctxs.len().min(frontier_entries).max(1);
        let ranges = chunk_ranges(module_count, active);
        let this: &Self = self;
        let deltas = this.pool.run_with(&mut ctxs[..active], |worker, ctx| {
            work(this, &Lane { modules: ranges[worker].clone(), host: worker == 0 }, ctx)
        });
        let mut delta = StatsDelta::new(module_count);
        for worker_delta in &deltas {
            delta.merge(worker_delta);
        }
        self.charge_hop(&delta, timeline);
        (active, delta)
    }

    /// The system configuration.
    pub fn config(&self) -> &MoctopusConfig {
        &self.config
    }

    /// The current node-to-partition assignment.
    pub fn assignment(&self) -> &PartitionAssignment {
        self.policy.assignment()
    }

    /// Number of rows resident on the host (high-degree nodes).
    pub fn host_row_count(&self) -> usize {
        self.host_store.row_count()
    }

    /// Load-imbalance factor observed so far (max module busy time / mean).
    pub fn load_imbalance(&self) -> f64 {
        self.pim.load_imbalance()
    }

    /// The PIM module that stores the host-side supplementary maps for `row`
    /// (the `elem_position_map` / `free_list_map` shards).
    fn aux_module(&self, row: NodeId) -> usize {
        (row.0.wrapping_mul(0xff51_afd7_ed55_8ccd) % self.config.pim.num_modules as u64) as usize
    }

    /// Where the row of `node` currently lives, or `None` for a node no
    /// edge has named yet (it has no row anywhere).
    pub fn partition_of(&self, node: NodeId) -> Option<PartitionId> {
        self.policy.partition_of(node)
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// The shared insert loop; the unlabelled entry point streams `Label::ANY`
    /// in without materialising a labelled copy of the batch, and the tracked
    /// entry point passes a footprint for the host-store flag.
    fn insert_edges_impl(
        &mut self,
        edges: impl Iterator<Item = (NodeId, NodeId, Label)>,
        batch_len: usize,
        mut footprint: Option<&mut UpdateFootprint>,
    ) -> UpdateStats {
        // Update batches mutate the stores and the partitioner, so they stay
        // sequential; the shared `StatsDelta` accumulator replaces the loose
        // `&mut` counters the loop used to thread through every helper.
        let mut delta = StatsDelta::new(self.config.pim.num_modules);

        for (src, dst, label) in edges {
            // Partitioning decision happens on edge arrival (radical greedy).
            let before = self.partition_of(src);
            self.policy.on_edge(src, dst);
            // moctopus-lint: allow(panic-in-lib, reason = "on_edge unconditionally assigns src an owner on the line above")
            let after = self.partition_of(src).expect("source was just assigned");
            // Labor division: the node may have just crossed the threshold.
            if let (Some(PartitionId::Pim(old)), PartitionId::Host) = (before, after) {
                self.promote_to_host(src, old as usize, &mut delta);
            }
            if let Some(fp) = footprint.as_deref_mut() {
                // Host-store bytes move when the row is (or becomes)
                // host-resident — a promotion installs the row there.
                fp.host_store |= after == PartitionId::Host;
            }

            match after {
                PartitionId::Host => {
                    // Heterogeneous storage: PIM side checks existence and
                    // allocates the slot, host writes one position.
                    let outcome = self.host_store.insert_edge(src, dst, label);
                    let aux = self.aux_module(src);
                    delta.per_module[aux] += self.pim.pim_hash_lookup_cost(ID_BYTES)
                        * outcome.cost.pim_lookups as f64
                        + self.pim.pim_instructions_cost(60 * outcome.cost.pim_mutations);
                    delta.host_time +=
                        self.pim.host_sequential_read_cost(outcome.cost.host_bytes_written)
                            + self.pim.host_instructions_cost(40);
                    // The host exchanges a small request/response with the PIM
                    // side to learn the slot position.
                    delta.cpu_to_pim_bytes += EDGE_BYTES + label_wire_bytes(label);
                    delta.pim_to_cpu_bytes += ID_BYTES;
                    if outcome.changed {
                        delta.applied += 1;
                        self.edge_count += 1;
                        self.mirror_rev_insert(src, dst, label, &mut delta, &mut footprint);
                    }
                }
                PartitionId::Pim(m) => {
                    let m = m as usize;
                    delta.cpu_to_pim_bytes += EDGE_BYTES + label_wire_bytes(label);
                    let row_bytes = self.local_stores[m]
                        .row(src)
                        .map(|r| r.len() as u64 * ID_BYTES)
                        .unwrap_or(0);
                    delta.per_module[m] += self.pim.pim_hash_lookup_cost(row_bytes)
                        + self.pim.mram_write_cost(ID_BYTES + label_wire_bytes(label));
                    if self.local_stores[m].insert_edge(src, dst, label).is_ok() {
                        delta.applied += 1;
                        self.edge_count += 1;
                        self.mirror_rev_insert(src, dst, label, &mut delta, &mut footprint);
                    }
                }
            }
        }

        self.charge_update_delta(delta, batch_len)
    }

    /// Mirrors one **applied** labelled insert into the in-adjacency index at
    /// the destination row's owner (reverse rows colocate with the node's
    /// forward placement, so backward sweeps read them without extra
    /// routing). The mirrored write is charged explicitly: a PIM-resident
    /// reverse row pays the CPU→PIM routing of the edge plus one MRAM entry
    /// write; a host-resident one pays the host-side write (no bus crossing —
    /// the host coordinator already holds the edge).
    ///
    /// The mirror can never independently fail: the forward store just
    /// deduplicated the edge, and reverse rows are an unbounded secondary
    /// index (no capacity gate — see STORAGE.md).
    fn mirror_rev_insert(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: Label,
        delta: &mut StatsDelta,
        footprint: &mut Option<&mut UpdateFootprint>,
    ) {
        // Both partitioners assign the destination an owner on edge arrival,
        // so the lookup only misses for nodes outside the stream (defensive).
        let Some(rev_owner) = self.partition_of(dst) else { return };
        if let Some(fp) = footprint.as_deref_mut() {
            fp.host_store |= rev_owner == PartitionId::Host;
        }
        match rev_owner {
            PartitionId::Host => {
                let _ = self.host_store.insert_rev_edge(dst, src, label);
                delta.host_time +=
                    self.pim.host_sequential_read_cost(ID_BYTES + label_wire_bytes(label));
            }
            PartitionId::Pim(m) => {
                let m = m as usize;
                delta.cpu_to_pim_bytes += EDGE_BYTES + label_wire_bytes(label);
                delta.per_module[m] += self.pim.mram_write_cost(ID_BYTES + label_wire_bytes(label));
                let _ = self.local_stores[m].insert_rev_edge(dst, src, label);
            }
        }
    }

    /// Mirror of [`MoctopusSystem::mirror_rev_insert`] for the delete
    /// path: removes the reverse entry at the destination row's owner and
    /// charges the mirrored write identically.
    fn mirror_rev_delete(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: Label,
        delta: &mut StatsDelta,
        footprint: &mut Option<&mut UpdateFootprint>,
    ) {
        let Some(rev_owner) = self.partition_of(dst) else { return };
        if let Some(fp) = footprint.as_deref_mut() {
            fp.host_store |= rev_owner == PartitionId::Host;
        }
        match rev_owner {
            PartitionId::Host => {
                let _ = self.host_store.remove_rev_edge(dst, src, label);
                delta.host_time +=
                    self.pim.host_sequential_read_cost(ID_BYTES + label_wire_bytes(label));
            }
            PartitionId::Pim(m) => {
                let m = m as usize;
                delta.cpu_to_pim_bytes += EDGE_BYTES + label_wire_bytes(label);
                delta.per_module[m] += self.pim.mram_write_cost(ID_BYTES + label_wire_bytes(label));
                let _ = self.local_stores[m].remove_rev_edge(dst, src, label);
            }
        }
    }

    /// Converts one update batch's accumulated [`StatsDelta`] into the
    /// reported [`UpdateStats`] (the barrier of the update path).
    fn charge_update_delta(&mut self, delta: StatsDelta, batch_len: usize) -> UpdateStats {
        let mut timeline = Timeline::new();
        let pim_time = self.pim.parallel_step(&delta.per_module);
        timeline.charge(Phase::PimCompute, pim_time);
        timeline.charge(Phase::HostCompute, delta.host_time);
        timeline.charge(
            Phase::Cpc,
            self.pim.cpc_transfer_cost(delta.cpu_to_pim_bytes)
                + self.pim.cpc_transfer_cost(delta.pim_to_cpu_bytes),
        );
        timeline.transfers.record_cpu_to_pim(delta.cpu_to_pim_bytes, batch_len as u64);
        timeline.transfers.record_pim_to_cpu(delta.pim_to_cpu_bytes, 1);
        UpdateStats { timeline, requested: batch_len, applied: delta.applied }
    }

    /// The shared delete loop; see [`MoctopusSystem::insert_edges_impl`].
    fn delete_edges_impl(
        &mut self,
        edges: impl Iterator<Item = (NodeId, NodeId, Label)>,
        batch_len: usize,
        mut footprint: Option<&mut UpdateFootprint>,
    ) -> UpdateStats {
        let mut delta = StatsDelta::new(self.config.pim.num_modules);

        for (src, dst, label) in edges {
            self.policy.on_edge_delete(src, dst);
            let Some(owner) = self.partition_of(src) else { continue };
            if let Some(fp) = footprint.as_deref_mut() {
                fp.host_store |= owner == PartitionId::Host;
            }
            match owner {
                PartitionId::Host => {
                    let outcome = self.host_store.delete_edge(src, dst, label);
                    let aux = self.aux_module(src);
                    delta.per_module[aux] += self.pim.pim_hash_lookup_cost(ID_BYTES)
                        * outcome.cost.pim_lookups.max(1) as f64
                        + self.pim.pim_instructions_cost(60 * outcome.cost.pim_mutations);
                    delta.host_time +=
                        self.pim.host_sequential_read_cost(outcome.cost.host_bytes_written)
                            + self.pim.host_instructions_cost(40);
                    delta.cpu_to_pim_bytes += EDGE_BYTES + label_wire_bytes(label);
                    delta.pim_to_cpu_bytes += ID_BYTES;
                    if outcome.changed {
                        delta.applied += 1;
                        self.edge_count -= 1;
                        self.mirror_rev_delete(src, dst, label, &mut delta, &mut footprint);
                    }
                }
                PartitionId::Pim(m) => {
                    let m = m as usize;
                    delta.cpu_to_pim_bytes += EDGE_BYTES + label_wire_bytes(label);
                    let row_bytes = self.local_stores[m]
                        .row(src)
                        .map(|r| r.len() as u64 * ID_BYTES)
                        .unwrap_or(0);
                    delta.per_module[m] += self.pim.pim_hash_lookup_cost(row_bytes)
                        + self.pim.mram_write_cost(ID_BYTES + label_wire_bytes(label));
                    if self.local_stores[m].remove_edge(src, dst, label).is_ok() {
                        delta.applied += 1;
                        self.edge_count -= 1;
                        self.mirror_rev_delete(src, dst, label, &mut delta, &mut footprint);
                    }
                }
            }
        }

        self.charge_update_delta(delta, batch_len)
    }

    /// Moves a newly promoted high-degree row from its PIM module to the host
    /// (the Node Migrator of Figure 1), charging into the batch's delta.
    fn promote_to_host(&mut self, node: NodeId, old_module: usize, delta: &mut StatsDelta) {
        if let Some(row) = self.local_stores[old_module].take_row(node) {
            let bytes = row.len() as u64 * ID_BYTES + row_label_wire_bytes(&row);
            delta.per_module[old_module] += self.pim.mram_read_cost(bytes);
            delta.pim_to_cpu_bytes += bytes;
            let cost = self.host_store.install_row(node, row);
            delta.host_time += self.pim.host_sequential_read_cost(cost.host_bytes_written);
        }
        // The reverse row rides along: in-adjacency colocates with the node's
        // forward placement, so it is read from the old module and written
        // into the host-side secondary index.
        if let Some(rev) = self.local_stores[old_module].take_rev_row(node) {
            let bytes = rev.len() as u64 * ID_BYTES + row_label_wire_bytes(&rev);
            delta.per_module[old_module] += self.pim.mram_read_cost(bytes);
            delta.pim_to_cpu_bytes += bytes;
            delta.host_time += self.pim.host_sequential_read_cost(bytes);
            self.host_store.install_rev_row(node, rev);
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Source dispatch: every source that lives on a PIM module is shipped to
    /// it (the Q matrix rows of the execution plan), `entry` bytes each.
    fn charge_dispatch(&self, sources: &[NodeId], entry: u64, timeline: &mut Timeline) {
        let bytes = sources
            .iter()
            .filter(|&&s| matches!(self.partition_of(s), Some(PartitionId::Pim(_))))
            .count() as u64
            * entry;
        timeline.charge(Phase::Cpc, self.pim.cpc_transfer_cost(bytes));
        timeline.transfers.record_cpu_to_pim(bytes, 1);
    }

    /// One row scan of `bytes` by the computing node `at`: a hash lookup on a
    /// PIM module, or a random access plus a sequential read on the host
    /// (`host_resident_bytes` sizes the host's working set).
    fn charge_scan(
        &self,
        at: PartitionId,
        bytes: u64,
        host_resident_bytes: u64,
        delta: &mut StatsDelta,
    ) {
        match at {
            PartitionId::Host => {
                delta.host_time += self.pim.host_random_access_cost(1, host_resident_bytes)
                    + self.pim.host_sequential_read_cost(bytes);
            }
            PartitionId::Pim(m) => {
                delta.per_module[m as usize] += self.pim.pim_hash_lookup_cost(bytes);
            }
        }
    }

    /// One produced entry for `to`, routed out of the computing node `from`.
    /// It is free when it stays on its module, or stays on the host. From a
    /// module it is either forwarded to another module (IPC) or gathered to
    /// the host (CPC); from the host it is shipped to the owning module (CPC).
    fn charge_route(&self, from: PartitionId, to: NodeId, entry: u64, delta: &mut StatsDelta) {
        match (from, self.partition_of(to)) {
            (PartitionId::Pim(m), Some(PartitionId::Pim(m2))) if m == m2 => {}
            (PartitionId::Pim(_), Some(PartitionId::Pim(_))) => {
                delta.ipc_bytes += entry;
                delta.ipc_messages += 1;
            }
            (PartitionId::Host, Some(PartitionId::Pim(_))) | (PartitionId::Pim(_), _) => {
                delta.cpc_bytes += entry;
            }
            (PartitionId::Host, _) => {}
        }
    }

    /// The computing node `at` copies a `members`-query membership list into
    /// one outgoing entry: one instruction per member, on the module (or the
    /// host) that expands the shared entry.
    fn charge_membership_copy(&self, at: PartitionId, members: usize, delta: &mut StatsDelta) {
        match at {
            PartitionId::Host => delta.host_time += self.pim.host_instructions_cost(members as u64),
            PartitionId::Pim(m) => {
                delta.per_module[m as usize] += self.pim.pim_instructions_cost(members as u64);
            }
        }
    }

    /// Charges one merged hop delta: the slowest module, the host compute,
    /// the CPC gather, and inter-PIM forwarding. UPMEM has no hardware path
    /// for the latter: besides the double bus crossing, the host CPU inspects
    /// and re-routes every forwarded entry in software (~25 instructions
    /// each).
    fn charge_hop(&mut self, delta: &StatsDelta, timeline: &mut Timeline) {
        let pim_time = self.pim.parallel_step(&delta.per_module);
        timeline.charge(Phase::PimCompute, pim_time);
        timeline.charge(Phase::HostCompute, delta.host_time);
        timeline.charge(Phase::Cpc, self.pim.cpc_transfer_cost(delta.cpc_bytes));
        timeline.transfers.record_pim_to_cpu(delta.cpc_bytes, 1);
        timeline.charge(
            Phase::Ipc,
            self.pim.ipc_transfer_cost(delta.ipc_bytes)
                + self.pim.host_instructions_cost(delta.ipc_messages * 25),
        );
        timeline.transfers.record_inter_pim(delta.ipc_bytes, delta.ipc_messages);
    }

    /// Host time to reduce `matched_pairs` answers read from `bytes` of
    /// partial results.
    fn reduce_cost(&self, bytes: u64, matched_pairs: usize) -> SimTime {
        self.pim.host_sequential_read_cost(bytes)
            + self.pim.host_instructions_cost(matched_pairs as u64 * 8)
    }

    /// Reduction (`mwait`): gathers every query's answers to the host and
    /// merges the per-module partial results.
    fn charge_gather_reduce(&self, matched_pairs: usize, timeline: &mut Timeline) {
        let gather_bytes = matched_pairs as u64 * ENTRY_BYTES;
        timeline.charge(Phase::Cpc, self.pim.cpc_transfer_cost(gather_bytes));
        timeline.transfers.record_pim_to_cpu(gather_bytes, 1);
        timeline.charge(Phase::Reduce, self.reduce_cost(gather_bytes, matched_pairs));
    }

    /// The forward plan, shared by the plain and tracked entry points: k-hop
    /// shapes run the k-hop loop, everything else the NFA product; `track`
    /// collects the dependency footprint when given.
    fn forward(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
        track: Option<&mut QueryDeps>,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        match expr.as_k_hop() {
            Some(k) => self.k_hop_batch_impl(sources, k, track),
            None => self.nfa_product_batch_impl(&Nfa::from_expr(expr), sources, track, None),
        }
    }

    /// Answers a batch k-hop path query with full cost accounting.
    ///
    /// The hop loop is a batch-frontier engine: owner lookups are single
    /// dense-directory loads, produced next-hops are deduplicated with
    /// epoch-stamped markers as they are pushed (the raw expansion is never
    /// materialised), and frontier buffers are recycled across hops and
    /// queries. Each hop runs as plan → execute → merge: the execute stage
    /// fans the frontier out over the worker pool (disjoint module ownership,
    /// private scratch), and the merge stage reduces the per-worker
    /// [`StatsDelta`]s in worker-id order and sorts the merged candidate
    /// frontiers. Every simulated charge — cpc/ipc/mram byte and
    /// instruction — is identical to the naive sequential formulation at any
    /// thread count, including the order float charges accumulate in, so
    /// same-seed experiment outputs do not move.
    ///
    /// The caller passes a deps accumulator to track the execution's
    /// dependency footprint: the bucket of every visited node (sources and
    /// every hop's merged frontier) and whether the host lane expanded a row.
    /// Tracking reads only merged, thread-count-invariant state, so the deps
    /// — like the stats — are byte-identical at every thread count, and no
    /// simulated charge moves; `None` adds zero work.
    fn k_hop_batch_impl(
        &mut self,
        sources: &[NodeId],
        k: usize,
        mut track: Option<&mut QueryDeps>,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        let mut timeline = Timeline::new();
        let mut expansions = 0usize;

        // ---- plan: dispatch accounting and worker layout -----------------
        self.charge_dispatch(sources, KHOP_WIDTHS.entry, &mut timeline);
        let width = self.layout_width();
        let mut ctxs = take_ctxs(&mut self.hop_ctxs, width);

        if let Some(deps) = track.as_deref_mut() {
            for &s in sources {
                deps.nodes.insert(s);
            }
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut frontiers: Vec<Vec<NodeId>> = sources
            .iter()
            .map(|&s| {
                let mut f = scratch.take_buffer();
                f.push(s);
                f
            })
            .collect();
        // The second half of the double buffer; swapped with `frontiers`
        // every hop, its spent buffers recycled into the pool.
        let mut next_frontiers: Vec<Vec<NodeId>> = Vec::with_capacity(frontiers.len());

        for _hop in 0..k {
            // Every frontier entry counts as one expansion, whoever owns it.
            let frontier_entries = frontiers.iter().map(Vec::len).sum::<usize>();
            expansions += frontier_entries;

            // ---- execute over module slices, id-ordered delta reduction ---
            let (active, delta) =
                self.run_hop(&mut ctxs, frontier_entries, &mut timeline, |this, lane, ctx| {
                    this.khop_hop_worker(lane, &frontiers, ctx)
                });

            // ---- merge: frontier union ------------------------------------
            next_frontiers.clear();
            for _ in 0..frontiers.len() {
                let buf = scratch.take_buffer();
                next_frontiers.push(buf);
            }
            merge_khop_frontiers(&mut ctxs[..active], &mut next_frontiers);
            std::mem::swap(&mut frontiers, &mut next_frontiers);
            for spent in next_frontiers.drain(..) {
                scratch.recycle(spent);
            }
            if let Some(deps) = track.as_deref_mut() {
                // Merged state only: the hop's frontier union and the merged
                // delta are thread-count invariant, so the deps are too.
                deps.host_lane |= !delta.host_time.is_zero();
                for frontier in &frontiers {
                    for &v in frontier {
                        deps.nodes.insert(v);
                    }
                }
            }
        }
        self.scratch = scratch;
        put_ctxs(&mut self.hop_ctxs, ctxs);

        let matched_pairs: usize = frontiers.iter().map(Vec::len).sum();
        self.charge_gather_reduce(matched_pairs, &mut timeline);
        let stats =
            QueryStats { timeline, batch_size: sources.len(), hops: k, matched_pairs, expansions };
        (frontiers, stats)
    }

    /// One worker's share of a k-hop execute stage.
    ///
    /// The worker walks **every** query's frontier in global order but
    /// expands only the entries whose row lives on one of its modules (or on
    /// the host, for the host-lane worker), so each `per_module` slot — and
    /// `host_time` — receives its floating-point charges in exactly the
    /// sequential order. Produced next-hops are deduplicated per
    /// `(query, hop)` with the worker's private epoch marks; transfer bytes
    /// are still charged per produced entry, exactly as in the sequential
    /// loop.
    fn khop_hop_worker(
        &self,
        lane: &Lane,
        frontiers: &[Vec<NodeId>],
        ctx: &mut HopCtx,
    ) -> StatsDelta {
        let mut delta = StatsDelta::new(self.config.pim.num_modules);
        ctx.prepare(frontiers.len());
        for (q, frontier) in frontiers.iter().enumerate() {
            let next = &mut ctx.nexts[q];
            // One marker generation per (query, hop): a produced entry is
            // pushed only on first sight, so the candidate list is
            // duplicate-free (within this worker) by construction.
            ctx.scratch.marks.next_epoch();
            for &v in frontier {
                self.expand_row(lane, v, KHOP_WIDTHS.scan, &mut delta, |delta, at, u, _| {
                    self.charge_route(at, u, KHOP_WIDTHS.entry, delta);
                    if ctx.scratch.marks.mark(u.index()) {
                        next.push(u);
                    }
                });
            }
        }
        delta
    }

    /// Expands `v`'s row if `lane` owns it: charges the scan of every slot
    /// (free host slots too) at `scan` bytes each, then visits the live
    /// labelled out-edges in row order, with the computing node that expands
    /// them. Rows on another worker's module are skipped, as are nodes that
    /// never appeared in the edge stream (no outgoing edges).
    fn expand_row(
        &self,
        lane: &Lane,
        v: NodeId,
        scan: u64,
        delta: &mut StatsDelta,
        mut visit: impl FnMut(&mut StatsDelta, PartitionId, NodeId, Label),
    ) {
        let host_resident_bytes = self.host_store.live_bytes();
        match self.partition_of(v) {
            Some(at @ PartitionId::Host) if lane.host => {
                let bytes = self.host_store.slot_count(v) as u64 * scan;
                self.charge_scan(at, bytes, host_resident_bytes, delta);
                for (u, label) in self.host_store.neighbors_iter(v) {
                    visit(delta, at, u, label);
                }
            }
            Some(at @ PartitionId::Pim(m)) if lane.modules.contains(&(m as usize)) => {
                let row = self.local_stores[m as usize].row(v).unwrap_or(&[]);
                self.charge_scan(at, row.len() as u64 * scan, host_resident_bytes, delta);
                for &(u, label) in row {
                    visit(delta, at, u, label);
                }
            }
            _ => {}
        }
    }

    /// All nodes with at least one `spec`-matching outgoing edge, ascending.
    ///
    /// Exact labels read the per-store label statistics — maintained
    /// incrementally by every mutation path, never by rescanning rows — whose
    /// distinct-source sets are exact under the one-store-per-row invariant.
    /// The any-label case walks the store row directories instead. Charged as
    /// one host-side pass over the gathered id list.
    fn spec_sources(&self, spec: LabelSpec, delta: &mut StatsDelta) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = Vec::new();
        match spec {
            LabelSpec::Exact(l) => {
                for store in &self.local_stores {
                    ids.extend(store.label_stats().sources_of(l));
                }
                ids.extend(self.host_store.label_stats().sources_of(l));
            }
            LabelSpec::Any => {
                for store in &self.local_stores {
                    for (src, row) in store.iter() {
                        if !row.is_empty() {
                            ids.push(src);
                        }
                    }
                }
                for (src, row) in self.host_store.iter() {
                    if !row.is_empty() {
                        ids.push(src);
                    }
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        delta.host_time += self.pim.host_sequential_read_cost(ids.len() as u64 * ID_BYTES);
        ids
    }

    /// The in-adjacency row of `node`, read from wherever the node's forward
    /// row lives (the colocation invariant).
    fn rev_row_of(&self, node: NodeId) -> &[(NodeId, Label)] {
        match self.partition_of(node) {
            Some(PartitionId::Host) => self.host_store.rev_row(node).unwrap_or(&[]),
            Some(PartitionId::Pim(m)) => self.local_stores[m as usize].rev_row(node).unwrap_or(&[]),
            None => &[],
        }
    }

    /// Charges one backward scan of `node`'s reverse row into `delta`
    /// (id + label arrays, like the forward label-constrained scans; the
    /// host's working set includes its reverse rows).
    fn charge_rev_scan(&self, node: NodeId, delta: &mut StatsDelta) {
        if let Some(at) = self.partition_of(node) {
            let bytes = self.rev_row_of(node).len() as u64 * PRODUCT_WIDTHS.scan;
            let resident = self.host_store.live_bytes() + self.host_store.rev_bytes();
            self.charge_scan(at, bytes, resident, delta);
        }
    }

    /// The bidirectional plan's *useful set*: every product pair
    /// `(node, state)` from which at least one more transition can reach an
    /// accepting pair, computed by sweeping the reversed automaton backward
    /// over the in-adjacency index. With `accept_nodes` given (the split
    /// plan's prefix leg), acceptance is additionally restricted to those
    /// nodes, so the base seeds come from their reverse rows.
    ///
    /// Soundness of the downstream pruning: on any accepting product path,
    /// every pair except the final accepting one has a transition into the
    /// rest of the path, so it is in the useful set — restricting forward
    /// frontiers to useful pairs drops no answer. The computation is
    /// sequential and touches only sorted rows and sorted seed lists, so the
    /// charges it accumulates are deterministic; the set itself is a fixpoint
    /// (discovery order is irrelevant to membership).
    fn useful_pairs(
        &self,
        nfa: &Nfa,
        accept_nodes: Option<&[NodeId]>,
        delta: &mut StatsDelta,
    ) -> HashSet<(NodeId, u32)> {
        let rev = nfa.reversed_transitions();
        let mut useful: HashSet<(NodeId, u32)> = HashSet::new();
        let mut work: Vec<(NodeId, u32)> = Vec::new();

        // Base: pairs one matching transition away from an accepting pair.
        // Every discovered pair is gathered to the coordinating host.
        let base: Vec<(LabelSpec, usize)> = rev
            .iter()
            .enumerate()
            .filter(|&(q_acc, _)| nfa.is_accepting(q_acc))
            .flat_map(|(_, rev_row)| rev_row.iter().copied())
            .collect();
        match accept_nodes {
            None => {
                for &(spec, from) in &base {
                    for n in self.spec_sources(spec, delta) {
                        if useful.insert((n, from as u32)) {
                            work.push((n, from as u32));
                            delta.cpc_bytes += PRODUCT_WIDTHS.entry;
                        }
                    }
                }
            }
            // Each accept node's reverse row is scanned once, and every
            // base transition is tested against each of its slots.
            Some(_) if base.is_empty() => {}
            Some(ms) => {
                for &m in ms {
                    self.charge_rev_scan(m, delta);
                    for &(n, label) in self.rev_row_of(m) {
                        for &(spec, from) in &base {
                            if spec.matches(label) && useful.insert((n, from as u32)) {
                                work.push((n, from as u32));
                                delta.cpc_bytes += PRODUCT_WIDTHS.entry;
                            }
                        }
                    }
                }
            }
        }

        // Closure: walk product transitions backward over reverse rows. A
        // popped pair scans its node's reverse row once and tests every
        // reverse transition of its state against each slot.
        while let Some((n, q)) = work.pop() {
            let transitions = &rev[q as usize];
            if transitions.is_empty() {
                continue;
            }
            self.charge_rev_scan(n, delta);
            for &(m, label) in self.rev_row_of(n) {
                for &(spec, p) in transitions {
                    if spec.matches(label) && useful.insert((m, p as u32)) {
                        work.push((m, p as u32));
                        delta.cpc_bytes += PRODUCT_WIDTHS.entry;
                    }
                }
            }
        }
        useful
    }

    /// Executes the rare-label-split plan: the suffix automaton runs forward
    /// (unpruned) from the pivot label's exact source set, the prefix
    /// automaton runs pruned from the query sources with acceptance
    /// restricted to those pivot sources, and the per-source answers are
    /// joined on the host (charged as one reduce pass over the rows read out
    /// of the suffix answer table).
    fn split_product(
        &mut self,
        prefix: &RpqExpr,
        suffix: &RpqExpr,
        pivot: Label,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        let module_count = self.config.pim.num_modules;
        let mut seed_delta = StatsDelta::new(module_count);
        let pivots = self.spec_sources(LabelSpec::Exact(pivot), &mut seed_delta);
        let suffix_nfa = Nfa::from_expr(suffix);
        let prefix_nfa = Nfa::from_expr(prefix);

        // Suffix leg: full forward product from the pivot sources (every
        // pivot row feeds the join, so there is nothing to prune).
        let suffix_leg = PlannedLeg { preamble: seed_delta, useful: None, accept_nodes: None };
        let (suffix_results, suffix_stats) =
            self.nfa_product_batch_impl(&suffix_nfa, &pivots, None, Some(suffix_leg));

        // Prefix leg: pruned toward the pivots — only pairs that can still
        // reach an accepting pair *at a pivot node* stay in the frontier.
        let mut backward = StatsDelta::new(module_count);
        let prefix_useful = self.useful_pairs(&prefix_nfa, Some(&pivots), &mut backward);
        let accept_set: HashSet<NodeId> = pivots.iter().copied().collect();
        let prefix_leg = PlannedLeg {
            preamble: backward,
            useful: Some(&prefix_useful),
            accept_nodes: Some(&accept_set),
        };
        let (mid_results, prefix_stats) =
            self.nfa_product_batch_impl(&prefix_nfa, sources, None, Some(prefix_leg));

        // Join on the host: each source's answer is the union of the suffix
        // answers of the pivots its prefix reached.
        let mut join_bytes = 0u64;
        let mut results: Vec<Vec<NodeId>> = Vec::with_capacity(sources.len());
        for mids in &mid_results {
            let mut ans: Vec<NodeId> = Vec::new();
            for m in mids {
                if let Ok(i) = pivots.binary_search(m) {
                    ans.extend_from_slice(&suffix_results[i]);
                    join_bytes += suffix_results[i].len() as u64 * ID_BYTES;
                }
            }
            ans.sort_unstable();
            ans.dedup();
            results.push(ans);
        }

        let matched_pairs: usize = results.iter().map(Vec::len).sum();
        let mut timeline = suffix_stats.timeline;
        timeline += prefix_stats.timeline;
        timeline.charge(Phase::Reduce, self.reduce_cost(join_bytes, matched_pairs));
        let stats = QueryStats {
            timeline,
            batch_size: sources.len(),
            hops: suffix_stats.hops.max(prefix_stats.hops),
            matched_pairs,
            expansions: suffix_stats.expansions + prefix_stats.expansions,
        };
        (results, stats)
    }

    /// The one NFA-product loop behind every labelled plan.
    ///
    /// The batch shares **one frontier per hop**: the sorted
    /// `(node, state, query)` triples of every query, in which the member
    /// queries of one `(node, state)` pair form a contiguous run, the
    /// *shared entry*. Its row is scanned once per hop however many queries
    /// stand on it, and what it produces is routed once per destination
    /// pair (see [`MoctopusSystem::nfa_hop_worker`]). Each query still has
    /// its own visited set — its id in the member lists of the batch's
    /// [`VisitedTable`] — so answers, `hops`, `matched_pairs` and
    /// `expansions` (counted per `(pair, query)`) are those of running
    /// every query alone; only the simulated charges are shared.
    ///
    /// The tracked entry point passes a deps accumulator filled from the
    /// visited table (every visited product pair, sources included) and the
    /// merged per-hop deltas (host lane). A planned execution passes its
    /// [`PlannedLeg`]: the preamble is charged before dispatch, and both
    /// filters act only on merged state, so the determinism argument of the
    /// forward plan covers them unchanged.
    fn nfa_product_batch_impl(
        &mut self,
        nfa: &Nfa,
        sources: &[NodeId],
        mut track: Option<&mut QueryDeps>,
        leg: Option<PlannedLeg<'_>>,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        let mut timeline = Timeline::new();
        let mut expansions = 0usize;

        // A planned leg's backward sweep: one aggregate bulk phase, charged
        // like a hop that forwards nothing between modules (its discovered
        // pairs were gathered to the coordinating host over the CPC link).
        let (useful, accept_nodes) = match leg {
            Some(leg) => {
                self.charge_hop(&leg.preamble, &mut timeline);
                (leg.useful, leg.accept_nodes)
            }
            None => (None, None),
        };
        self.charge_dispatch(sources, PRODUCT_WIDTHS.entry, &mut timeline);

        let start = nfa.start() as u32;
        let is_useful = |&(node, state, _): &ProductEntry| {
            useful.is_none_or(|set| set.contains(&(node, state)))
        };
        let mut starts: Vec<ProductEntry> =
            sources.iter().zip(0u32..).map(|(&s, q)| (s, start, q)).collect();
        starts.sort_unstable();
        let mut visited = VisitedTable::default();
        let mut frontier: Vec<ProductEntry> = Vec::with_capacity(starts.len());
        for shared in starts.chunk_by(|a, b| a.0 == b.0) {
            visited.admit(shared[0].0, start, shared.iter().map(|e| e.2), &mut frontier);
        }
        // A start pair outside the useful set can only contribute the empty
        // path, which is read out of `visited` like every other answer.
        frontier.retain(is_useful);
        let mut candidates: Vec<u128> = Vec::new();
        let mut hops = 0usize;

        let width = self.layout_width();
        let mut ctxs = take_ctxs(&mut self.nfa_ctxs, width);

        while !frontier.is_empty() {
            hops += 1;
            expansions += frontier.len();

            // ---- execute: workers expand their modules' shared entries.
            let (active, delta) =
                self.run_hop(&mut ctxs, frontier.len(), &mut timeline, |this, lane, ctx| {
                    this.nfa_hop_worker(lane, nfa, &frontier, ctx)
                });

            // ---- merge: the frontier union. Every sender's candidates are
            // sorted and duplicate-free, so one run-merging sort and a dedup
            // give the hop's candidates in `(node, state, query)` order. A
            // triple enters the next frontier exactly when its query is new
            // to the pair's visited members — each query's duplicate-free
            // next frontier and exactly its visited-set growth, already
            // sorted. Only then does a planned leg prune the next frontier
            // to useful pairs.
            candidates.clear();
            for ctx in &mut ctxs[..active] {
                for bucket in &mut ctx.routes {
                    candidates.append(bucket);
                }
            }
            candidates.sort();
            candidates.dedup();
            frontier.clear();
            for group in candidates.chunk_by(|a, b| a >> 32 == b >> 32) {
                let (node, state, _) = unpack_entry(group[0]);
                visited.admit(node, state, group.iter().map(|&key| key as u32), &mut frontier);
            }
            if useful.is_some() {
                frontier.retain(is_useful);
            }
            if let Some(deps) = track.as_deref_mut() {
                // Merged-delta host time is thread-count invariant.
                deps.host_lane |= !delta.host_time.is_zero();
            }
        }
        put_ctxs(&mut self.nfa_ctxs, ctxs);

        if let Some(deps) = track {
            // The visited table holds every reached product pair — sources
            // included — so its nodes are exactly the node-dependency set.
            for ((node, _), _) in visited.pairs() {
                deps.nodes.insert(node);
            }
        }

        // Every visited accepting product state contributes its node to the
        // answers of the queries that reached it; a node reached in several
        // accepting states is reported once.
        let mut results: Vec<Vec<NodeId>> = vec![Vec::new(); sources.len()];
        for ((node, state), members) in visited.pairs() {
            if nfa.is_accepting(state as usize)
                && accept_nodes.is_none_or(|set| set.contains(&node))
            {
                for &q in members {
                    results[q as usize].push(node);
                }
            }
        }
        for nodes in &mut results {
            nodes.sort_unstable();
            nodes.dedup();
        }

        let matched_pairs: usize = results.iter().map(Vec::len).sum();
        self.charge_gather_reduce(matched_pairs, &mut timeline);
        let stats =
            QueryStats { timeline, batch_size: sources.len(), hops, matched_pairs, expansions };
        (results, stats)
    }

    /// One worker's share of an NFA-product execute stage (the labelled
    /// generalisation of [`MoctopusSystem::khop_hop_worker`]).
    ///
    /// Same ownership discipline: the worker walks the shared frontier in its
    /// global sorted order, expands only the shared entries whose node row
    /// lives on its modules (or the host for the host-lane worker), and
    /// charges into its private delta. Each such row is scanned **once**;
    /// every matched transition produces `(node, state')` for each member
    /// query, and an entry with k > 1 members also pays k instructions to
    /// copy its membership list. Each sender's productions are then grouped
    /// per `(node, state')`: one group is routed as **one** combined entry
    /// whose membership list holds the group's distinct queries
    /// ([`shared_entry_bytes`]), and the sorted, duplicate-free bucket is
    /// left for the merge as the sender's candidates. A sender is owned by
    /// exactly one worker, so every group is complete within one worker,
    /// and route charges are integers.
    fn nfa_hop_worker(
        &self,
        lane: &Lane,
        nfa: &Nfa,
        frontier: &[ProductEntry],
        ctx: &mut NfaHopCtx,
    ) -> StatsDelta {
        let module_count = self.config.pim.num_modules;
        let mut delta = StatsDelta::new(module_count);
        let routes = &mut ctx.routes;
        routes.resize_with(module_count + 1, Vec::new);
        for shared in frontier.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (v, state, _) = shared[0];
            let transitions = nfa.transitions_from(state as usize);
            self.expand_row(lane, v, PRODUCT_WIDTHS.scan, &mut delta, |delta, at, u, label| {
                let bucket = match at {
                    PartitionId::Pim(m) => &mut routes[m as usize],
                    PartitionId::Host => &mut routes[module_count],
                };
                for &(spec, next_state) in transitions {
                    if !spec.matches(label) {
                        continue;
                    }
                    if shared.len() > 1 {
                        self.charge_membership_copy(at, shared.len(), delta);
                    }
                    let next_state = next_state as u32;
                    bucket.extend(shared.iter().map(|&(_, _, q)| pack_entry(u, next_state, q)));
                }
            });
        }
        for (slot, bucket) in routes.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let at = if slot == module_count {
                PartitionId::Host
            } else {
                PartitionId::Pim(slot as u32)
            };
            bucket.sort_unstable();
            bucket.dedup();
            for group in bucket.chunk_by(|a, b| a >> 32 == b >> 32) {
                let (u, _, _) = unpack_entry(group[0]);
                self.charge_route(at, u, shared_entry_bytes(group.len()), &mut delta);
            }
        }
        delta
    }

    // ------------------------------------------------------------------
    // Refinement and inspection
    // ------------------------------------------------------------------

    /// Reconstructs the logical whole-graph view from the distributed stores.
    ///
    /// Used by the refinement pass and by tests; the real system never needs
    /// this because detection happens inside the modules during path matching.
    pub fn graph_view(&self) -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new();
        for store in &self.local_stores {
            for (src, row) in store.iter() {
                for &(dst, label) in row {
                    g.insert_edge(src, dst, label);
                }
            }
        }
        for (src, row) in self.host_store.iter() {
            for (dst, label) in row {
                g.insert_edge(src, dst, label);
            }
        }
        g
    }

    /// Runs the adaptive refinement: detects incorrectly partitioned nodes,
    /// migrates their rows to the module holding most of their neighbours, and
    /// charges the migration traffic.
    ///
    /// In the real system detection piggybacks on every batch of path-matching
    /// queries, so the placement keeps improving over time; this method models
    /// that steady state by iterating the detect-and-migrate pass until it
    /// converges (at most a handful of rounds). Returns the combined migration
    /// report and the simulated time of the whole pass. For the hash placement
    /// policy this is a no-op (the contrast system has no refinement).
    pub fn refine_locality(&mut self) -> (MigrationReport, Timeline) {
        const MAX_ROUNDS: usize = 4;
        let mut timeline = Timeline::new();
        let mut combined = MigrationReport::default();
        if matches!(self.policy, PlacementPolicy::Hash(_)) {
            return (combined, timeline);
        }
        // Refinement rounds only move rows between stores — the logical
        // topology never changes — so one materialised view serves every
        // round (the pass used to rebuild it from scratch up to four times).
        let view = self.graph_view();
        for _ in 0..MAX_ROUNDS {
            let report = match &mut self.policy {
                PlacementPolicy::GreedyAdaptive(p) => p.refine(&view),
                PlacementPolicy::Hash(_) => unreachable!("hash policy returned above"),
            };
            let mut ipc_bytes = 0u64;
            for &(node, from, to) in &report.migrations {
                let (PartitionId::Pim(from), PartitionId::Pim(to)) = (from, to) else { continue };
                if let Some(row) = self.local_stores[from as usize].take_row(node) {
                    let bytes = row.len() as u64 * ID_BYTES + row_label_wire_bytes(&row) + ID_BYTES;
                    ipc_bytes += bytes;
                    self.local_stores[to as usize].install_row(node, row);
                }
                // The reverse row migrates with the node (colocation
                // invariant), charged like the forward row.
                if let Some(rev) = self.local_stores[from as usize].take_rev_row(node) {
                    let bytes = rev.len() as u64 * ID_BYTES + row_label_wire_bytes(&rev) + ID_BYTES;
                    ipc_bytes += bytes;
                    self.local_stores[to as usize].install_rev_row(node, rev);
                }
            }
            timeline.charge(Phase::Ipc, self.pim.ipc_transfer_cost(ipc_bytes));
            timeline.transfers.record_inter_pim(ipc_bytes, report.migrated as u64);
            let done = report.migrated == 0;
            combined.examined += report.examined;
            combined.migrated += report.migrated;
            combined.migrations.extend(report.migrations);
            if done {
                break;
            }
        }
        (combined, timeline)
    }

    /// Partition-quality metrics of the current placement.
    pub fn partition_metrics(&self) -> PartitionMetrics {
        PartitionMetrics::compute(&self.graph_view(), self.policy.assignment())
    }

    /// Deterministically reconstructs the in-adjacency secondary index (and
    /// its reverse label statistics) from freshly restored forward rows:
    /// every stored edge's reverse entry is routed to the destination row's
    /// owner under the restored assignment — exactly where incremental
    /// maintenance would have put it. Snapshots never carry reverse rows
    /// (see STORAGE.md): the stores keep them sorted on insert and every
    /// edge lives in exactly one forward store, so the rebuilt index is
    /// independent of the iteration order used here.
    fn rebuild_rev_rows(&mut self) {
        let mut edges: Vec<(NodeId, NodeId, Label)> = Vec::new();
        for store in &self.local_stores {
            for (src, row) in store.iter() {
                for &(dst, label) in row {
                    edges.push((src, dst, label));
                }
            }
        }
        for (src, row) in self.host_store.iter() {
            for (dst, label) in row {
                edges.push((src, dst, label));
            }
        }
        for (src, dst, label) in edges {
            match self.partition_of(dst) {
                Some(PartitionId::Host) => {
                    let _ = self.host_store.insert_rev_edge(dst, src, label);
                }
                Some(PartitionId::Pim(m)) => {
                    let _ = self.local_stores[m as usize].insert_rev_edge(dst, src, label);
                }
                None => {}
            }
        }
    }
}

impl GraphEngine for MoctopusSystem {
    /// `"Moctopus"` under greedy-adaptive placement, `"PIM-hash"` under
    /// consistent hashing.
    fn name(&self) -> &'static str {
        match self.policy {
            PlacementPolicy::GreedyAdaptive(_) => "Moctopus",
            PlacementPolicy::Hash(_) => "PIM-hash",
        }
    }

    /// Inserts a batch of unlabelled edges (they receive [`Label::ANY`]),
    /// routing each one to the computing node that owns the source row and
    /// charging the work to the cost model.
    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
        self.insert_edges_impl(edges.iter().map(|&(s, d)| (s, d, Label::ANY)), edges.len(), None)
    }

    /// Inserts a batch of labelled edges. The default label travels for free
    /// (it is elided on the wire); every other label is charged
    /// `LABEL_BYTES` on the CPU→PIM bus and in the MRAM write.
    fn insert_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
        self.insert_edges_impl(edges.iter().copied(), edges.len(), None)
    }

    /// [`GraphEngine::insert_labeled_edges`] plus the batch's
    /// dependency footprint — the cache hook of the insert path.
    ///
    /// The footprint is the batch-derived base
    /// ([`UpdateFootprint::from_edges`]: per-label source buckets, structural
    /// source+destination buckets) with `host_store` set by the loop itself
    /// whenever a host-resident row was written or a promotion installed one
    /// (only the engine can observe those).
    fn insert_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        let mut footprint = UpdateFootprint::from_edges(edges);
        let stats =
            self.insert_edges_impl(edges.iter().copied(), edges.len(), Some(&mut footprint));
        (stats, footprint)
    }

    /// Deletes a batch of unlabelled ([`Label::ANY`]) edges.
    fn delete_edges(&mut self, edges: &[(NodeId, NodeId)]) -> UpdateStats {
        self.delete_edges_impl(edges.iter().map(|&(s, d)| (s, d, Label::ANY)), edges.len(), None)
    }

    /// Deletes a batch of labelled edges (label-byte accounting as on the
    /// insert path).
    fn delete_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
        self.delete_edges_impl(edges.iter().copied(), edges.len(), None)
    }

    /// [`GraphEngine::delete_labeled_edges`] plus the batch's dependency
    /// footprint, built as on the insert path.
    fn delete_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        let mut footprint = UpdateFootprint::from_edges(edges);
        let stats =
            self.delete_edges_impl(edges.iter().copied(), edges.len(), Some(&mut footprint));
        (stats, footprint)
    }

    /// Answers a batch of general regular path queries with full cost
    /// accounting.
    ///
    /// Plain k-hop expressions (`.{k}` and concatenations of `.`) take the
    /// k-hop loop, which is also what [`GraphEngine::k_hop_batch`] reaches,
    /// so its cost model is untouched — same-seed experiment outputs do not
    /// move. Everything else
    /// is evaluated as an NFA product: the generalisation of the k-hop loop to
    /// arbitrary label automata.
    ///
    /// Frontier entries become `(node, nfa_state)` pairs — the product of the
    /// data graph and the query automaton — deduplicated per query with a
    /// *global* visited set over `state × node` (required for termination on
    /// cyclic graphs under `*`/`+`). The per-hop structure and every charge
    /// formula are the k-hop loop's: each entry is expanded by the computing
    /// node owning its row, every produced entry that leaves the module is
    /// charged to the inter-PIM or CPC bus, each hop's PIM latency is the
    /// slowest module, and the final result is gathered and reduced on the
    /// host. The widths differ: a label-constrained row scan reads the id
    /// and label arrays (`ID_BYTES + LABEL_BYTES` per slot) and a routed
    /// entry carries its automaton state (`ENTRY_BYTES + STATE_BYTES`).
    ///
    /// And the batch shares its frontier: queries standing on the same
    /// `(node, state)` in the same hop form one *shared entry*, whose row is
    /// scanned once. What a computing node produces for one `(node, state')`
    /// in a hop is routed once, as one entry that also carries the `u32` ids
    /// of its member queries when there are several (`QUERY_ID_BYTES` each,
    /// plus one instruction per member to copy the list per matched
    /// transition). Answers and workload counters are those of running each
    /// query alone; only the simulated cost is shared.
    ///
    /// A node is reported for a query as soon as *some* visited product state
    /// is accepting; if the automaton accepts the empty path the source
    /// itself is part of the answer, as in [`rpq::ReferenceEvaluator`].
    fn rpq_batch(&mut self, expr: &RpqExpr, sources: &[NodeId]) -> (Vec<Vec<NodeId>>, QueryStats) {
        self.forward(expr, sources, None)
    }

    /// [`GraphEngine::rpq_batch`] plus the execution's dependency footprint:
    /// the bucket of every visited node and whether the host lane expanded a
    /// row, read from merged state only, so the deps are byte-identical at
    /// every thread count and no simulated charge moves.
    fn rpq_batch_tracked(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, QueryStats, QueryDeps) {
        let mut deps = QueryDeps::default();
        let (results, stats) = self.forward(expr, sources, Some(&mut deps));
        (results, stats, deps)
    }

    /// Answers a batch RPQ by **executing** the given plan strategy — the
    /// execution half of the `rpq::optimizer` contract.
    ///
    /// Served answers are byte-identical to
    /// [`GraphEngine::rpq_batch`] under every strategy
    /// (`tests/plan_invariance.rs` and `tests/rpq_taxonomy.rs` prove it);
    /// only the simulated cost and workload counters differ.
    /// [`PlanStrategy::Forward`] *is* the canonical path — same code, same
    /// charges — and k-hop shapes always take it (plan choice is about label
    /// asymmetry, which `.{k}` does not have). The non-forward strategies run
    /// the same parallel product loop as the forward plan, with a backward
    /// sweep over the reverse adjacency index charged up front and the
    /// frontier pruned to the pairs the sweep found useful:
    ///
    /// * [`PlanStrategy::Bidirectional`] first sweeps the reversed automaton
    ///   backward over the in-adjacency rows to compute the *useful* product
    ///   pairs — those from which an accepting pair is still reachable — then
    ///   runs the forward product with its frontier restricted to useful
    ///   pairs. Every proper prefix pair of an accepting path is useful, so
    ///   pruning never drops an answer.
    /// * [`PlanStrategy::RareLabelSplit`] seeds the suffix automaton at the
    ///   pivot label's exact source set (from the reverse-maintained label
    ///   statistics), runs the prefix automaton pruned toward those pivots,
    ///   and joins the two halves on the host.
    ///
    /// A strategy that does not fit the expression (a split position with no
    /// mandatory exact pivot) falls back to the forward path.
    fn rpq_batch_planned(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
        strategy: PlanStrategy,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        match strategy {
            PlanStrategy::Forward => self.rpq_batch(expr, sources),
            _ if expr.as_k_hop().is_some() => self.rpq_batch(expr, sources),
            PlanStrategy::Bidirectional => {
                let nfa = Nfa::from_expr(expr);
                let mut preamble = StatsDelta::new(self.config.pim.num_modules);
                let useful = self.useful_pairs(&nfa, None, &mut preamble);
                let leg = PlannedLeg { preamble, useful: Some(&useful), accept_nodes: None };
                self.nfa_product_batch_impl(&nfa, sources, None, Some(leg))
            }
            PlanStrategy::RareLabelSplit { split_at } => {
                let Some((prefix, suffix, pivot)) = optimizer::split_for(expr, split_at) else {
                    return self.rpq_batch(expr, sources);
                };
                self.split_product(&prefix, &suffix, pivot, sources)
            }
        }
    }

    /// Number of directed edges stored across all computing nodes.
    fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Reconfigures the execution runtime to `threads` host worker threads
    /// (`0` = available parallelism).
    ///
    /// This only changes how much wall-clock parallelism the *simulator*
    /// uses; simulated results, `SimTime`, and transfer tallies are
    /// byte-identical at every thread count. The engine's
    /// [`config`](MoctopusSystem::config) follows, so sibling engines
    /// built from a clone of it inherit the new thread count.
    fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
        self.pool = WorkerPool::new(threads);
    }

    /// Host worker threads the execution runtime is configured for.
    fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Exports the engine's complete storage plane as a canonical
    /// [`SnapshotState`].
    ///
    /// The image captures everything that drives future behaviour: each
    /// module's local rows (and capacity limit), the host heterogeneous rows
    /// with their exact slot layout and free-list pop order (slot reuse and
    /// row-scan costs depend on both), the raw partition-assignment vector,
    /// and — under the greedy-adaptive policy — the degree table and
    /// promotion log. Accumulated simulator busy time is deliberately *not*
    /// part of the image: it only feeds the cosmetic
    /// [`MoctopusSystem::load_imbalance`] metric, never a future result
    /// or charge.
    fn export_snapshot(&self) -> Option<SnapshotState> {
        let local_modules = self
            .local_stores
            .iter()
            .map(|s| LocalModuleSnapshot {
                rows: s.export_rows(),
                capacity_bytes: s.capacity_bytes(),
            })
            .collect();
        let host_rows = self
            .host_store
            .export_rows()
            .into_iter()
            .map(|(node, slots, free)| HostRowSnapshot { node, slots, free })
            .collect();
        let (degrees, promotions) = match &self.policy {
            PlacementPolicy::GreedyAdaptive(p) => {
                (p.degrees().export_entries(), p.promotions().to_vec())
            }
            PlacementPolicy::Hash(_) => (Vec::new(), Vec::new()),
        };
        Some(SnapshotState {
            last_seq: 0,
            edge_count: self.edge_count as u64,
            local_modules,
            host_rows,
            assignment_slots: self.policy.assignment().export_slots(),
            degrees,
            promotions,
            adjacency_rows: Vec::new(),
            adjacency_id_bound: 0,
        })
    }

    /// Replaces the engine's storage plane with a previously exported image.
    ///
    /// Returns `false` — leaving the engine untouched — when the snapshot was
    /// written under a different PIM module count (its per-module section
    /// cannot map onto this configuration). The placement policy *kind* is
    /// taken from the live engine; only its state is replaced.
    fn restore_snapshot(&mut self, snapshot: &SnapshotState) -> bool {
        if snapshot.local_modules.len() != self.config.pim.num_modules {
            return false;
        }
        self.local_stores = snapshot
            .local_modules
            .iter()
            .map(|m| LocalGraphStorage::from_sorted_rows(m.rows.clone(), m.capacity_bytes))
            .collect();
        self.host_store = HeterogeneousStorage::from_rows(
            snapshot.host_rows.iter().map(|r| (r.node, r.slots.clone(), r.free.clone())).collect(),
        );
        self.policy = match &self.policy {
            PlacementPolicy::GreedyAdaptive(p) => {
                PlacementPolicy::GreedyAdaptive(GreedyAdaptivePartitioner::from_snapshot_parts(
                    *p.config(),
                    snapshot.assignment_slots.clone(),
                    snapshot.degrees.clone(),
                    snapshot.promotions.clone(),
                ))
            }
            PlacementPolicy::Hash(_) => {
                PlacementPolicy::Hash(HashPartitioner::from_snapshot_parts(
                    self.config.pim.num_modules,
                    snapshot.assignment_slots.clone(),
                ))
            }
        };
        self.edge_count = snapshot.edge_count as usize;
        self.rebuild_rev_rows();
        true
    }

    /// Merged per-label statistics across the whole storage plane: every
    /// PIM module's local store (in module-id order) plus the host store.
    ///
    /// Each store maintains its table incrementally on its own mutation
    /// paths (including row promotion/migration), so this is a pure merge —
    /// no row is rescanned. The merge order is fixed, and
    /// [`LabelStatsSnapshot::merge`] is commutative summation, so the result
    /// is deterministic regardless of thread count.
    fn label_stats(&self) -> LabelStatsSnapshot {
        let mut merged = LabelStatsSnapshot::default();
        for store in &self.local_stores {
            merged.merge(&store.label_stats().snapshot());
        }
        merged.merge(&self.host_store.label_stats().snapshot());
        merged
    }

    /// The in-adjacency secondary index flattened to canonical reverse rows
    /// (nodes ascending, entries sorted), merged across every store.
    ///
    /// Every node's reverse row lives in exactly one store (it is colocated
    /// with the node's forward row), so concatenation plus a sort by node id
    /// is a faithful global view. Diagnostic surface: the differential tests
    /// use it to prove incremental maintenance, migration, and post-restore
    /// reconstruction all land on the same bits.
    fn export_rev_rows(&self) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
        let mut rows: Vec<(NodeId, Vec<(NodeId, Label)>)> = Vec::new();
        for store in &self.local_stores {
            rows.extend(store.export_rev_rows());
        }
        rows.extend(self.host_store.export_rev_rows());
        rows.sort_by_key(|&(n, _)| n);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::SimTime;

    fn moctopus_engine() -> MoctopusSystem {
        MoctopusSystem::new(MoctopusConfig::small_test())
    }

    fn hash_engine() -> MoctopusSystem {
        MoctopusSystem::pim_hash(MoctopusConfig::small_test())
    }

    fn ring_edges(n: u64) -> Vec<(NodeId, NodeId)> {
        (0..n).map(|i| (NodeId(i), NodeId((i + 1) % n))).collect()
    }

    #[test]
    fn insert_and_query_a_ring() {
        let mut e = moctopus_engine();
        let stats = e.insert_edges(&ring_edges(32));
        assert_eq!(stats.applied, 32);
        assert_eq!(e.edge_count(), 32);
        assert!(stats.latency() > SimTime::ZERO);

        let (results, qstats) = e.k_hop_batch(&[NodeId(0), NodeId(30)], 3);
        assert_eq!(results[0], vec![NodeId(3)]);
        assert_eq!(results[1], vec![NodeId(1)]);
        assert_eq!(qstats.batch_size, 2);
        assert_eq!(qstats.hops, 3);
        assert_eq!(qstats.matched_pairs, 2);
        assert!(qstats.latency() > SimTime::ZERO);
    }

    #[test]
    fn duplicate_inserts_are_not_applied_twice() {
        let mut e = moctopus_engine();
        e.insert_edges(&ring_edges(8));
        let stats = e.insert_edges(&ring_edges(8));
        assert_eq!(stats.applied, 0);
        assert_eq!(e.edge_count(), 8);
    }

    #[test]
    fn delete_removes_edges_and_affects_queries() {
        let mut e = moctopus_engine();
        e.insert_edges(&ring_edges(8));
        let del = e.delete_edges(&[(NodeId(0), NodeId(1))]);
        assert_eq!(del.applied, 1);
        assert_eq!(e.edge_count(), 7);
        let (results, _) = e.k_hop_batch(&[NodeId(0)], 1);
        assert!(results[0].is_empty());
        // Deleting a missing edge is a no-op.
        let del2 = e.delete_edges(&[(NodeId(0), NodeId(1))]);
        assert_eq!(del2.applied, 0);
    }

    #[test]
    fn high_degree_nodes_move_to_the_host_store() {
        let mut e = moctopus_engine();
        let hub_edges: Vec<(NodeId, NodeId)> =
            (1..=20u64).map(|i| (NodeId(0), NodeId(i))).collect();
        e.insert_edges(&hub_edges);
        assert_eq!(e.assignment().partition_of(NodeId(0)), Some(PartitionId::Host));
        assert_eq!(e.host_row_count(), 1);
        // The hub's row is complete on the host: a 1-hop query returns all 20.
        let (results, _) = e.k_hop_batch(&[NodeId(0)], 1);
        assert_eq!(results[0].len(), 20);
    }

    /// Merged per-label statistics stay incremental across the engine's
    /// structural paths — hub promotion to the host store, locality-driven
    /// row migration, deletes on both lanes — matching a from-scratch
    /// rebuild (the logical graph view populates its own table from zero)
    /// on **every** counter exactly: with reverse rows colocated at the
    /// destination's owner, distinct-target sets live in exactly one store
    /// each and summed counts are exact (they used to be an
    /// over-approximation band).
    #[test]
    fn label_stats_stay_incremental_across_promotion_and_migration() {
        let check = |e: &MoctopusSystem, phase: &str| {
            let got = e.label_stats();
            assert_eq!(got.total_edges as usize, e.edge_count(), "{phase}: total_edges drifted");
            let want = e.graph_view().label_stats().snapshot();
            assert_eq!(got.per_label.len(), want.per_label.len(), "{phase}: label sets differ");
            for (&(l, g), &(lw, w)) in got.per_label.iter().zip(&want.per_label) {
                assert_eq!(l, lw, "{phase}: label order differs");
                assert_eq!(g.edges, w.edges, "{phase}: label {l:?} edge count drifted");
                // Every forward row lives in exactly one store, so summed
                // distinct source counts are exact — and the reverse rows'
                // colocation invariant makes the distinct target counts
                // exact too (each destination's in-degree entry lives only
                // in its owner's table).
                assert_eq!(g.sources, w.sources, "{phase}: label {l:?} source count drifted");
                assert_eq!(g.targets, w.targets, "{phase}: label {l:?} target count drifted");
            }
        };

        let mut edges: Vec<(NodeId, NodeId, Label)> = Vec::new();
        // A 20-out-degree hub (crosses HIGH_DEGREE_THRESHOLD → host
        // promotion under the greedy-adaptive policy) plus labelled churn.
        for i in 1..=20u64 {
            edges.push((NodeId(0), NodeId(i), Label((i % 3 + 1) as u16)));
        }
        for i in 1..40u64 {
            edges.push((NodeId(i), NodeId((i * 7) % 40), Label((i % 5 + 1) as u16)));
        }

        for mut e in [moctopus_engine(), hash_engine()] {
            e.insert_labeled_edges(&edges);
            check(&e, "after inserts");

            e.refine_locality();
            check(&e, "after migration");

            let victims: Vec<(NodeId, NodeId, Label)> = edges.iter().step_by(3).copied().collect();
            e.delete_labeled_edges(&victims);
            check(&e, "after deletes");

            // A twin restored from the durable image rebuilds the exact same
            // merged statistics, bit for bit.
            let mut twin = if matches!(e.policy, PlacementPolicy::Hash(_)) {
                hash_engine()
            } else {
                moctopus_engine()
            };
            assert!(twin.restore_snapshot(&e.export_snapshot().unwrap()));
            assert_eq!(twin.label_stats(), e.label_stats(), "restored stats must be identical");
        }
        // The greedy engine really promoted the hub (the host-lane stats
        // paths were exercised, not just the PIM ones).
        let mut greedy = moctopus_engine();
        greedy.insert_labeled_edges(&edges);
        assert_eq!(greedy.assignment().partition_of(NodeId(0)), Some(PartitionId::Host));
    }

    #[test]
    fn hash_engine_keeps_hubs_on_pim_modules() {
        let mut e = hash_engine();
        let hub_edges: Vec<(NodeId, NodeId)> =
            (1..=20u64).map(|i| (NodeId(0), NodeId(i))).collect();
        e.insert_edges(&hub_edges);
        assert!(matches!(e.assignment().partition_of(NodeId(0)), Some(PartitionId::Pim(_))));
        assert_eq!(e.host_row_count(), 0);
        let (results, _) = e.k_hop_batch(&[NodeId(0)], 1);
        assert_eq!(results[0].len(), 20);
    }

    #[test]
    fn moctopus_and_hash_agree_on_query_results() {
        let graph = graph_gen::uniform::generate(300, 4.0, 7);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let mut a = moctopus_engine();
        let mut b = hash_engine();
        a.insert_edges(&edges);
        b.insert_edges(&edges);
        a.refine_locality();
        let sources: Vec<NodeId> = (0..20u64).map(NodeId).collect();
        for k in 1..=3 {
            let (ra, _) = a.k_hop_batch(&sources, k);
            let (rb, _) = b.k_hop_batch(&sources, k);
            assert_eq!(ra, rb, "engines disagree at k = {k}");
        }
    }

    #[test]
    fn locality_aware_placement_reduces_ipc() {
        // Community graph streamed in order: Moctopus should incur much less
        // inter-PIM traffic than hash placement (the Figure 5 effect).
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes: 2000,
            high_degree_fraction: 0.02,
            locality: 0.9,
            community_size: 128,
            ..Default::default()
        };
        let graph = graph_gen::powerlaw::generate(&cfg, 3);
        let mut edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        edges.sort();
        let mut moc = moctopus_engine();
        let mut hash = hash_engine();
        moc.insert_edges(&edges);
        hash.insert_edges(&edges);
        moc.refine_locality();
        let sources: Vec<NodeId> = (0..256u64).map(NodeId).collect();
        let (_, moc_stats) = moc.k_hop_batch(&sources, 3);
        let (_, hash_stats) = hash.k_hop_batch(&sources, 3);
        assert!(
            moc_stats.timeline.transfers.inter_pim_bytes * 2
                < hash_stats.timeline.transfers.inter_pim_bytes,
            "moctopus ipc {} should be well below hash ipc {}",
            moc_stats.timeline.transfers.inter_pim_bytes,
            hash_stats.timeline.transfers.inter_pim_bytes
        );
    }

    #[test]
    fn refine_locality_moves_rows_and_charges_ipc() {
        let mut e = moctopus_engine();
        // Mis-leading stream: cross-cluster edges first.
        let mut edges = Vec::new();
        for i in 0..10u64 {
            edges.push((NodeId(i), NodeId(100 + i)));
        }
        for base in [0u64, 100] {
            for u in base..base + 10 {
                for v in base..base + 10 {
                    if u != v && (u + v) % 2 == 0 {
                        edges.push((NodeId(u), NodeId(v)));
                    }
                }
            }
        }
        e.insert_edges(&edges);
        let before = e.partition_metrics().locality;
        let (report, timeline) = e.refine_locality();
        let after = e.partition_metrics().locality;
        if report.migrated > 0 {
            assert!(timeline.transfers.inter_pim_bytes > 0);
            assert!(after >= before);
        }
        // Query results survive the migration.
        let (results, _) = e.k_hop_batch(&[NodeId(0)], 1);
        assert!(!results[0].is_empty());
    }

    #[test]
    fn query_timeline_charges_every_phase() {
        let graph = graph_gen::uniform::generate(500, 4.0, 11);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let mut e = moctopus_engine();
        e.insert_edges(&edges);
        let sources: Vec<NodeId> = (0..64u64).map(NodeId).collect();
        let (_, stats) = e.k_hop_batch(&sources, 2);
        assert!(stats.timeline.time(Phase::PimCompute) > SimTime::ZERO);
        assert!(stats.timeline.time(Phase::Cpc) > SimTime::ZERO);
        assert!(stats.timeline.time(Phase::Reduce) > SimTime::ZERO);
        assert!(stats.expansions >= 64);
    }

    #[test]
    fn zero_hop_query_returns_sources() {
        let mut e = moctopus_engine();
        e.insert_edges(&ring_edges(8));
        let (results, stats) = e.k_hop_batch(&[NodeId(3)], 0);
        assert_eq!(results[0], vec![NodeId(3)]);
        assert_eq!(stats.matched_pairs, 1);
    }

    #[test]
    fn unknown_sources_yield_empty_results() {
        let mut e = moctopus_engine();
        e.insert_edges(&ring_edges(8));
        let (results, _) = e.k_hop_batch(&[NodeId(999)], 2);
        assert!(results[0].is_empty());
    }

    #[test]
    fn rpq_k_hop_fast_path_charges_exactly_like_k_hop_batch() {
        let graph = graph_gen::uniform::generate(300, 4.0, 7);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let sources: Vec<NodeId> = (0..32u64).map(NodeId).collect();
        let mut a = moctopus_engine();
        let mut b = moctopus_engine();
        a.insert_edges(&edges);
        b.insert_edges(&edges);
        let (ra, sa) = a.rpq_batch(&rpq::RpqExpr::k_hop(3), &sources);
        let (rb, sb) = b.k_hop_batch(&sources, 3);
        assert_eq!(ra, rb);
        assert_eq!(sa, sb, "`.{{3}}` must take the k-hop path, cost model included");
    }

    #[test]
    fn labelled_rpq_follows_label_constraints() {
        let mut e = moctopus_engine();
        // 0 -1-> 1 -2-> 2, plus a decoy 0 -3-> 3 -2-> 4.
        e.insert_labeled_edges(&[
            (NodeId(0), NodeId(1), Label(1)),
            (NodeId(1), NodeId(2), Label(2)),
            (NodeId(0), NodeId(3), Label(3)),
            (NodeId(3), NodeId(4), Label(2)),
        ]);
        let expr = rpq::parser::parse("1/2").unwrap();
        let (results, stats) = e.rpq_batch(&expr, &[NodeId(0)]);
        assert_eq!(results[0], vec![NodeId(2)]);
        assert_eq!(stats.matched_pairs, 1);
        assert!(stats.latency() > SimTime::ZERO);

        // Transitive closure over any label reaches everything.
        let star = rpq::parser::parse(".*").unwrap();
        let (closure, _) = e.rpq_batch(&star, &[NodeId(0)]);
        assert_eq!(closure[0].len(), 5, "star includes the source itself");
    }

    #[test]
    fn labelled_updates_change_rpq_answers() {
        let mut e = moctopus_engine();
        e.insert_labeled_edges(&[(NodeId(0), NodeId(1), Label(1))]);
        let expr = rpq::parser::parse("1+").unwrap();
        let (before, _) = e.rpq_batch(&expr, &[NodeId(0)]);
        assert_eq!(before[0], vec![NodeId(1)]);

        e.insert_labeled_edges(&[(NodeId(1), NodeId(2), Label(1))]);
        let (extended, _) = e.rpq_batch(&expr, &[NodeId(0)]);
        assert_eq!(extended[0], vec![NodeId(1), NodeId(2)]);

        let del = e.delete_labeled_edges(&[(NodeId(1), NodeId(2), Label(1))]);
        assert_eq!(del.applied, 1);
        let (after, _) = e.rpq_batch(&expr, &[NodeId(0)]);
        assert_eq!(after[0], vec![NodeId(1)]);
        // Deleting under the wrong label is a no-op.
        let miss = e.delete_labeled_edges(&[(NodeId(0), NodeId(1), Label(9))]);
        assert_eq!(miss.applied, 0);
    }

    #[test]
    fn rpq_handles_cycles_and_hub_rows() {
        let mut e = moctopus_engine();
        // A hub that gets promoted to the host, with a label-1 cycle.
        let mut edges: Vec<(NodeId, NodeId, Label)> =
            (1..=20u64).map(|i| (NodeId(0), NodeId(i), Label(1))).collect();
        edges.push((NodeId(1), NodeId(0), Label(1)));
        e.insert_labeled_edges(&edges);
        assert_eq!(e.assignment().partition_of(NodeId(0)), Some(PartitionId::Host));
        let expr = rpq::parser::parse("1+").unwrap();
        let (results, stats) = e.rpq_batch(&expr, &[NodeId(1)]);
        // 1 -> 0 -> everything (including 0 and 1 themselves via the cycle).
        assert_eq!(results[0].len(), 21);
        assert!(stats.hops >= 2);
    }

    #[test]
    fn thread_count_never_changes_results_or_charges() {
        // The unit-level determinism check (tests/parallel_equivalence.rs
        // does the full property sweep): a 3-worker engine over 8 modules
        // must report bit-identical stats to the sequential one, on both
        // query loops, including after its scratch has been warmed up.
        let graph = graph_gen::uniform::generate(400, 4.0, 17);
        let edges: Vec<(NodeId, NodeId, Label)> =
            graph.edges().map(|(s, d, _)| (s, d, Label((d.0 % 3) as u16 + 1))).collect();
        let sources: Vec<NodeId> = (0..48u64).map(NodeId).collect();

        // Pin the baseline to one worker explicitly: `small_test()` honours
        // MOCTOPUS_THREADS, and the CI 4-thread leg must still compare the
        // parallel engine against the true sequential path.
        let mut serial = MoctopusSystem::new(MoctopusConfig::small_test().with_threads(1));
        assert_eq!(serial.threads(), 1);
        let mut parallel = MoctopusSystem::new(MoctopusConfig::small_test().with_threads(3));
        assert_eq!(parallel.threads(), 3);

        let serial_ins = serial.insert_labeled_edges(&edges);
        let parallel_ins = parallel.insert_labeled_edges(&edges);
        assert_eq!(serial_ins, parallel_ins);

        for round in 0..2 {
            for k in 1..=3 {
                let (want, want_stats) = serial.k_hop_batch(&sources, k);
                let (got, got_stats) = parallel.k_hop_batch(&sources, k);
                assert_eq!(got, want, "k = {k}, round {round}");
                assert_eq!(got_stats, want_stats, "k = {k}, round {round}");
            }
            let expr = rpq::parser::parse("1/(2|3)*/1").unwrap();
            let (want, want_stats) = serial.rpq_batch(&expr, &sources);
            let (got, got_stats) = parallel.rpq_batch(&expr, &sources);
            assert_eq!(got, want, "round {round}");
            assert_eq!(got_stats, want_stats, "round {round}");
        }
    }

    #[test]
    fn wire_charges_elide_the_default_label() {
        // The same topology inserted unlabelled and with Label::ANY must
        // charge identical transfer bytes; a non-default label pays extra.
        let edges: Vec<(NodeId, NodeId)> = ring_edges(16);
        let any: Vec<(NodeId, NodeId, Label)> =
            edges.iter().map(|&(s, d)| (s, d, Label::ANY)).collect();
        let labelled: Vec<(NodeId, NodeId, Label)> =
            edges.iter().map(|&(s, d)| (s, d, Label(5))).collect();

        let mut a = hash_engine();
        let mut b = hash_engine();
        let mut c = hash_engine();
        let sa = a.insert_edges(&edges);
        let sb = b.insert_labeled_edges(&any);
        let sc = c.insert_labeled_edges(&labelled);
        assert_eq!(
            sa.timeline.transfers, sb.timeline.transfers,
            "ANY-labelled inserts must charge like unlabelled ones"
        );
        assert_eq!(
            sc.timeline.transfers.cpu_to_pim_bytes,
            sb.timeline.transfers.cpu_to_pim_bytes + edges.len() as u64 * 4,
            "each non-default label costs LABEL_BYTES on the CPU->PIM bus, \
             once on the forward route and once on the mirrored reverse write"
        );
    }

    /// Tracking must be an observer: tracked calls return the same results
    /// and stats as untracked ones, and the deps cover every visited node.
    #[test]
    fn tracked_queries_match_untracked_and_cover_visited_nodes() {
        use crate::deps::DepMask;
        let edges = ring_edges(32);
        let mut plain = moctopus_engine();
        let mut tracked = moctopus_engine();
        plain.insert_edges(&edges);
        tracked.insert_edges(&edges);

        let sources = [NodeId(0), NodeId(9)];
        let expr = rpq::RpqExpr::k_hop(3);
        let (want, want_stats) = plain.rpq_batch(&expr, &sources);
        let (got, got_stats, deps) = tracked.rpq_batch_tracked(&expr, &sources);
        assert_eq!(got, want);
        assert_eq!(got_stats, want_stats);
        // Sources, every hop frontier, and the results are visited nodes.
        let mut expected = DepMask::EMPTY;
        for hop in 0..=3u64 {
            expected.insert(NodeId(hop));
            expected.insert(NodeId(9 + hop));
        }
        assert!(!deps.nodes.is_empty());
        assert!(deps.nodes.intersects(expected));
        for hop in 0..=3u64 {
            let mut one = DepMask::EMPTY;
            one.insert(NodeId(hop));
            assert!(deps.nodes.intersects(one), "hop node {hop} must be a dependency");
        }
        assert!(!deps.host_lane, "a low-degree ring never touches the host lane");

        // The NFA-product path tracks too (closure query on a labelled star).
        let mut engine = moctopus_engine();
        engine.insert_labeled_edges(&[
            (NodeId(0), NodeId(1), Label(1)),
            (NodeId(1), NodeId(2), Label(1)),
        ]);
        let star = rpq::parser::parse("1+").expect("query parses");
        let (r, _, deps) = engine.rpq_batch_tracked(&star, &[NodeId(0)]);
        assert_eq!(r[0], vec![NodeId(1), NodeId(2)]);
        for n in 0..=2u64 {
            let mut one = DepMask::EMPTY;
            one.insert(NodeId(n));
            assert!(deps.nodes.intersects(one), "visited node {n} must be a dependency");
        }
    }

    /// Hub promotion must raise the host-lane dependency on queries and the
    /// host-store flag on the updates that created/touched the hub.
    #[test]
    fn tracking_observes_the_host_lane() {
        let mut engine = moctopus_engine();
        let hub: Vec<(NodeId, NodeId, Label)> =
            (1..=20u64).map(|i| (NodeId(0), NodeId(i), Label::ANY)).collect();
        let (stats, fp) = engine.insert_labeled_edges_tracked(&hub);
        assert_eq!(stats.applied, 20);
        assert!(fp.host_store, "the batch promoted node 0 to the host store");
        assert!(!fp.cost_global && !fp.result_global);
        assert_eq!(fp.per_label.len(), 1, "one label in the batch");

        let (results, _, deps) = engine.rpq_batch_tracked(&rpq::RpqExpr::k_hop(1), &[NodeId(0)]);
        assert_eq!(results[0].len(), 20);
        assert!(deps.host_lane, "expanding the promoted hub row is host-lane work");

        // A PIM-only update reports no host-store involvement.
        let (_, fp2) = engine.insert_labeled_edges_tracked(&[(NodeId(5), NodeId(7), Label(2))]);
        assert!(!fp2.host_store);
    }

    /// The byte-identity half of the planner contract: every strategy —
    /// forward, bidirectional over the reverse rows, rare-label split — must
    /// serve the exact same answers as the canonical forward path, on both
    /// placement policies, including on an engine restored from a durable
    /// image (whose reverse rows were rebuilt, not copied).
    #[test]
    fn planned_execution_matches_forward_answers() {
        let graph = graph_gen::uniform::generate(300, 4.0, 13);
        let mut edges: Vec<(NodeId, NodeId, Label)> =
            graph.edges().map(|(s, d, _)| (s, d, Label((d.0 % 3) as u16 + 1))).collect();
        // Sprinkle a rare label 8 so the split pivot has real sources.
        for i in 0..12u64 {
            edges.push((NodeId(i * 17 % 300), NodeId((i * 23 + 5) % 300), Label(8)));
        }
        let sources: Vec<NodeId> = (0..40u64).map(NodeId).collect();
        let queries = ["1/2", "1+", "1/(2|3)*/1", "(1|2)*", "1*/8/2*", "3?/8"];
        let strategies = [
            PlanStrategy::Forward,
            PlanStrategy::Bidirectional,
            PlanStrategy::RareLabelSplit { split_at: 1 },
        ];

        for mut e in [moctopus_engine(), hash_engine()] {
            e.insert_labeled_edges(&edges);
            e.refine_locality();

            let mut twin = if matches!(e.policy, PlacementPolicy::Hash(_)) {
                hash_engine()
            } else {
                moctopus_engine()
            };
            assert!(twin.restore_snapshot(&e.export_snapshot().unwrap()));

            for q in queries {
                let expr = rpq::parser::parse(q).expect("query parses");
                let (want, _) = e.rpq_batch(&expr, &sources);
                for strategy in strategies {
                    let (got, _) = e.rpq_batch_planned(&expr, &sources, strategy);
                    assert_eq!(got, want, "{q} under {} drifted", strategy.describe());
                    let (restored, _) = twin.rpq_batch_planned(&expr, &sources, strategy);
                    assert_eq!(
                        restored,
                        want,
                        "{q} under {} drifted on the restored twin",
                        strategy.describe()
                    );
                }
            }
        }
    }

    /// The cost half: a closure that must end in a rare label lets the
    /// bidirectional executor's backward useful-set pass prune the forward
    /// frontier down to the small pocket that can actually reach the rare
    /// edge, while the forward plan floods the whole common-label component.
    #[test]
    fn bidirectional_execution_prunes_rare_closures() {
        let mut edges: Vec<(NodeId, NodeId, Label)> = Vec::new();
        // A 300-node label-1 component with chords — none of it reaches label 9.
        for i in 0..300u64 {
            edges.push((NodeId(i), NodeId((i + 1) % 300), Label(1)));
            edges.push((NodeId(i), NodeId((i * 7 + 3) % 300), Label(1)));
        }
        // A small disjoint pocket whose chain ends in the rare label.
        for i in 1000..1008u64 {
            edges.push((NodeId(i), NodeId(i + 1), Label(1)));
        }
        edges.push((NodeId(1008), NodeId(2000), Label(9)));

        let mut sources: Vec<NodeId> = (0..32u64).map(NodeId).collect();
        sources.extend((1000..1004u64).map(NodeId));

        let expr = rpq::parser::parse("1*/9").expect("query parses");
        let mut fwd = moctopus_engine();
        fwd.insert_labeled_edges(&edges);
        let mut bidi = fwd.clone();

        let (want, fwd_stats) = fwd.rpq_batch_planned(&expr, &sources, PlanStrategy::Forward);
        let (got, bidi_stats) =
            bidi.rpq_batch_planned(&expr, &sources, PlanStrategy::Bidirectional);
        assert_eq!(got, want, "pruning must never change answers");
        assert!(want.iter().any(|r| !r.is_empty()), "the pocket sources must match");

        assert!(
            bidi_stats.expansions * 4 < fwd_stats.expansions,
            "bidirectional expansions {} should be well below forward's {}",
            bidi_stats.expansions,
            fwd_stats.expansions
        );
        assert!(
            bidi_stats.latency() < fwd_stats.latency(),
            "bidirectional simulated latency {:?} should beat forward's {:?}",
            bidi_stats.latency(),
            fwd_stats.latency()
        );
    }

    /// The backward sweep scans a popped pair's reverse row once, however
    /// many reverse transitions its state has. In `1+/8` the `1` position
    /// has two (from the start state and from its own loop), so a sweep that
    /// scanned once per transition would charge every such row twice.
    #[test]
    fn useful_pairs_scans_each_reverse_row_once_per_popped_pair() {
        let mut edges: Vec<(NodeId, NodeId, Label)> = Vec::new();
        for i in 0..40u64 {
            edges.push((NodeId(i), NodeId((i + 1) % 40), Label(1)));
            edges.push((NodeId(i), NodeId((i * 7 + 3) % 40), Label(1)));
        }
        for i in 0..8u64 {
            edges.push((NodeId(i * 5), NodeId(100 + i), Label(8)));
        }
        let mut engine = moctopus_engine();
        engine.insert_labeled_edges(&edges);
        assert_eq!(engine.host_row_count(), 0, "every reverse row is PIM-resident");

        let nfa = Nfa::from_expr(&rpq::parser::parse("1+/8").expect("query parses"));
        let rev = nfa.reversed_transitions();
        assert!(rev.iter().any(|r| r.len() > 1), "some state has several reverse transitions");
        let modules = engine.config.pim.num_modules;
        let mut delta = StatsDelta::new(modules);
        let useful = engine.useful_pairs(&nfa, None, &mut delta);
        assert!(!useful.is_empty());

        // Every useful pair is pushed, and popped, exactly once; a popped
        // pair whose state has a reverse transition scans its row once.
        let mut popped: Vec<(NodeId, u32)> =
            useful.iter().copied().filter(|&(_, q)| !rev[q as usize].is_empty()).collect();
        popped.sort_unstable();
        let mut expected = StatsDelta::new(modules);
        for &(n, _) in &popped {
            engine.charge_rev_scan(n, &mut expected);
        }
        for m in 0..modules {
            let (got, want) = (delta.per_module[m].as_nanos(), expected.per_module[m].as_nanos());
            assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "module {m}: backward sweep charged {got} ns, one scan per popped pair is {want} ns"
            );
        }
    }

    /// A batch that repeats a source stands on one shared entry per hop: the
    /// row is scanned once, and every produced entry is routed once, with
    /// the two query ids appended, instead of once per copy.
    #[test]
    fn duplicate_sources_share_scans_and_routed_entries() {
        let edges: Vec<(NodeId, NodeId, Label)> =
            (0..64u64).map(|i| (NodeId(i), NodeId((i * 5 + 1) % 64), Label(1))).collect();
        let expr = rpq::parser::parse("1/1/1").expect("query parses");
        let mut engine = hash_engine();
        engine.insert_labeled_edges(&edges);

        let (one, single) = engine.rpq_batch(&expr, &[NodeId(3)]);
        let (two, double) = engine.rpq_batch(&expr, &[NodeId(3), NodeId(3)]);
        assert_eq!(two, vec![one[0].clone(), one[0].clone()]);
        assert_eq!(double.expansions, 2 * single.expansions);
        assert_eq!(double.matched_pairs, 2 * single.matched_pairs);

        let (s, d) = (single.timeline.transfers, double.timeline.transfers);
        assert!(s.inter_pim_messages > 0, "hash placement forwards between modules");
        assert_eq!(d.inter_pim_messages, s.inter_pim_messages, "one routed entry per destination");
        assert_eq!(
            d.inter_pim_bytes,
            s.inter_pim_messages * (PRODUCT_WIDTHS.entry + 2 * QUERY_ID_BYTES),
            "a shared entry carries both query ids"
        );
        assert!(
            double.timeline.time(Phase::PimCompute) < single.timeline.time(Phase::PimCompute) * 2.0,
            "the shared row is scanned once"
        );
    }

    // Constructor-level behaviour of the two placements.

    #[test]
    fn from_edge_stream_builds_and_refines() {
        let graph = graph_gen::uniform::generate(400, 3.0, 5);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let system = moctopus_engine().with_edge_stream(&edges);
        assert_eq!(system.edge_count(), edges.len());
        let metrics = system.partition_metrics();
        assert!(metrics.load_balance_factor < 2.0);
    }

    #[test]
    fn hubs_are_reported_on_the_host() {
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes: 1000,
            high_degree_fraction: 0.05,
            ..Default::default()
        };
        let graph = graph_gen::powerlaw::generate(&cfg, 2);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let system = moctopus_engine().with_edge_stream(&edges);
        assert!(system.host_row_count() > 0);
        let metrics = system.partition_metrics();
        assert!(metrics.host_node_fraction > 0.0);
    }

    #[test]
    fn query_results_match_the_reference_evaluator() {
        let graph = graph_gen::uniform::generate(300, 4.0, 9);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let mut system = moctopus_engine().with_edge_stream(&edges);
        let reference = rpq::ReferenceEvaluator::new(&graph);
        let sources: Vec<NodeId> = (0..16u64).map(NodeId).collect();
        for k in 1..=3usize {
            let (got, _) = system.k_hop_batch(&sources, k);
            let want = reference.k_hop(&sources, k);
            for (g, w) in got.iter().zip(want.iter()) {
                let w: Vec<NodeId> = w.iter().copied().collect();
                assert_eq!(g, &w, "mismatch at k = {k}");
            }
        }
    }

    #[test]
    fn load_imbalance_starts_at_one() {
        let system = moctopus_engine();
        assert_eq!(system.load_imbalance(), 1.0);
        assert_eq!(system.config().pim.num_modules, 8);
    }

    #[test]
    fn hash_placement_never_uses_the_host() {
        let graph = graph_gen::powerlaw::generate(
            &graph_gen::powerlaw::PowerLawConfig {
                nodes: 800,
                high_degree_fraction: 0.05,
                ..Default::default()
            },
            4,
        );
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let system = hash_engine().with_edge_stream(&edges);
        let metrics = system.partition_metrics();
        assert_eq!(metrics.host_node_fraction, 0.0);
        assert_eq!(metrics.to_host_edges, 0);
    }

    #[test]
    fn skewed_graphs_imbalance_hash_more_than_moctopus() {
        // The Figure 4 "highly skewed graphs" effect: with hash placement a
        // hub's expansions all land on one module, making it the straggler.
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes: 1500,
            high_degree_fraction: 0.04,
            mean_high_degree: 128.0,
            ..Default::default()
        };
        let graph = graph_gen::powerlaw::generate(&cfg, 8);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let sources: Vec<NodeId> = (0..512u64).map(NodeId).collect();

        let mut hash = hash_engine().with_edge_stream(&edges);
        let mut moc = moctopus_engine().with_edge_stream(&edges);
        let (_, _) = hash.k_hop_batch(&sources, 2);
        let (_, _) = moc.k_hop_batch(&sources, 2);
        assert!(
            hash.load_imbalance() > moc.load_imbalance(),
            "hash imbalance {} should exceed moctopus {}",
            hash.load_imbalance(),
            moc.load_imbalance()
        );
    }

    #[test]
    fn results_match_moctopus() {
        let graph = graph_gen::road::generate(400, 0.1, 3);
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        let mut hash = hash_engine().with_edge_stream(&edges);
        let mut moc = moctopus_engine().with_edge_stream(&edges);
        let sources: Vec<NodeId> = (0..32u64).map(NodeId).collect();
        let (a, _) = hash.k_hop_batch(&sources, 4);
        let (b, _) = moc.k_hop_batch(&sources, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn hubs_stay_on_pim_modules() {
        let mut system = hash_engine();
        let edges: Vec<(NodeId, NodeId)> = (1..=30u64).map(|i| (NodeId(0), NodeId(i))).collect();
        system.insert_edges(&edges);
        assert!(matches!(system.partition_of(NodeId(0)), Some(PartitionId::Pim(_))));
    }
}
