//! The three workloads: seeded request logs and the serving stack each one
//! drives. README.md says why each was chosen.

use crate::trace::{Edge, Recorder, Role, Traced};
use graph_partition::PartitionAssignment;
use graph_store::{NodeId, WalOp, WalRecord};
use moctopus::{GraphEngine, MoctopusSystem};
use moctopus_bench::{HarnessOptions, RpqWorkload, ServeTrace, ServeTraceConfig};
use moctopus_server::{
    CacheConfig, ConcurrentServer, ConsistencyMode, DurabilityOptions, DurableEngine, QueryServer,
    RequestKind, ServerConfig, ShardPlan, ShardThroughput, ShardedEngine,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rpq::RpqExpr;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["serve-mixed", "rare-plan", "write-durable"];

/// Per-client admission bound. A closed-loop client has at most one request
/// in flight, so nothing is ever shed; the bound keeps admission control on
/// the served path.
const ADMISSION_CAPACITY: usize = 4;

/// One client operation. Queries travel as text: the client parses each one
/// inside the timed request, as a real caller would.
#[derive(Debug, Clone)]
pub enum Op {
    /// A batch RPQ.
    Query {
        /// The path expression, in the `rpq` parser's syntax.
        text: &'static str,
        /// The source batch.
        sources: Vec<NodeId>,
    },
    /// Insert a batch of labelled edges.
    Insert(Vec<Edge>),
    /// Delete a batch of labelled edges.
    Delete(Vec<Edge>),
}

/// Which engine stack sits behind the `QueryServer`.
#[derive(Debug, Clone, Copy)]
pub enum Stack {
    /// `ShardedEngine` over `shards` replicas, cross-shard pool of `pool`.
    Sharded {
        /// Replica count.
        shards: usize,
        /// Shard-pool worker threads.
        pool: usize,
    },
    /// One `MoctopusSystem`.
    Plain,
    /// `DurableEngine` over one `MoctopusSystem`.
    Durable(DurabilityOptions),
}

/// A generated workload: the graph, the per-client request logs, and the
/// pinned stack configuration.
pub struct Workload {
    /// `--workload` name.
    pub name: &'static str,
    /// Graph scale and engine configuration (threads pinned to 1).
    pub options: HarnessOptions,
    /// The base graph and its ingestion stream.
    pub base: RpqWorkload,
    /// Per client, its `(logical time, op)` sequence.
    pub logs: Vec<Vec<(u64, Op)>>,
    /// The engine stack.
    pub stack: Stack,
    /// The serving core's configuration (cache mode, optimizer flag).
    pub server: ServerConfig,
}

/// Set-up wall times of one stack build.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Whole build: replicas, shard plan, durable store.
    pub total_s: f64,
    /// Ingesting the base edges, summed over replicas.
    pub ingest_s: f64,
    /// `refine_locality`, summed over replicas.
    pub refine_s: f64,
}

/// A built stack, ready to serve one pass.
pub struct Built {
    /// The concurrent server the sessions talk to.
    pub server: ConcurrentServer,
    /// The shard plane's throughput clock, when sharded.
    pub clock: Option<Arc<Mutex<ShardThroughput>>>,
    /// How long the build took.
    pub setup: Setup,
}

/// Seed of the power-law graph and of the `ServeTrace` traffic: the
/// harness's default dataset (`HarnessOptions::default().seed`), the same
/// at every `--seed`, which only orders the traffic.
const GRAPH_SEED: u64 = 42;

/// Pins every engine knob: one engine thread regardless of
/// `MOCTOPUS_THREADS`, and the harness's scaled host cache.
fn options(scale: f64) -> HarnessOptions {
    HarnessOptions {
        scale,
        batch: HarnessOptions::scaled_batch(scale),
        seed: GRAPH_SEED,
        traces: Vec::new(),
        threads: 1,
    }
}

fn server_config(
    options: &HarnessOptions,
    cache: Option<CacheConfig>,
    optimize: bool,
) -> ServerConfig {
    ServerConfig { cache, pricing: options.system_config(), optimize, plan_override: None }
}

/// Builds the named workload from `seed`; `None` for an unknown name.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "serve-mixed" => Some(serve_mixed(seed)),
        "rare-plan" => Some(rare_plan(seed)),
        "write-durable" => Some(write_durable(seed)),
        _ => None,
    }
}

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Turns a `ServeTrace` drawn from the dataset seed into per-client logs
/// whose rounds `--seed` permutes. Round `j` is every client's `j`-th
/// request; a burst round, whose clients share one logical time, keeps one
/// shared time in its new place. Content stays fixed and only the order is
/// seeded: drawing the traffic per seed made the simulated total swing by a
/// fifth between seeds, from how often the few costly queries came up.
fn permuted(trace: ServeTrace, seed: u64) -> Vec<Vec<(u64, Op)>> {
    let parsed: Vec<(&'static str, RpqExpr)> = moctopus_bench::RPQ_QUERY_SET
        .iter()
        .map(|&text| (text, rpq::parser::parse(text).expect("the query set parses")))
        .collect();
    let op = |kind: RequestKind| match kind {
        RequestKind::Query { expr, sources } => Op::Query {
            text: parsed.iter().find(|(_, e)| *e == expr).expect("a query-set expression").0,
            sources,
        },
        RequestKind::Insert { edges } => Op::Insert(edges),
        RequestKind::Delete { edges } => Op::Delete(edges),
    };
    let clients = trace.per_client.len();
    let len = trace.per_client[0].len();
    let mut streams: Vec<_> = trace.per_client.into_iter().map(Vec::into_iter).collect();
    let mut rounds: Vec<(bool, Vec<Op>)> = (0..len)
        .map(|_| {
            let requests: Vec<(u64, RequestKind)> =
                streams.iter_mut().map(|s| s.next().expect("equal-length schedules")).collect();
            let burst = requests.iter().all(|(at, _)| *at == requests[0].0);
            (burst, requests.into_iter().map(|(_, kind)| op(kind)).collect())
        })
        .collect();
    shuffle(&mut rounds, &mut SmallRng::seed_from_u64(seed ^ 0x5e55_0000));
    let mut logs: Vec<Vec<(u64, Op)>> = vec![Vec::with_capacity(len); clients];
    for (j, (burst, ops)) in rounds.into_iter().enumerate() {
        let first = 1 + (j * clients) as u64;
        for (c, op) in ops.into_iter().enumerate() {
            logs[c].push((if burst { first } else { first + c as u64 }, op));
        }
    }
    logs
}

/// SERVING.md's production path: 2 sessions, CostExact cache, 2 shards,
/// with `ServeTrace`'s traffic (burst rounds, rotated source batches,
/// 10% updates).
fn serve_mixed(seed: u64) -> Workload {
    let options = options(1.0 / 32.0);
    let base = RpqWorkload::power_law(&options);
    let config = ServeTraceConfig {
        clients: 2,
        requests_per_client: 512,
        update_fraction: 0.10,
        distinct_queries: 12,
        sources_per_query: 16,
        edges_per_update: 8,
        burst_fraction: 0.15,
        rotate_fraction: 0.25,
    };
    let logs = permuted(ServeTrace::generate(&base, &config, GRAPH_SEED), seed);
    let cache = CacheConfig { capacity: 4096, mode: ConsistencyMode::CostExact };
    Workload {
        name: "serve-mixed",
        server: server_config(&options, Some(cache), false),
        options,
        base,
        logs,
        stack: Stack::Sharded { shards: 2, pool: 2 },
    }
}

/// Read-only optimizer traffic: 64-source batches of the AQ queries where
/// the cost model leaves the forward plan.
fn rare_plan(seed: u64) -> Workload {
    // Four closures (two where the optimizer leaves the forward plan) and
    // three short chains: the median lands inside the closure mode instead
    // of on the boundary between the two.
    const QUERIES: [&str; 7] = ["AQ22", "AQ23", "AQ24", "AQ1", "AQ27", "AQ4", "AQ28"];
    const REQUESTS: usize = 196;
    const SOURCES: usize = 64;
    let options = options(1.0 / 64.0);
    let base = RpqWorkload::rare_closure(&options);
    let texts: Vec<&'static str> = QUERIES
        .iter()
        .map(|id| moctopus_bench::AQ_TAXONOMY.iter().find(|(name, _)| name == id).expect("AQ id").1)
        .collect();
    // Chain heads: the rare pocket's entry points, the only nodes with no
    // in-edge (every node of the big ring has one). Sorted, because the
    // graph's node iteration order differs from process to process.
    let mut heads: Vec<NodeId> = base
        .graph
        .nodes()
        .filter(|&n| base.graph.in_degree(n) == 0 && base.graph.out_degree(n) > 0)
        .collect();
    heads.sort_unstable();
    assert!(!heads.is_empty(), "the rare-closure graph has chain heads");
    let log = (0..REQUESTS)
        .map(|i| {
            let mut sources = graph_gen::stream::sample_start_nodes(
                &base.graph,
                SOURCES,
                seed ^ (0x7a11_0000 + i as u64),
            );
            sources[(i * 7) % SOURCES] = heads[i % heads.len()];
            (1 + i as u64, Op::Query { text: texts[i % texts.len()], sources })
        })
        .collect();
    Workload {
        name: "rare-plan",
        server: server_config(&options, None, true),
        options,
        base,
        logs: vec![log],
        stack: Stack::Plain,
    }
}

/// Writes beside reads: half the requests are fsynced 32-edge updates,
/// inserts and deletes at random, beside queries drawn from a 512-entry
/// Zipf catalogue.
fn write_durable(seed: u64) -> Workload {
    let options = options(1.0 / 32.0);
    let base = RpqWorkload::power_law(&options);
    let config = ServeTraceConfig {
        clients: 1,
        requests_per_client: 1024,
        update_fraction: 0.5,
        distinct_queries: 512,
        sources_per_query: 16,
        edges_per_update: 32,
        burst_fraction: 0.0,
        rotate_fraction: 0.0,
    };
    let logs = permuted(ServeTrace::generate(&base, &config, GRAPH_SEED), seed);
    let cache = CacheConfig { capacity: 4096, mode: ConsistencyMode::RowExact };
    Workload {
        name: "write-durable",
        server: server_config(&options, Some(cache), false),
        options,
        base,
        logs,
        stack: Stack::Durable(DurabilityOptions { sync_every: 1, rotate_every: 64 }),
    }
}

impl Workload {
    /// Requests across all clients.
    pub fn requests(&self) -> usize {
        self.logs.iter().map(Vec::len).sum()
    }

    /// The request log as plain text, one line per request, clients in id
    /// order (the `serve` binary's `--emit-trace` style, with full edges), so
    /// two runs' inputs can be diffed.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (c, log) in self.logs.iter().enumerate() {
            for (at, op) in log {
                let (verb, body) = match op {
                    Op::Query { text, sources } => {
                        let ids: Vec<String> = sources.iter().map(|s| s.0.to_string()).collect();
                        ("query", format!("{text} sources=[{}]", ids.join(",")))
                    }
                    Op::Insert(edges) | Op::Delete(edges) => {
                        let list: Vec<String> = edges
                            .iter()
                            .map(|(s, d, l)| format!("{}>{}:{}", s.0, d.0, l.0))
                            .collect();
                        let verb = if matches!(op, Op::Insert(_)) { "insert" } else { "delete" };
                        (verb, format!("edges=[{}]", list.join(",")))
                    }
                };
                writeln!(out, "c{c} @{at} {verb} {body}").expect("writing to a String");
            }
        }
        out
    }

    /// One replica: ingest the base stream, then refine placement.
    fn replica(&self, setup: &mut Setup) -> MoctopusSystem {
        let t = Instant::now();
        let mut engine = MoctopusSystem::new(self.options.system_config());
        engine.insert_labeled_edges(&self.base.edges);
        setup.ingest_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        engine.refine_locality();
        setup.refine_s += t.elapsed().as_secs_f64();
        engine
    }

    /// Builds the stack for one pass, with tracing wrappers when `rec` is
    /// given. `dir` must be empty or absent (the durable store's home).
    pub fn build(&self, rec: Option<&Arc<Recorder>>, dir: &Path) -> Built {
        fn wrap<E: GraphEngine + Send + 'static>(
            engine: E,
            role: Role,
            rec: Option<&Arc<Recorder>>,
        ) -> Box<dyn GraphEngine + Send> {
            match rec {
                Some(rec) => Box::new(Traced::new(engine, role, Arc::clone(rec))),
                None => Box::new(engine),
            }
        }

        let mut setup = Setup::default();
        let mut clock = None;
        let t0 = Instant::now();
        let engine: Box<dyn GraphEngine + Send> = match self.stack {
            Stack::Sharded { shards, pool } => {
                let replicas: Vec<MoctopusSystem> =
                    (0..shards).map(|_| self.replica(&mut setup)).collect();
                let modules = self.options.system_config().pim.num_modules;
                let mut assignment = PartitionAssignment::new(modules);
                for id in 0..self.base.graph.id_bound() {
                    if let Some(p) = replicas[0].partition_of(NodeId(id)) {
                        assignment.assign(NodeId(id), p);
                    }
                }
                let plan = ShardPlan::from_assignment(&assignment, ShardPlan::DEFAULT_GROUPS);
                let replicas =
                    replicas.into_iter().map(|r| wrap(r, Role::CoreInner, rec)).collect();
                let sharded = ShardedEngine::new(replicas, plan, pool);
                clock = Some(sharded.clock());
                wrap(sharded, Role::Shard, rec)
            }
            Stack::Plain => wrap(self.replica(&mut setup), Role::CoreTop, rec),
            Stack::Durable(durability) => {
                let inner = wrap(self.replica(&mut setup), Role::CoreInner, rec);
                let durable = DurableEngine::open(inner, dir, durability)
                    .expect("a fresh durable store opens");
                match rec {
                    Some(rec) => Box::new(
                        Traced::new(durable, Role::Wal, Arc::clone(rec))
                            .with_after_update(wal_probe(dir)),
                    ),
                    None => Box::new(durable),
                }
            }
        };
        setup.total_s = t0.elapsed().as_secs_f64();
        let core = QueryServer::new(engine, self.server);
        Built { server: ConcurrentServer::bounded(core, ADMISSION_CAPACITY), clock, setup }
    }
}

/// Counts the bytes each logged update puts on disk: its WAL frame (sized by
/// the store's own encoder) plus, when it triggered a rotation, the new
/// snapshot and WAL files as they stand on disk.
fn wal_probe(dir: &Path) -> crate::trace::AfterUpdate<DurableEngine> {
    let dir = dir.to_path_buf();
    // The store is fresh, so it starts at generation 0.
    let mut generation = 0;
    Box::new(move |durable: &DurableEngine, rec: &Recorder, edges: &[Edge], insert: bool| {
        let op = if insert { WalOp::Insert } else { WalOp::Delete };
        let mut frame = Vec::new();
        WalRecord { seq: durable.seq(), op, edges: edges.to_vec() }.encode_frame(&mut frame);
        let mut bytes = frame.len() as u64;
        let now = durable.generation();
        let rotations = now - generation;
        if rotations > 0 {
            generation = now;
            for path in [
                graph_store::generation_snapshot_path(&dir, now),
                graph_store::generation_wal_path(&dir, now),
            ] {
                bytes += std::fs::metadata(path).map_or(0, |m| m.len());
            }
        }
        let mut c = rec.counters.lock().expect("recorder poisoned");
        c.wal_edges += edges.len() as u64;
        c.wal_bytes += bytes;
        c.rotations += rotations;
    })
}
