//! The sequential serving core: one engine, one cache, one totally ordered
//! request log.
//!
//! [`QueryServer::execute`] is the entire serving semantics; everything the
//! concurrent session layer (`crate::session`) adds is *delivering* requests
//! to this function in a deterministic order. Keeping the semantics
//! single-threaded is what makes the serving layer testable: the
//! cache-consistency property tests replay a request log through two
//! `QueryServer`s (cache on / cache off) and compare responses bit for bit.

use crate::cache::{CacheConfig, CacheKey, CacheStats, ConsistencyMode, ResultCache};
use crate::request::{CacheOutcome, Request, RequestId, RequestKind, Response, ResponseBody};
use graph_store::NodeId;
use moctopus::{GraphEngine, MoctopusConfig, QueryDeps, QueryStats};
use pim_sim::{PimSystem, SimTime};
use std::collections::HashMap;

/// Host instructions charged per cache probe (hash the key, compare the
/// expression tree and source batch on a hit). Part of the serving cost
/// model documented in SERVING.md §4.
const CACHE_PROBE_INSTRUCTIONS: u64 = 400;

/// Bytes per result entry streamed out of the cache on a hit (one node id),
/// matching the engines' reduction-phase accounting.
const RESULT_ENTRY_BYTES: u64 = 8;

/// Serving-layer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Result-cache configuration; `None` disables caching entirely (every
    /// query executes on the engine).
    pub cache: Option<CacheConfig>,
    /// The cost model used to price cache probes and hit streaming (host-side
    /// parameters only). Use the same config the engine was built with so
    /// hit overhead and engine time share one clock.
    pub pricing: MoctopusConfig,
    /// Run the cost-based RPQ plan optimizer (`rpq::optimizer`) on every
    /// query execution and **serve the plan it chooses**: a non-forward
    /// choice executes through [`GraphEngine::rpq_batch_planned`], forward
    /// stays on the canonical `rpq_batch` / `rpq_batch_tracked` path, and
    /// each executed query makes exactly one engine call. Served results are
    /// identical with the optimizer on or off (the plan-invariance
    /// contract); served `QueryStats` are the executed plan's, deterministic
    /// because the choice is a pure function of the engine's deterministic
    /// label statistics. Because any applied update can change those
    /// statistics, a `CostExact` cache gives every entry the
    /// [`QueryDeps::all`] footprint while this is on (SERVING.md §3.5).
    /// Default `false`.
    pub optimize: bool,
    /// Force every executing query to be *served* by this strategy instead
    /// of whatever the optimizer chose (or the forward plan, when the
    /// optimizer is off). A differential-testing knob: the forced-plan legs
    /// of `tests/plan_invariance.rs` and `tests/plan_footprint_soundness.rs`
    /// replay request logs under forward / bidirectional / split strategies.
    /// Independent of [`ServerConfig::optimize`]. Default `None`.
    pub plan_override: Option<rpq::PlanStrategy>,
}

impl Default for ServerConfig {
    /// Caching on (default [`CacheConfig`]), paper-default pricing, no
    /// optimizer, no plan override.
    fn default() -> Self {
        ServerConfig {
            cache: Some(CacheConfig::default()),
            pricing: MoctopusConfig::default(),
            optimize: false,
            plan_override: None,
        }
    }
}

/// Aggregate simulated-time accounting of one server's lifetime.
///
/// All fields accumulate in execution order, so — like the engines' stats —
/// they are byte-identical for identical request logs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeTotals {
    /// Query requests served.
    pub queries: u64,
    /// Update requests served.
    pub updates: u64,
    /// Simulated time spent executing on the engine (query misses/bypasses
    /// plus all updates).
    pub engine_time: SimTime,
    /// Simulated overhead of serving cache hits (probe + result streaming).
    pub hit_time: SimTime,
    /// Simulated engine time the cache hits avoided (the cached executions'
    /// latencies).
    pub avoided_time: SimTime,
    /// Total matched (query, destination) pairs across all query responses.
    pub matched_pairs: u64,
    /// Query requests served from the miss-collapse window (identical query
    /// already executed at the same logical timestamp; SERVING.md §6).
    pub collapsed: u64,
    /// Query requests the plan optimizer planned: one per request that
    /// executes on the engine — a row-mode request plans once for all its
    /// missing rows (0 unless [`ServerConfig::optimize`] is set; hits and
    /// collapses are not planned — there is nothing to execute).
    pub planned: u64,
    /// Of [`ServeTotals::planned`], how many chose a non-forward strategy.
    pub plan_nonforward: u64,
    /// Summed simulated cost of the baseline forward plans across all
    /// planned executions (edge-traversal units; see `rpq::optimizer`).
    pub plan_forward_cost: u64,
    /// Summed simulated cost of the chosen plans; `<= plan_forward_cost`
    /// always, because forward is always a candidate and wins ties.
    pub plan_chosen_cost: u64,
    /// Always 0: every query is served by exactly one execution of its
    /// chosen plan, so there is no second answer to disagree with. Kept
    /// only because the serving benchmark (`perfbench/`) adds it to its
    /// failure count.
    pub shadow_mismatches: u64,
    /// Summed simulated latency of the served executions that ran a
    /// non-forward strategy (through [`GraphEngine::rpq_batch_planned`]);
    /// already included in [`ServeTotals::engine_time`].
    pub shadow_chosen_time: SimTime,
}

impl ServeTotals {
    /// End-to-end simulated serving time: engine work plus hit overhead.
    pub fn served_time(&self) -> SimTime {
        self.engine_time + self.hit_time
    }

    /// Net simulated time the cache saved: avoided engine time minus the
    /// overhead of serving the hits (nanoseconds; negative if overhead won).
    pub fn saved_nanos(&self) -> f64 {
        self.avoided_time.as_nanos() - self.hit_time.as_nanos()
    }
}

/// A serving core: an engine behind a request log, with an optional
/// update-consistent result cache.
///
/// # Examples
///
/// ```
/// use graph_store::NodeId;
/// use moctopus::{MoctopusConfig, MoctopusSystem};
/// use moctopus_server::{QueryServer, Request, RequestKind, ServerConfig};
///
/// let mut engine = MoctopusSystem::new(MoctopusConfig::small_test());
/// let config = ServerConfig { pricing: *engine.config(), ..ServerConfig::default() };
/// let mut server = QueryServer::new(Box::new(engine), config);
///
/// let insert = RequestKind::Insert {
///     edges: (0..8u64).map(|i| (NodeId(i), NodeId(i + 1), graph_store::Label(1))).collect(),
/// };
/// server.execute_next(Request { at: 1, kind: insert });
/// let query = RequestKind::Query {
///     expr: rpq::parser::parse("1/1").unwrap(),
///     sources: vec![NodeId(0)],
/// };
/// let miss = server.execute_next(Request { at: 2, kind: query.clone() });
/// let hit = server.execute_next(Request { at: 3, kind: query });
/// assert_eq!(miss.results(), hit.results());
/// assert_eq!(hit.cache_outcome(), Some(moctopus_server::CacheOutcome::Hit));
/// ```
pub struct QueryServer {
    engine: Box<dyn GraphEngine + Send>,
    cache: Option<ResultCache>,
    /// Cost model for the serving layer's own work (cache probes, hit
    /// streaming); host-side parameters only, never mutated.
    pricer: PimSystem,
    totals: ServeTotals,
    /// The miss-collapse window: answers produced by engine executions at one
    /// logical timestamp, so identical queries arriving at the same `at`
    /// execute once (SERVING.md §6). Cleared by *any* update and by the first
    /// request at a different timestamp — which is what makes serving a
    /// collapsed answer provably fresh: the graph cannot have changed since
    /// the execution it reuses. Works with or without the result cache.
    window: Option<CollapseWindow>,
    /// Sequence counter for [`QueryServer::execute_next`]'s synthetic ids.
    next_seq: u64,
    /// Whether query executions run the cost-based plan optimizer
    /// ([`ServerConfig::optimize`]).
    optimize: bool,
    /// Forced served strategy ([`ServerConfig::plan_override`]).
    plan_override: Option<rpq::PlanStrategy>,
    /// The optimizer's choice for the most recent planned execution.
    last_plan: Option<rpq::PlanChoice>,
}

/// See the `window` field of `QueryServer`.
struct CollapseWindow {
    at: u64,
    answers: HashMap<CacheKey, (Vec<Vec<NodeId>>, QueryStats)>,
}

impl std::fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryServer")
            .field("engine", &self.engine.name())
            .field("cache", &self.cache)
            .field("totals", &self.totals)
            .finish_non_exhaustive()
    }
}

impl QueryServer {
    /// Creates a server over an engine.
    pub fn new(engine: Box<dyn GraphEngine + Send>, config: ServerConfig) -> Self {
        QueryServer {
            engine,
            cache: config.cache.map(ResultCache::new),
            pricer: PimSystem::new(config.pricing.pim),
            totals: ServeTotals::default(),
            window: None,
            next_seq: 0,
            optimize: config.optimize,
            plan_override: config.plan_override,
            last_plan: None,
        }
    }

    /// Executes one request under a caller-chosen id (the session layer uses
    /// real client ids; tests and single-caller uses can synthesize them).
    ///
    /// This function is the serving semantics: requests must arrive in the
    /// intended total order — the concurrent session layer guarantees
    /// `(at, client, seq)` order via `moctopus_runtime::SequencedQueue`.
    pub fn execute(&mut self, id: RequestId, request: Request) -> Response {
        let at = request.at;
        let body = match request.kind {
            RequestKind::Query { expr, sources } => self.serve_query(at, expr, sources),
            RequestKind::Insert { edges } => self.serve_update(&edges, true),
            RequestKind::Delete { edges } => self.serve_update(&edges, false),
        };
        Response { id, at, body }
    }

    /// [`QueryServer::execute`] with a synthesized id (client 0, running
    /// sequence) — the single-caller convenience used by examples and tests.
    pub fn execute_next(&mut self, request: Request) -> Response {
        let id = RequestId { client: crate::request::ClientId(0), seq: self.next_seq };
        self.next_seq += 1;
        self.execute(id, request)
    }

    fn serve_query(&mut self, at: u64, expr: rpq::RpqExpr, sources: Vec<NodeId>) -> ResponseBody {
        self.totals.queries += 1;
        // Normalization is part of the query pipeline (with or without a
        // cache), so spelling variants of one query share a cache key *and*
        // an execution shape.
        let expr = expr.normalize();

        // One key construction per request: probed by reference (collapse
        // window, then cache), consumed by the miss-path insert.
        let key = CacheKey::new(expr, sources);

        // Miss collapsing: an identical query already executed at this exact
        // logical timestamp with no update in between — reuse its answer.
        // Freshness is structural: the window only ever holds answers from
        // the current `at` and is cleared by every update, so the graph is
        // provably unchanged since the execution being reused.
        match &mut self.window {
            Some(window) if window.at == at => {
                if let Some((results, stats)) = window.answers.get(&key) {
                    let (results, stats) = (results.clone(), *stats);
                    let hit_cost = self.hit_cost(&stats);
                    self.totals.hit_time += hit_cost;
                    self.totals.avoided_time += stats.latency();
                    self.totals.matched_pairs += stats.matched_pairs as u64;
                    self.totals.collapsed += 1;
                    return ResponseBody::Query { results, stats, cache: CacheOutcome::Collapsed };
                }
            }
            _ => self.window = Some(CollapseWindow { at, answers: HashMap::new() }),
        }

        let Some(mode) = self.cache.as_ref().map(|c| c.config().mode) else {
            let strategy = self.plan_query(key.expr(), key.sources().len());
            let (results, stats, _) = self.execute_plan(&key, strategy, None);
            self.totals.matched_pairs += stats.matched_pairs as u64;
            self.record_in_window(&key, &results, stats);
            return ResponseBody::Query { results, stats, cache: CacheOutcome::Bypass };
        };
        if mode == ConsistencyMode::RowExact {
            return self.serve_query_by_rows(key);
        }

        // moctopus-lint: allow(panic-in-lib, reason = "the bypass branch above returned when self.cache is None")
        let cache = self.cache.as_mut().expect("checked above");
        if let Some((results, stats)) = cache.lookup(&key) {
            let hit_cost = self.hit_cost(&stats);
            self.totals.hit_time += hit_cost;
            self.totals.avoided_time += stats.latency();
            self.totals.matched_pairs += stats.matched_pairs as u64;
            return ResponseBody::Query { results, stats, cache: CacheOutcome::Hit };
        }

        let strategy = self.plan_query(key.expr(), key.sources().len());
        let (results, stats, deps) = self.execute_plan(&key, strategy, Some(mode));
        self.totals.matched_pairs += stats.matched_pairs as u64;
        self.record_in_window(&key, &results, stats);
        let alphabet = key.expr().label_alphabet();
        // moctopus-lint: allow(panic-in-lib, reason = "same borrow re-taken after the engine call; the bypass branch returned when None")
        let cache = self.cache.as_mut().expect("cache checked above");
        cache.insert(key, results.clone(), stats, deps, alphabet);
        ResponseBody::Query { results, stats, cache: CacheOutcome::Miss }
    }

    /// The [`ConsistencyMode::RowExact`] serving path: the batch decomposes
    /// into one *(expression, source)* row per position, each probed and —
    /// when missing — executed and cached independently, in batch order.
    /// Overlapping-but-unequal batches share rows, so they share cache state;
    /// a duplicate source later in the same batch hits the row its first
    /// occurrence just filled. The response's stats are the batch-order fold
    /// of the rows' stats ([`QueryStats::merge`]); the outcome is a hit only
    /// if **no** row touched the engine.
    fn serve_query_by_rows(&mut self, key: CacheKey) -> ResponseBody {
        // Take the cache out of `self` for the loop: row serving interleaves
        // cache probes with engine execution and pricing.
        // moctopus-lint: allow(panic-in-lib, reason = "only reached via the RowExact dispatch, which required Some(cache)")
        let mut cache = self.cache.take().expect("row mode implies a cache");
        let alphabet = key.expr().label_alphabet();
        let mut results: Vec<Vec<NodeId>> = Vec::with_capacity(key.sources().len());
        let mut folded = QueryStats::default();
        // Planned at the first missing row, once per request, at the
        // granularity rows execute: one source per engine call.
        let mut strategy: Option<rpq::PlanStrategy> = None;
        for &source in key.sources() {
            let row_key = CacheKey::new(key.expr().clone(), vec![source]);
            let (mut rows, stats) = match cache.lookup(&row_key) {
                Some((rows, stats)) => {
                    let hit_cost = self.hit_cost(&stats);
                    self.totals.hit_time += hit_cost;
                    self.totals.avoided_time += stats.latency();
                    (rows, stats)
                }
                None => {
                    let strategy = *strategy.get_or_insert_with(|| self.plan_query(key.expr(), 1));
                    let (rows, stats, deps) =
                        self.execute_plan(&row_key, strategy, Some(ConsistencyMode::RowExact));
                    cache.insert(row_key, rows.clone(), stats, deps, alphabet.clone());
                    (rows, stats)
                }
            };
            self.totals.matched_pairs += stats.matched_pairs as u64;
            // moctopus-lint: allow(panic-in-lib, reason = "rpq_batch returns exactly one row per source and row_key has one source")
            results.push(rows.pop().expect("single-source batches return one row"));
            folded.merge(&stats);
        }
        self.cache = Some(cache);
        let outcome = if strategy.is_some() {
            self.record_in_window(&key, &results, folded);
            CacheOutcome::Miss
        } else {
            CacheOutcome::Hit
        };
        ResponseBody::Query { results, stats: folded, cache: outcome }
    }

    /// Picks the strategy that serves a query about to execute over a batch
    /// of `batch` sources: [`ServerConfig::plan_override`] when set, else
    /// the cost-based optimizer's choice when [`ServerConfig::optimize`] is
    /// on, else the forward plan.
    ///
    /// With the optimizer on, the choice also feeds the [`ServeTotals`]
    /// planning counters and [`QueryServer::last_plan`]. The statistics come
    /// from [`GraphEngine::label_stats`], maintained incrementally by the
    /// engine's stores on every labelled update, so the choice is a
    /// deterministic function of the request log.
    fn plan_query(&mut self, expr: &rpq::RpqExpr, batch: usize) -> rpq::PlanStrategy {
        let chosen = self.optimize.then(|| {
            let stats = self.engine.label_stats();
            let choice = rpq::optimizer::choose_plan(expr, &stats, batch);
            // The chosen strategy is part of the normalized form: its
            // respelling of the query collapses back to the exact cache key
            // in use, so a query and its plan-rewritten form always share
            // one cache row.
            debug_assert_eq!(
                rpq::optimizer::rewritten_for(expr, choice.strategy).normalize(),
                *expr,
                "plan respelling must normalize back to the cache key"
            );
            self.totals.planned += 1;
            self.totals.plan_forward_cost =
                self.totals.plan_forward_cost.saturating_add(choice.forward_cost);
            self.totals.plan_chosen_cost =
                self.totals.plan_chosen_cost.saturating_add(choice.chosen_cost);
            if choice.strategy != rpq::PlanStrategy::Forward {
                self.totals.plan_nonforward += 1;
            }
            self.last_plan = Some(choice);
            choice.strategy
        });
        self.plan_override.or(chosen).unwrap_or(rpq::PlanStrategy::Forward)
    }

    /// Executes one batch on the engine under `strategy` — the single engine
    /// call behind every bypass, miss and row execution — and charges it to
    /// [`ServeTotals::engine_time`].
    ///
    /// `mode` is the cache the answer is bound for (`None`: bypass, so no
    /// footprint is needed). The returned footprint is sound for that mode:
    ///
    /// * forward executions keep the precise tracked deps of
    ///   [`GraphEngine::rpq_batch_tracked`];
    /// * a non-forward execution gets [`QueryDeps::all`], the trait's own
    ///   sound default — a pruned traversal's visited set does not cover
    ///   future inserts, and the backward sweep reads the whole label;
    /// * under [`ConsistencyMode::CostExact`] with the optimizer on, every
    ///   execution gets [`QueryDeps::all`]: the plan — and so the stats a
    ///   re-execution would report — depends on label statistics that any
    ///   applied update can change (SERVING.md §9 rule 1).
    fn execute_plan(
        &mut self,
        key: &CacheKey,
        strategy: rpq::PlanStrategy,
        mode: Option<ConsistencyMode>,
    ) -> (Vec<Vec<NodeId>>, QueryStats, QueryDeps) {
        let (results, stats, deps) = match (strategy, mode) {
            (rpq::PlanStrategy::Forward, None) => {
                let (results, stats) = self.engine.rpq_batch(key.expr(), key.sources());
                (results, stats, QueryDeps::all())
            }
            (rpq::PlanStrategy::Forward, Some(_)) => {
                self.engine.rpq_batch_tracked(key.expr(), key.sources())
            }
            (planned, _) => {
                let (results, stats) =
                    self.engine.rpq_batch_planned(key.expr(), key.sources(), planned);
                self.totals.shadow_chosen_time += stats.latency();
                (results, stats, QueryDeps::all())
            }
        };
        self.totals.engine_time += stats.latency();
        let deps = if self.optimize && mode == Some(ConsistencyMode::CostExact) {
            QueryDeps::all()
        } else {
            deps
        };
        (results, stats, deps)
    }

    /// Records an engine-produced answer in the collapse window (only
    /// executions are recorded: a cache hit needs no collapsing, its
    /// duplicates hit the cache too).
    fn record_in_window(&mut self, key: &CacheKey, results: &[Vec<NodeId>], stats: QueryStats) {
        // moctopus-lint: allow(panic-in-lib, reason = "serve_query opens the window before any path that records into it")
        let window = self.window.as_mut().expect("window opened by serve_query");
        window.answers.insert(key.clone(), (results.to_vec(), stats));
    }

    fn serve_update(
        &mut self,
        edges: &[(graph_store::NodeId, graph_store::NodeId, graph_store::Label)],
        insert: bool,
    ) -> ResponseBody {
        self.totals.updates += 1;
        // Any update ends the collapse window, even mid-timestamp: a later
        // identical query must re-execute against the changed graph.
        self.window = None;
        let (stats, invalidated) = match self.cache.as_mut() {
            Some(cache) => {
                let (stats, footprint) = if insert {
                    self.engine.insert_labeled_edges_tracked(edges)
                } else {
                    self.engine.delete_labeled_edges_tracked(edges)
                };
                (stats, cache.invalidate(&footprint))
            }
            None => {
                let stats = if insert {
                    self.engine.insert_labeled_edges(edges)
                } else {
                    self.engine.delete_labeled_edges(edges)
                };
                (stats, 0)
            }
        };
        self.totals.engine_time += stats.latency();
        ResponseBody::Update { stats, invalidated }
    }

    /// The simulated cost of serving one cache hit: a host-side probe plus
    /// streaming the cached result entries, priced by the same host
    /// parameters the engines use (SERVING.md §4).
    fn hit_cost(&self, stats: &moctopus::QueryStats) -> SimTime {
        self.pricer.host_instructions_cost(CACHE_PROBE_INSTRUCTIONS)
            + self.pricer.host_sequential_read_cost(stats.matched_pairs as u64 * RESULT_ENTRY_BYTES)
    }

    /// The engine's display name.
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Aggregate simulated-time accounting so far.
    pub fn totals(&self) -> ServeTotals {
        self.totals
    }

    /// The optimizer's [`rpq::PlanChoice`] for the most recent planned query
    /// execution (`None` before any execution or when
    /// [`ServerConfig::optimize`] is off). Diagnostic only: the served stats
    /// are the executed plan's, but the choice itself is never part of a
    /// response.
    pub fn last_plan(&self) -> Option<rpq::PlanChoice> {
        self.last_plan
    }

    /// Cache counters, if caching is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(ResultCache::stats)
    }

    /// Resident cache entries, if caching is enabled.
    pub fn cache_len(&self) -> Option<usize> {
        self.cache.as_ref().map(ResultCache::len)
    }

    /// Shared access to the engine, for read-only observables
    /// (`edge_count`, `threads`, …).
    pub fn engine_ref(&self) -> &(dyn GraphEngine + Send) {
        &*self.engine
    }

    /// Mutable access to the engine (tests/benches; not part of the serving
    /// path — mutating the graph around the cache invalidates nothing, so
    /// use requests for updates).
    pub fn engine_mut(&mut self) -> &mut (dyn GraphEngine + Send) {
        &mut *self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{CacheOutcome, RequestKind};
    use crate::shard::{ShardPlan, ShardedEngine};
    use graph_store::{Label, LabelStatsSnapshot, NodeId};
    use moctopus::{MoctopusConfig, MoctopusSystem, UpdateFootprint, UpdateStats};
    use rpq::RpqExpr;
    use std::sync::{Arc, Mutex};

    fn ring_insert(n: u64) -> RequestKind {
        RequestKind::Insert {
            edges: (0..n).map(|i| (NodeId(i), NodeId((i + 1) % n), Label(1))).collect(),
        }
    }

    fn query(text: &str, sources: &[u64]) -> RequestKind {
        RequestKind::Query {
            expr: rpq::parser::parse(text).expect("test query parses"),
            sources: sources.iter().copied().map(NodeId).collect(),
        }
    }

    fn server(cache: Option<CacheConfig>) -> QueryServer {
        let cfg = MoctopusConfig::small_test();
        QueryServer::new(
            Box::new(MoctopusSystem::new(cfg)),
            ServerConfig { cache, pricing: cfg, ..ServerConfig::default() },
        )
    }

    #[test]
    fn hits_serve_identical_results_and_stats() {
        let mut s = server(Some(CacheConfig::default()));
        s.execute_next(Request { at: 1, kind: ring_insert(16) });
        let miss = s.execute_next(Request { at: 2, kind: query("1/1", &[0, 5]) });
        let hit = s.execute_next(Request { at: 3, kind: query("1/1", &[0, 5]) });
        assert_eq!(miss.cache_outcome(), Some(CacheOutcome::Miss));
        assert_eq!(hit.cache_outcome(), Some(CacheOutcome::Hit));
        match (&miss.body, &hit.body) {
            (
                ResponseBody::Query { results: a, stats: sa, .. },
                ResponseBody::Query { results: b, stats: sb, .. },
            ) => {
                assert_eq!(a, b);
                assert_eq!(sa, sb);
                assert_eq!(a[0], vec![NodeId(2)]);
            }
            _ => panic!("expected query responses"),
        }
        let totals = s.totals();
        assert_eq!(totals.queries, 2);
        assert!(totals.hit_time > SimTime::ZERO);
        assert!(totals.saved_nanos() > 0.0, "a hit must cost less than re-execution");
        assert_eq!(s.cache_stats().unwrap().hits, 1);
    }

    #[test]
    fn spelling_variants_share_one_cache_entry() {
        let mut s = server(Some(CacheConfig::default()));
        s.execute_next(Request { at: 1, kind: ring_insert(16) });
        let a = s.execute_next(Request { at: 2, kind: query(".{2}", &[3]) });
        let b = s.execute_next(Request { at: 3, kind: query("./.{0}/.", &[3]) });
        assert_eq!(a.cache_outcome(), Some(CacheOutcome::Miss));
        assert_eq!(b.cache_outcome(), Some(CacheOutcome::Hit), "normalized keys must collide");
        assert_eq!(a.results(), b.results());
    }

    #[test]
    fn relevant_updates_invalidate_and_refill() {
        let mut s = server(Some(CacheConfig::default()));
        s.execute_next(Request { at: 1, kind: ring_insert(8) });
        s.execute_next(Request { at: 2, kind: query("1/1", &[0]) });
        // Deleting an edge on the query's path must invalidate the entry and
        // the next lookup must re-execute against the new graph.
        let del = s.execute_next(Request {
            at: 3,
            kind: RequestKind::Delete { edges: vec![(NodeId(1), NodeId(2), Label(1))] },
        });
        match del.body {
            ResponseBody::Update { invalidated, .. } => assert_eq!(invalidated, 1),
            _ => panic!("expected update response"),
        }
        let requery = s.execute_next(Request { at: 4, kind: query("1/1", &[0]) });
        assert_eq!(requery.cache_outcome(), Some(CacheOutcome::Miss));
        assert!(requery.results().unwrap()[0].is_empty(), "the 2-hop path is gone");
    }

    #[test]
    fn disabled_cache_bypasses_everything() {
        let mut s = server(None);
        s.execute_next(Request { at: 1, kind: ring_insert(8) });
        let a = s.execute_next(Request { at: 2, kind: query("1/1", &[0]) });
        let b = s.execute_next(Request { at: 3, kind: query("1/1", &[0]) });
        assert_eq!(a.cache_outcome(), Some(CacheOutcome::Bypass));
        assert_eq!(b.cache_outcome(), Some(CacheOutcome::Bypass));
        assert_eq!(s.cache_stats(), None);
        assert_eq!(s.totals().hit_time, SimTime::ZERO);
    }

    #[test]
    fn same_timestamp_duplicates_collapse_onto_one_execution() {
        // Even with no cache, identical queries at one logical timestamp
        // execute once; the duplicates reuse the first execution bit for bit.
        let mut s = server(None);
        s.execute_next(Request { at: 1, kind: ring_insert(16) });
        let first = s.execute_next(Request { at: 2, kind: query("1/1", &[0, 5]) });
        let second = s.execute_next(Request { at: 2, kind: query("1/1", &[0, 5]) });
        assert_eq!(first.cache_outcome(), Some(CacheOutcome::Bypass));
        assert_eq!(second.cache_outcome(), Some(CacheOutcome::Collapsed));
        match (&first.body, &second.body) {
            (
                ResponseBody::Query { results: a, stats: sa, .. },
                ResponseBody::Query { results: b, stats: sb, .. },
            ) => {
                assert_eq!(a, b);
                assert_eq!(sa, sb);
            }
            _ => panic!("expected query responses"),
        }
        assert_eq!(s.totals().collapsed, 1);
        // A later timestamp re-executes: the window does not outlive its `at`.
        let later = s.execute_next(Request { at: 3, kind: query("1/1", &[0, 5]) });
        assert_eq!(later.cache_outcome(), Some(CacheOutcome::Bypass));
    }

    #[test]
    fn updates_end_the_collapse_window_even_mid_timestamp() {
        let mut s = server(None);
        s.execute_next(Request { at: 1, kind: ring_insert(8) });
        let before = s.execute_next(Request { at: 2, kind: query("1/1", &[0]) });
        // Same `at`, but an update lands between the duplicates: the second
        // copy must re-execute against the changed graph.
        s.execute_next(Request {
            at: 2,
            kind: RequestKind::Delete { edges: vec![(NodeId(1), NodeId(2), Label(1))] },
        });
        let after = s.execute_next(Request { at: 2, kind: query("1/1", &[0]) });
        assert_eq!(after.cache_outcome(), Some(CacheOutcome::Bypass), "no stale collapse");
        assert_ne!(before.results(), after.results(), "the 2-hop path is gone");
        assert_eq!(s.totals().collapsed, 0);
    }

    #[test]
    fn row_mode_shares_rows_between_overlapping_batches() {
        let row_cache =
            Some(CacheConfig { capacity: 4096, mode: crate::cache::ConsistencyMode::RowExact });
        let mut s = server(row_cache);
        s.execute_next(Request { at: 1, kind: ring_insert(16) });
        let miss = s.execute_next(Request { at: 2, kind: query("1/1", &[0, 5, 9]) });
        assert_eq!(miss.cache_outcome(), Some(CacheOutcome::Miss));
        assert_eq!(s.cache_len(), Some(3), "one row per distinct source");

        // A *different* batch overlapping two of the three sources: both
        // overlapped rows hit, only the new source executes.
        let partial = s.execute_next(Request { at: 3, kind: query("1/1", &[5, 2, 0]) });
        assert_eq!(partial.cache_outcome(), Some(CacheOutcome::Miss), "one row still executed");
        assert_eq!(s.cache_stats().unwrap().hits, 2);
        assert_eq!(s.cache_len(), Some(4));

        // Full overlap in yet another order: a pure hit, assembled from rows.
        let hit = s.execute_next(Request { at: 4, kind: query("1/1", &[9, 0, 5]) });
        assert_eq!(hit.cache_outcome(), Some(CacheOutcome::Hit));
        let want: Vec<Vec<NodeId>> = vec![
            miss.results().unwrap()[2].clone(),
            miss.results().unwrap()[0].clone(),
            miss.results().unwrap()[1].clone(),
        ];
        assert_eq!(hit.results().unwrap(), want, "rows permute with the batch");
    }

    #[test]
    fn row_mode_answers_match_whole_batch_execution() {
        let row_cache =
            Some(CacheConfig { capacity: 4096, mode: crate::cache::ConsistencyMode::RowExact });
        let mut rows = server(row_cache);
        let mut plain = server(None);
        for s in [&mut rows, &mut plain] {
            s.execute_next(Request { at: 1, kind: ring_insert(24) });
        }
        for (at, sources) in [(2u64, vec![0u64, 3, 7]), (3, vec![7, 7, 1]), (4, vec![3, 0])] {
            let q = |srcs: &[u64]| query("1/(1|2)", srcs);
            let a = rows.execute_next(Request { at, kind: q(&sources) });
            let b = plain.execute_next(Request { at, kind: q(&sources) });
            assert_eq!(a.results(), b.results(), "row assembly must be invisible in answers");
        }
        // Duplicate source inside one batch: the second occurrence hits the
        // row the first occurrence filled (2 distinct rows + 1 hit at `at` 3,
        // then both rows of `at` 4 already resident).
        assert!(rows.cache_stats().unwrap().hits >= 3);
    }

    #[test]
    fn row_mode_invalidates_per_row() {
        let row_cache =
            Some(CacheConfig { capacity: 4096, mode: crate::cache::ConsistencyMode::RowExact });
        let mut s = server(row_cache);
        s.execute_next(Request { at: 1, kind: ring_insert(8) });
        s.execute_next(Request { at: 2, kind: query("1/1", &[0, 4]) });
        assert_eq!(s.cache_len(), Some(2));
        // Deleting the edge 1→2 can only change answers that reach node 1 or
        // 2 — the row for source 4 (answer {6}) must survive.
        let del = s.execute_next(Request {
            at: 3,
            kind: RequestKind::Delete { edges: vec![(NodeId(1), NodeId(2), Label(1))] },
        });
        match del.body {
            ResponseBody::Update { invalidated, .. } => assert_eq!(invalidated, 1),
            _ => panic!("expected update response"),
        }
        let requery = s.execute_next(Request { at: 4, kind: query("1/1", &[0, 4]) });
        assert_eq!(requery.cache_outcome(), Some(CacheOutcome::Miss), "source 0's row refills");
        assert_eq!(s.cache_stats().unwrap().hits, 1, "source 4's row survived and hit");
        assert!(requery.results().unwrap()[0].is_empty());
        assert_eq!(requery.results().unwrap()[1], vec![NodeId(6)]);
    }

    /// Every engine call a [`Counting`] wrapper saw: the number of query
    /// calls (any entry point) and the simulated latency of every call,
    /// queries and updates, summed in call order — the order in which
    /// [`ServeTotals::engine_time`] accumulates, so the two compare exactly.
    #[derive(Debug, Default)]
    struct Calls {
        queries: u64,
        latency: SimTime,
    }

    /// A [`GraphEngine`] that forwards every call to `inner` and records it
    /// in a shared [`Calls`] the test reads after the server owns the engine.
    struct Counting {
        inner: Box<dyn GraphEngine + Send>,
        calls: Arc<Mutex<Calls>>,
    }

    impl Counting {
        fn query<R>(&mut self, out: R, stats: impl Fn(&R) -> QueryStats) -> R {
            let mut calls = self.calls.lock().unwrap();
            calls.queries += 1;
            calls.latency += stats(&out).latency();
            out
        }

        fn update<R>(&mut self, out: R, stats: impl Fn(&R) -> UpdateStats) -> R {
            self.calls.lock().unwrap().latency += stats(&out).latency();
            out
        }
    }

    impl GraphEngine for Counting {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn insert_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
            let out = self.inner.insert_labeled_edges(edges);
            self.update(out, |s| *s)
        }

        fn delete_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
            let out = self.inner.delete_labeled_edges(edges);
            self.update(out, |s| *s)
        }

        fn insert_labeled_edges_tracked(
            &mut self,
            edges: &[(NodeId, NodeId, Label)],
        ) -> (UpdateStats, UpdateFootprint) {
            let out = self.inner.insert_labeled_edges_tracked(edges);
            self.update(out, |(s, _)| *s)
        }

        fn delete_labeled_edges_tracked(
            &mut self,
            edges: &[(NodeId, NodeId, Label)],
        ) -> (UpdateStats, UpdateFootprint) {
            let out = self.inner.delete_labeled_edges_tracked(edges);
            self.update(out, |(s, _)| *s)
        }

        fn k_hop_batch(&mut self, sources: &[NodeId], k: usize) -> (Vec<Vec<NodeId>>, QueryStats) {
            let out = self.inner.k_hop_batch(sources, k);
            self.query(out, |(_, s)| *s)
        }

        fn rpq_batch(
            &mut self,
            expr: &RpqExpr,
            sources: &[NodeId],
        ) -> (Vec<Vec<NodeId>>, QueryStats) {
            let out = self.inner.rpq_batch(expr, sources);
            self.query(out, |(_, s)| *s)
        }

        fn rpq_batch_planned(
            &mut self,
            expr: &RpqExpr,
            sources: &[NodeId],
            strategy: rpq::PlanStrategy,
        ) -> (Vec<Vec<NodeId>>, QueryStats) {
            let out = self.inner.rpq_batch_planned(expr, sources, strategy);
            self.query(out, |(_, s)| *s)
        }

        fn rpq_batch_tracked(
            &mut self,
            expr: &RpqExpr,
            sources: &[NodeId],
        ) -> (Vec<Vec<NodeId>>, QueryStats, QueryDeps) {
            let out = self.inner.rpq_batch_tracked(expr, sources);
            self.query(out, |(_, s, _)| *s)
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

        fn label_stats(&self) -> LabelStatsSnapshot {
            self.inner.label_stats()
        }
    }

    /// A rare-closure graph: long label-1 chains with chords, a label-4
    /// sprinkle, and only two label-8 edges — the shape on which the
    /// optimizer leaves the forward plan for `1+/8`.
    fn rare_closure_edges() -> Vec<(NodeId, NodeId, Label)> {
        let n = 96u64;
        let mut edges: Vec<(NodeId, NodeId, Label)> = (0..n)
            .flat_map(|i| {
                [
                    (NodeId(i), NodeId((i + 1) % n), Label(1)),
                    (NodeId(i), NodeId((i * 7 + 3) % n), Label(1)),
                ]
            })
            .collect();
        edges.extend((0..n).step_by(3).map(|i| (NodeId(i), NodeId((i + 11) % n), Label(4))));
        edges.extend([(NodeId(90), NodeId(5), Label(8)), (NodeId(40), NodeId(77), Label(8))]);
        edges
    }

    /// With the optimizer on, every executed query — bypass, whole-batch
    /// miss, or row miss — makes exactly one engine call, whatever plan
    /// serves it: the call count equals the executions, `engine_time` is
    /// exactly the executed calls' latencies, and the shard plane's
    /// `queries` counter (whose doc promises "misses and bypasses") agrees.
    #[test]
    fn every_executed_query_makes_exactly_one_engine_call() {
        let edges = rare_closure_edges();
        let modes = [
            None,
            Some(ConsistencyMode::CostExact),
            Some(ConsistencyMode::ResultExact),
            Some(ConsistencyMode::RowExact),
        ];
        for mode in modes {
            let cfg = MoctopusConfig::small_test().with_threads(1);
            let replicas = (0..2)
                .map(|_| {
                    let mut engine = MoctopusSystem::new(cfg);
                    engine.insert_labeled_edges(&edges);
                    Box::new(engine) as Box<dyn GraphEngine + Send>
                })
                .collect();
            let plane =
                ShardedEngine::new(replicas, ShardPlan::hashed(ShardPlan::DEFAULT_GROUPS), 1);
            let clock = plane.clock();
            let calls = Arc::new(Mutex::new(Calls::default()));
            let engine = Counting { inner: Box::new(plane), calls: Arc::clone(&calls) };
            let mut s = QueryServer::new(
                Box::new(engine),
                ServerConfig {
                    cache: mode.map(|mode| CacheConfig { capacity: 64, mode }),
                    pricing: cfg,
                    optimize: true,
                    plan_override: None,
                },
            );
            // Repeats (hits), a same-timestamp duplicate (collapse),
            // overlapping batches (row sharing) and an update mid-log.
            let batch: Vec<u64> = (0..24).map(|i| i * 4).collect();
            let log = [
                (1, query("(1)+/8", &batch)),
                (2, query("(1)*/8", &batch)),
                (2, query("(1)*/8", &batch)),
                (3, query("(1)+/8", &batch[4..])),
                (4, query("1/(8|4)", &batch)),
                (
                    5,
                    RequestKind::Insert {
                        edges: vec![
                            (NodeId(12), NodeId(60), Label(8)),
                            (NodeId(7), NodeId(8), Label(1)),
                        ],
                    },
                ),
                (6, query("(1)+/8", &batch)),
                (7, query("(1)+/8", &batch)),
                (8, query("1/8", &batch[..6])),
            ];
            let (mut executed, mut bypasses) = (SimTime::ZERO, 0u64);
            for (at, kind) in log {
                match s.execute_next(Request { at, kind }).body {
                    ResponseBody::Query { stats, cache, .. } => match cache {
                        CacheOutcome::Bypass => {
                            bypasses += 1;
                            executed += stats.latency();
                        }
                        CacheOutcome::Miss => executed += stats.latency(),
                        CacheOutcome::Hit | CacheOutcome::Collapsed => {}
                    },
                    ResponseBody::Update { stats, .. } => executed += stats.latency(),
                }
            }
            let totals = s.totals();
            let executions = bypasses + s.cache_stats().map_or(0, |c| c.misses);
            let calls = calls.lock().unwrap();
            assert!(totals.plan_nonforward > 0, "{mode:?}: the log never served a planned query");
            assert_eq!(calls.queries, executions, "{mode:?}: one engine call per execution");
            assert_eq!(
                totals.engine_time, calls.latency,
                "{mode:?}: engine_time is the calls' time"
            );
            if mode != Some(ConsistencyMode::RowExact) {
                // A row-mode miss response folds in its hit rows' stats, so
                // only whole-batch responses sum to the engine's time.
                assert_eq!(totals.engine_time, executed, "{mode:?}: executed responses' latency");
            }
            assert_eq!(clock.lock().unwrap().queries, executions, "{mode:?}: shard queries");
        }
    }
}
