//! Shared harness code for regenerating the paper's tables and figures.
//!
//! Every experiment binary (`table1`, `fig4`, `fig5`, `fig6`, `summary`,
//! `ablation`) builds its workloads and engines through this library so the
//! scaling rules are identical everywhere:
//!
//! * graphs are generated from the Table 1 trace specifications at a uniform
//!   `--scale` factor (default 1/64 of the original node counts);
//! * the query batch size and the update batch size are the paper's 64 K,
//!   scaled by the same factor (with a floor so tiny scales stay meaningful);
//! * the modeled host last-level cache shrinks with the graph so the
//!   scaled-down runs stay in the paper's "graph ≫ cache" regime (see the
//!   substitution notes in EXPERIMENTS.md);
//! * all latencies reported by the binaries are **simulated times** from the
//!   [`pim_sim`] cost model, the quantity the paper's figures plot.

pub mod serve;

pub use serve::{ServeTrace, ServeTraceConfig};

use graph_gen::labels::LabelMixConfig;
use graph_gen::traces::TraceSpec;
use graph_store::{AdjacencyGraph, Label, NodeId};
use moctopus::{GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem};
use moctopus_runtime::WorkerPool;

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// Uniform scale factor applied to the paper's node counts (default 1/64).
    pub scale: f64,
    /// Batch size for queries and updates (default: 64 K × `scale`, ≥ 1024).
    pub batch: usize,
    /// Random seed for graph generation and workload sampling.
    pub seed: u64,
    /// Trace ids to run (defaults to all fifteen).
    pub traces: Vec<usize>,
    /// Host worker threads for the engines' execution runtime (default: the
    /// machine's available parallelism). Changes wall-clock only — simulated
    /// output is byte-identical at every thread count (CONCURRENCY.md).
    pub threads: usize,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        let scale = 1.0 / 64.0;
        HarnessOptions {
            scale,
            batch: Self::scaled_batch(scale),
            seed: 42,
            traces: (1..=15).collect(),
            threads: WorkerPool::available_parallelism(),
        }
    }
}

impl HarnessOptions {
    /// The paper's 64 K batch, scaled, with a floor of 1024.
    pub fn scaled_batch(scale: f64) -> usize {
        ((64.0 * 1024.0 * scale) as usize).max(1024)
    }

    /// Parses options from command-line arguments.
    ///
    /// Recognised flags: `--scale <f64>`, `--batch <usize>`, `--seed <u64>`,
    /// `--traces <comma separated ids>`, `--threads <usize>` (`0` = available
    /// parallelism). Unknown flags are ignored so binaries can add their own.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut options = HarnessOptions::default();
        let mut explicit_batch = false;
        let args: Vec<String> = args.into_iter().collect();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = args.get(i + 1).cloned();
            match (flag, value) {
                ("--scale", Some(v)) => {
                    if let Ok(s) = v.parse::<f64>() {
                        options.scale = s.clamp(1e-6, 1.0);
                    }
                    i += 2;
                }
                ("--batch", Some(v)) => {
                    if let Ok(b) = v.parse::<usize>() {
                        options.batch = b.max(1);
                        explicit_batch = true;
                    }
                    i += 2;
                }
                ("--seed", Some(v)) => {
                    if let Ok(s) = v.parse::<u64>() {
                        options.seed = s;
                    }
                    i += 2;
                }
                ("--traces", Some(v)) => {
                    let ids: Vec<usize> = v
                        .split(',')
                        .filter_map(|t| t.trim().parse::<usize>().ok())
                        .filter(|&t| (1..=15).contains(&t))
                        .collect();
                    if !ids.is_empty() {
                        options.traces = ids;
                    }
                    i += 2;
                }
                ("--threads", Some(v)) => {
                    if let Ok(t) = v.parse::<usize>() {
                        // 0 is the "available parallelism" sentinel.
                        options.threads =
                            if t == 0 { WorkerPool::available_parallelism() } else { t };
                    }
                    i += 2;
                }
                _ => i += 1,
            }
        }
        if !explicit_batch {
            options.batch = Self::scaled_batch(options.scale);
        }
        options
    }

    /// Parses options from `std::env::args()` (skipping the binary name).
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// The system configuration used by the PIM engines and the baseline,
    /// with the host cache scaled down alongside the graph and the execution
    /// runtime set to `self.threads` workers.
    pub fn system_config(&self) -> MoctopusConfig {
        let mut cfg = MoctopusConfig::paper_defaults().with_threads(self.threads);
        let scaled_cache = (22.0 * 1024.0 * 1024.0 * self.scale) as u64;
        cfg.pim.host.cache_capacity_bytes = scaled_cache.max(64 * 1024);
        cfg
    }
}

/// A generated workload for one trace: the graph, its edge stream, and the
/// query start nodes.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    /// The trace specification this workload was generated from.
    pub spec: &'static TraceSpec,
    /// The synthetic stand-in graph.
    pub graph: AdjacencyGraph,
    /// The graph's edges in ingestion order.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Randomly selected start nodes (batch of queries).
    pub sources: Vec<NodeId>,
}

impl TraceWorkload {
    /// Generates the workload for one paper trace.
    ///
    /// # Panics
    ///
    /// Panics if `trace_id` is not in `1..=15`.
    pub fn generate(trace_id: usize, options: &HarnessOptions) -> Self {
        let spec = TraceSpec::by_trace_id(trace_id).expect("trace id must be 1..=15");
        let graph = spec.generate(options.scale, options.seed ^ trace_id as u64);
        let mut edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        edges.sort();
        let sources = graph_gen::stream::sample_start_nodes(&graph, options.batch, options.seed);
        TraceWorkload { spec, graph, edges, sources }
    }

    /// Builds a Moctopus system loaded with this workload.
    pub fn moctopus(&self, options: &HarnessOptions) -> MoctopusSystem {
        MoctopusSystem::new(options.system_config()).with_edge_stream(&self.edges)
    }

    /// Builds a PIM-hash system loaded with this workload.
    pub fn pim_hash(&self, options: &HarnessOptions) -> MoctopusSystem {
        MoctopusSystem::pim_hash(options.system_config()).with_edge_stream(&self.edges)
    }

    /// Builds the RedisGraph-like baseline loaded with this workload.
    pub fn host_baseline(&self, options: &HarnessOptions) -> HostBaseline {
        HostBaseline::from_edge_stream(options.system_config(), &self.edges)
    }

    /// Builds all three engines, boxed, in the order the paper plots them.
    pub fn all_engines(&self, options: &HarnessOptions) -> Vec<Box<dyn GraphEngine>> {
        vec![
            Box::new(self.moctopus(options)),
            Box::new(self.pim_hash(options)),
            Box::new(self.host_baseline(options)),
        ]
    }
}

/// The labelled query set swept by the `rpq` experiment binary (and recorded
/// in the `summary --json` bench baseline): a fixed-length label chain, a
/// star/alternation pattern, a plain k-hop, and a transitive closure — one
/// representative of every execution strategy the engines implement.
pub const RPQ_QUERY_SET: [&str; 4] = ["1/2/3", "1/(2|3)*/4", ".{2}", "1+"];

/// The PathForge AQ1–AQ28 conformance taxonomy, instantiated over the Zipf
/// label mix this harness generates: `a` = label 1 (the most common), `b` =
/// label 8 (the rarest), `c` = label 4 (mid-rank); PathForge's `.`
/// concatenation operator is this syntax's `/`. Swept by `rpq --taxonomy`
/// and pinned end-to-end by `tests/rpq_taxonomy.rs`.
pub const AQ_TAXONOMY: [(&str, &str); 28] = [
    ("AQ1", "1/8"),
    ("AQ2", "1/8/4"),
    ("AQ3", "(1/8)?"),
    ("AQ4", "1/(8|4)"),
    ("AQ5", "4/(1?)"),
    ("AQ6", "(4?)/1"),
    ("AQ7", "1|8"),
    ("AQ8", "(1/8)|4"),
    ("AQ9", "(1|8)|4"),
    ("AQ10", "1+|8"),
    ("AQ11", "1*|8"),
    ("AQ12", "1|4"),
    ("AQ13", "(1?)|8"),
    ("AQ14", "4|(1?)"),
    ("AQ15", "1?"),
    ("AQ16", "1??"),
    ("AQ17", "4|(1|8)"),
    ("AQ18", "(1|8)+"),
    ("AQ19", "(1|8)?"),
    ("AQ20", "(1|8)*"),
    ("AQ21", "4|(1/8)"),
    ("AQ22", "1+/8"),
    ("AQ23", "1*/8"),
    ("AQ24", "1/8+"),
    ("AQ25", "1/8*"),
    ("AQ26", "1|(1+)"),
    ("AQ27", "1+"),
    ("AQ28", "1*"),
];

/// A generated labelled workload: a Zipf label mix layered over one of the
/// standard topologies, plus the labelled ingestion stream and query sources.
#[derive(Debug, Clone)]
pub struct RpqWorkload {
    /// Topology family name used in experiment output.
    pub name: &'static str,
    /// The labelled stand-in graph.
    pub graph: AdjacencyGraph,
    /// The graph's labelled edges in ingestion order.
    pub edges: Vec<(NodeId, NodeId, Label)>,
    /// Randomly selected start nodes (batch of queries).
    pub sources: Vec<NodeId>,
}

impl RpqWorkload {
    /// Node cap of the labelled workloads: unlike k-hop batches, closure
    /// queries (`1+`, `(2|3)*`) materialise a per-source *reachable set*, so
    /// answer size — and the engines' product-frontier working set — grows
    /// with `nodes × batch` instead of staying frontier-sized.
    const MAX_NODES: usize = 32 * 1024;

    /// Batch cap of the labelled workloads, for the same reason (the k-hop
    /// harness floor).
    const MAX_BATCH: usize = 1024;

    /// Paper-like node budget of the labelled workloads at `scale`, capped at
    /// [`RpqWorkload::MAX_NODES`].
    fn scaled_nodes(scale: f64) -> usize {
        ((128.0 * 1024.0 * scale) as usize).clamp(256, Self::MAX_NODES)
    }

    /// The label mix every labelled workload draws from (one source of truth
    /// for the generators and the metadata the binaries print/record).
    pub fn label_mix() -> LabelMixConfig {
        LabelMixConfig::default()
    }

    /// A labelled uniform (low-skew) workload.
    pub fn uniform(options: &HarnessOptions) -> Self {
        let topology =
            graph_gen::uniform::generate(Self::scaled_nodes(options.scale), 6.0, options.seed);
        Self::from_topology("uniform", topology, options)
    }

    /// A labelled power-law (skewed, community-structured) workload.
    pub fn power_law(options: &HarnessOptions) -> Self {
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes: Self::scaled_nodes(options.scale),
            high_degree_fraction: 0.02,
            ..Default::default()
        };
        let topology = graph_gen::powerlaw::generate(&cfg, options.seed);
        Self::from_topology("power-law", topology, options)
    }

    /// The paper's motivating rare-closure case as a crafted workload: a
    /// large chorded label-1 ring that can never reach the rare label 8,
    /// plus a small **disjoint** pocket whose label-1 chains feed label-8
    /// edges into a tiny sink cluster (labels 2–7 sprinkled over the big
    /// component so the rest of the taxonomy stays non-trivial).
    ///
    /// Closure-over-rare-tail queries (`1+/8`, `1*/8`) flood the whole big
    /// component under the forward plan but prune to the pocket under the
    /// bidirectional plan — the backward useful-set pass starts from the
    /// rare label's few sources and never touches the ring — so this is the
    /// workload where the optimizer's priced win becomes a large *measured*
    /// executed win (recorded in BENCH_PR10.json).
    pub fn rare_closure(options: &HarnessOptions) -> Self {
        let nodes = Self::scaled_nodes(options.scale) as u64;
        let big = (nodes * 7 / 8).max(64);
        let chains = (nodes / 128).max(4);
        let mut graph = AdjacencyGraph::new();
        // Label 1 is a near-ring (one out-edge per node plus sparse stride-32
        // shortcuts): per-round closure fanout stays ~1, so the backward
        // sweep priced from the rare label's few sources is honestly cheap
        // while a forward closure must still flood the whole component.
        for i in 0..big {
            graph.insert_edge(NodeId(i), NodeId((i + 1) % big), Label(1));
            if i % 32 == 0 {
                graph.insert_edge(NodeId(i), NodeId((i + 32) % big), Label(1));
            }
            if i % 3 == 0 {
                graph.insert_edge(NodeId(i), NodeId((i * 5 + 1) % big), Label(2 + (i % 6) as u16));
            }
        }
        const CHAIN_LEN: u64 = 8;
        let sink = big + chains * CHAIN_LEN;
        for c in 0..chains {
            let start = big + c * CHAIN_LEN;
            for i in 0..CHAIN_LEN - 1 {
                graph.insert_edge(NodeId(start + i), NodeId(start + i + 1), Label(1));
            }
            graph.insert_edge(NodeId(start + CHAIN_LEN - 1), NodeId(sink + c % 4), Label(8));
        }
        let edges = graph_gen::labels::labeled_edge_stream(&graph);
        let batch = options.batch.min(Self::MAX_BATCH);
        let mut sources = graph_gen::stream::sample_start_nodes(&graph, batch, options.seed);
        // Pin a few chain heads into the batch so rare-tail answers are
        // non-empty regardless of what the sampler drew.
        for c in 0..chains.min(8) {
            let slot = (c as usize * 7) % sources.len();
            sources[slot] = NodeId(big + c * CHAIN_LEN);
        }
        RpqWorkload { name: "rare-closure", graph, edges, sources }
    }

    fn from_topology(
        name: &'static str,
        topology: AdjacencyGraph,
        options: &HarnessOptions,
    ) -> Self {
        let graph = graph_gen::labels::relabel(&topology, &Self::label_mix(), options.seed);
        let edges = graph_gen::labels::labeled_edge_stream(&graph);
        let batch = options.batch.min(Self::MAX_BATCH);
        let sources = graph_gen::stream::sample_start_nodes(&graph, batch, options.seed);
        RpqWorkload { name, graph, edges, sources }
    }

    /// Builds all three engines loaded with the labelled stream, in the order
    /// the paper plots them (Moctopus refined once, as in the k-hop harness).
    pub fn all_engines(&self, options: &HarnessOptions) -> Vec<Box<dyn GraphEngine>> {
        let mut moctopus = MoctopusSystem::new(options.system_config());
        moctopus.insert_labeled_edges(&self.edges);
        moctopus.refine_locality();
        let mut pim_hash = MoctopusSystem::pim_hash(options.system_config());
        pim_hash.insert_labeled_edges(&self.edges);
        let mut baseline = HostBaseline::new(options.system_config());
        baseline.insert_labeled_edges(&self.edges);
        vec![Box::new(moctopus), Box::new(pim_hash), Box::new(baseline)]
    }
}

/// Geometric mean of a slice of positive ratios (1.0 for an empty slice).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Formats a simulated latency in milliseconds with three decimals.
pub fn fmt_ms(t: pim_sim::SimTime) -> String {
    format!("{:.3}", t.as_millis())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_cover_all_traces() {
        let o = HarnessOptions::default();
        assert_eq!(o.traces.len(), 15);
        assert_eq!(o.batch, 1024);
        assert!(o.scale > 0.0);
    }

    #[test]
    fn argument_parsing_overrides_defaults() {
        let o = HarnessOptions::from_args(
            ["--scale", "0.5", "--batch", "2048", "--seed", "7", "--traces", "1,2,99"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.batch, 2048);
        assert_eq!(o.seed, 7);
        assert_eq!(o.traces, vec![1, 2]);
    }

    #[test]
    fn batch_follows_scale_unless_explicit() {
        let o = HarnessOptions::from_args(["--scale", "1.0"].iter().map(|s| s.to_string()));
        assert_eq!(o.batch, 64 * 1024);
        let o2 = HarnessOptions::from_args(
            ["--scale", "1.0", "--batch", "128"].iter().map(|s| s.to_string()),
        );
        assert_eq!(o2.batch, 128);
    }

    #[test]
    fn threads_flag_overrides_and_zero_means_auto() {
        let o = HarnessOptions::from_args(["--threads", "3"].iter().map(|s| s.to_string()));
        assert_eq!(o.threads, 3);
        assert_eq!(o.system_config().threads, 3);
        let auto = HarnessOptions::from_args(["--threads", "0"].iter().map(|s| s.to_string()));
        assert_eq!(auto.threads, moctopus_runtime::WorkerPool::available_parallelism());
        assert!(HarnessOptions::default().threads >= 1, "default follows the machine");
    }

    #[test]
    fn unknown_flags_are_ignored() {
        let o = HarnessOptions::from_args(
            ["--nope", "x", "--scale", "0.25"].iter().map(|s| s.to_string()),
        );
        assert_eq!(o.scale, 0.25);
    }

    #[test]
    fn workload_generation_matches_spec_family() {
        let options = HarnessOptions { scale: 0.001, batch: 64, ..HarnessOptions::default() };
        let road = TraceWorkload::generate(1, &options);
        assert_eq!(road.spec.trace_id, 1);
        assert_eq!(road.graph.count_high_degree(16), 0);
        assert_eq!(road.sources.len(), 64);
        let skewed = TraceWorkload::generate(12, &options);
        assert!(skewed.graph.count_high_degree(16) > 0);
    }

    #[test]
    fn engines_built_from_a_workload_agree() {
        let options = HarnessOptions { scale: 0.0005, batch: 32, ..HarnessOptions::default() };
        let w = TraceWorkload::generate(14, &options);
        let mut engines = w.all_engines(&options);
        let (reference, _) = engines[2].k_hop_batch(&w.sources, 2);
        for engine in engines.iter_mut().take(2) {
            let (r, _) = engine.k_hop_batch(&w.sources, 2);
            assert_eq!(r, reference, "{} differs from the baseline", engine.name());
        }
    }

    #[test]
    fn geometric_mean_behaviour() {
        assert_eq!(geometric_mean(&[]), 1.0);
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-9);
        assert!((geometric_mean(&[8.0]) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_config_shrinks_the_cache() {
        let options = HarnessOptions { scale: 0.01, ..HarnessOptions::default() };
        let cfg = options.system_config();
        assert!(cfg.pim.host.cache_capacity_bytes < 22 * 1024 * 1024);
        assert!(cfg.pim.host.cache_capacity_bytes >= 64 * 1024);
    }

    #[test]
    fn rpq_workload_is_labelled_and_capped() {
        let options = HarnessOptions { scale: 1.0, ..HarnessOptions::default() };
        let w = RpqWorkload::power_law(&options);
        assert!(w.graph.node_count() <= RpqWorkload::MAX_NODES);
        assert_eq!(w.sources.len(), RpqWorkload::MAX_BATCH, "batch capped at the harness floor");
        assert!(w.graph.edges().all(|(_, _, l)| l.0 >= 1), "every edge carries a real label");
        assert_eq!(w.edges.len(), w.graph.edge_count());
    }

    #[test]
    fn rpq_engines_agree_on_the_query_set() {
        let options = HarnessOptions { scale: 0.001, batch: 16, ..HarnessOptions::default() };
        let w = RpqWorkload::uniform(&options);
        let mut engines = w.all_engines(&options);
        for text in RPQ_QUERY_SET {
            let expr = rpq::parser::parse(text).expect("query set must parse");
            let (reference, _) = engines[2].rpq_batch(&expr, &w.sources);
            for engine in engines.iter_mut().take(2) {
                let (r, _) = engine.rpq_batch(&expr, &w.sources);
                assert_eq!(r, reference, "{} differs from the baseline on {text:?}", engine.name());
            }
        }
    }
}
