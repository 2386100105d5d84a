//! `perfbench`: the closed-loop serving benchmark (see README.md).
//!
//! ```text
//! perfbench --workload <serve-mixed|rare-plan|write-durable> --seed <n>
//!           --seconds <s> --trace <0|1>
//!           [--dump-requests PATH] [--spans PATH]
//! ```
//!
//! A run generates the workload from the seed, serves one warm-up pass,
//! then serves measured passes until `--seconds` have passed. Every pass
//! builds a fresh stack (timed as set-up) and replays the same request
//! log, so replies, `ServeTotals` and `CacheStats` must repeat byte for
//! byte. The correctness gate checks the warm-up's replies against the
//! reference evaluator, outside any timed pass, and every measured pass is
//! compared with the warm-up reply by reply. The last stdout line is the
//! JSON result; the lines before it are a readable report.

mod gate;
mod sys;
mod trace;
mod workload;

use gate::{Digest, Fnv};
use moctopus_server::{
    CacheOutcome, CacheStats, RequestKind, ServeTotals, Session, ShardThroughput, SubmitOutcome,
};
use pim_sim::Phase;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{mpsc, Arc};
use std::time::Instant;
use sys::Usage;
use trace::{Counters, Recorder, Span, SpanKind};
use workload::{Op, Setup, Workload};

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    dump_requests: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        dump_requests: None,
        spans: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < raw.len() {
        let value = raw.get(i + 1).ok_or_else(|| format!("{} needs a value", raw[i]))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match raw[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--dump-requests" => args.dump_requests = Some(PathBuf::from(value)),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(args)
}

/// Set-up-only stack builds before each pass, on top of the pass's own.
const SETUPS_PER_PASS: usize = 8;

/// One completed closed-loop request.
struct Sample {
    /// Client and position in its log.
    client: usize,
    seq: usize,
    /// The query text, `None` for an update.
    text: Option<&'static str>,
    ns: u64,
    outcome: Option<CacheOutcome>,
}

/// What one client thread brought back.
#[derive(Default)]
struct ClientOutcome {
    samples: Vec<Sample>,
    digests: Vec<Digest>,
    failed: u64,
}

/// One served pass.
struct Pass {
    traced: bool,
    setup: Setup,
    wall_s: f64,
    samples: Vec<Sample>,
    /// One digest per reply, per client, in submission order.
    digests: Vec<Vec<Digest>>,
    /// Hash of `ServeTotals` and `CacheStats`.
    state_hash: u64,
    totals: ServeTotals,
    cache: Option<CacheStats>,
    shard: Option<ShardThroughput>,
    /// Shed, refused, unparsed or never-answered requests.
    failed: u64,
    usage: Usage,
    spans: Vec<Span>,
    counters: Counters,
}

/// The closed loop of one client: submit, drain the reply, then the next.
/// Each reply is reduced to its digest outside the timed interval and
/// dropped, so the process holds no served output beyond the request.
fn client(
    c: usize,
    mut session: Session,
    log: &[(u64, Op)],
    rec: Option<&Recorder>,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    for (seq, (at, op)) in log.iter().enumerate() {
        let request = rec
            .map(|r| r.open(SpanKind::Request, Some(((c as u32) << 24) | (seq as u32 + 1)), false));
        let t0 = Instant::now();
        let kind = match op {
            Op::Query { text, sources } => {
                let parse = rec.map(|r| r.open(SpanKind::Parse, None, false));
                let expr = rpq::parser::parse(text);
                if let (Some(r), Some(p)) = (rec, parse) {
                    r.close(p);
                }
                expr.ok().map(|expr| RequestKind::Query { expr, sources: sources.clone() })
            }
            Op::Insert(edges) => Some(RequestKind::Insert { edges: edges.clone() }),
            Op::Delete(edges) => Some(RequestKind::Delete { edges: edges.clone() }),
        };
        let accepted = kind.is_some_and(|kind| {
            matches!(session.submit(*at, kind), Ok(SubmitOutcome::Accepted(_)))
        });
        let reply = accepted.then(|| loop {
            if let Some(reply) = session.drain().pop() {
                break reply;
            }
            std::thread::yield_now();
        });
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some(r), Some(open)) = (rec, request) {
            r.close(open);
        }
        match reply {
            Some(reply) => {
                out.samples.push(Sample {
                    client: c,
                    seq,
                    text: match op {
                        Op::Query { text, .. } => Some(*text),
                        _ => None,
                    },
                    ns,
                    outcome: reply.cache_outcome(),
                });
                out.digests.push(Digest::of(seq, &reply));
            }
            None => out.failed += 1,
        }
    }
    session.finish();
    out
}

/// One pass's work for one client thread.
struct Job {
    session: Session,
    rec: Option<Arc<Recorder>>,
}

/// The client threads, one per session, alive for the whole run: a thread
/// per pass would churn the allocator's per-thread arenas, and peak memory
/// would creep up with every pass.
struct Clients {
    jobs: Vec<mpsc::Sender<Job>>,
    done: mpsc::Receiver<(usize, ClientOutcome)>,
}

impl Clients {
    fn spawn<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        logs: &'scope [Vec<(u64, Op)>],
    ) -> Self {
        let (done_tx, done) = mpsc::channel();
        let jobs =
            logs.iter()
                .enumerate()
                .map(|(c, log)| {
                    let (tx, rx) = mpsc::channel::<Job>();
                    let done_tx = done_tx.clone();
                    scope.spawn(move || {
                        for job in rx {
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    client(c, job.session, log, job.rec.as_deref())
                                }))
                                .unwrap_or_else(|_| {
                                    ClientOutcome { failed: log.len() as u64, ..Default::default() }
                                });
                            if done_tx.send((c, outcome)).is_err() {
                                break;
                            }
                        }
                    });
                    tx
                })
                .collect();
        Clients { jobs, done }
    }
}

/// Builds a fresh stack and serves the whole request log once.
fn run_pass(w: &Workload, clients: &Clients, traced: bool, dir: &Path) -> Pass {
    let _ = std::fs::remove_dir_all(dir);
    let rec = traced.then(Recorder::new);
    let built = w.build(rec.as_ref(), dir);
    let before = Usage::now();
    let t0 = Instant::now();
    // Register every session before any client starts: registration order
    // is the client id.
    let sessions: Vec<Session> = w.logs.iter().map(|_| built.server.session()).collect();
    for (session, jobs) in sessions.into_iter().zip(&clients.jobs) {
        jobs.send(Job { session, rec: rec.clone() }).expect("client threads outlive the run");
    }
    let mut outcomes: Vec<ClientOutcome> =
        w.logs.iter().map(|_| ClientOutcome::default()).collect();
    for _ in 0..w.logs.len() {
        let (c, outcome) = clients.done.recv().expect("client threads outlive the run");
        outcomes[c] = outcome;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let usage = Usage::now().since(&before);

    // A panicked engine poisons the core; its requests already count as
    // failed, and the totals then read as empty.
    let (totals, cache) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        built.server.with_core(|core| (core.totals(), core.cache_stats()))
    }))
    .unwrap_or_default();
    let shard = built.clock.as_ref().map(|c| c.lock().map(|c| c.clone()).unwrap_or_default());
    let setup = built.setup;
    drop(built);
    let _ = std::fs::remove_dir_all(dir);

    let mut samples = Vec::new();
    let mut digests = Vec::new();
    let mut failed = 0;
    for outcome in outcomes {
        samples.extend(outcome.samples);
        digests.push(outcome.digests);
        failed += outcome.failed;
    }
    let (spans, counters) = match &rec {
        Some(rec) => (rec.take_spans(), rec.counters.lock().expect("recorder poisoned").clone()),
        None => (Vec::new(), Counters::default()),
    };
    Pass {
        traced,
        setup,
        wall_s,
        samples,
        digests,
        state_hash: Fnv::new().bytes(format!("{totals:?} {cache:?}").as_bytes()).0,
        totals,
        cache,
        shard,
        failed,
        usage,
        spans,
        counters,
    }
}

/// The tail percentile for `n` samples: the highest of p99, p95 and p90
/// that leaves at least 10 samples beyond it, else p90.
fn tail_pct(n: usize) -> f64 {
    [99.0, 95.0, 90.0].into_iter().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0).unwrap_or(90.0)
}

/// Nearest-rank percentile of ascending `sorted` (0 when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Latencies in ms of the requests whose samples `keep` selects, ascending.
///
/// Every pass replays the same requests, so each request has one latency
/// per pass; this keeps each request's fastest. On a shared machine whose
/// speed drifts by half for seconds at a time, best-of-passes is what
/// repeats from run to run, while a real slowdown of the program shows in
/// every pass and so in the best one too.
fn latencies<'a>(
    passes: impl Iterator<Item = &'a Pass>,
    keep: impl Fn(&Sample) -> bool,
) -> Vec<f64> {
    let mut best: std::collections::HashMap<(usize, usize), u64> = std::collections::HashMap::new();
    for s in passes.flat_map(|p| p.samples.iter()).filter(|s| keep(s)) {
        let slot = best.entry((s.client, s.seq)).or_insert(u64::MAX);
        *slot = (*slot).min(s.ns);
    }
    let mut v: Vec<f64> = best.into_values().map(|ns| ns as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// An ordered metric list, printed as the result's `metrics` object.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Self and busy times of one traced pass, from its spans.
struct LayerTimes {
    server_self_ms: f64,
    shard_self_ms: f64,
    wal_self_ms: f64,
    core_query_ms: f64,
    core_update_ms: f64,
    shadow_ms: f64,
    label_stats_ms: f64,
    parse_us: Vec<f64>,
}

fn fold_spans(spans: &[Span]) -> LayerTimes {
    use SpanKind::*;
    let self_ns = trace::self_times(spans);
    let kind_of: std::collections::HashMap<u32, SpanKind> =
        spans.iter().map(|s| (s.id, s.kind)).collect();
    let sum = |keep: &dyn Fn(SpanKind) -> bool, own: bool| -> f64 {
        ms(spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| keep(s.kind))
            .map(|(s, &own_ns)| if own { own_ns } else { s.dur() })
            .sum())
    };
    let requests: Vec<(u64, u64)> =
        spans.iter().filter(|s| s.kind == Request).map(|s| (s.start, s.end)).collect();
    // Engine calls made straight from a session thread, plus parsing: the
    // parts of the request spans that are not the serving layer's own.
    let covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| {
            s.kind == Parse || (s.kind != Request && kind_of.get(&s.parent) == Some(&Request))
        })
        .map(|s| (s.start, s.end))
        .collect();
    LayerTimes {
        server_self_ms: ms(trace::union_len(requests).saturating_sub(trace::union_len(covered))),
        shard_self_ms: sum(&|k| matches!(k, ShardQuery | ShardUpdate), true),
        wal_self_ms: sum(&|k| k == WalUpdate, true),
        core_query_ms: sum(&|k| k == CoreQuery, false),
        core_update_ms: sum(&|k| k == CoreUpdate, false),
        shadow_ms: sum(&|k| k == Planned, false),
        label_stats_ms: sum(&|k| k == LabelStats, false),
        parse_us: spans.iter().filter(|s| s.kind == Parse).map(|s| s.dur() as f64 / 1e3).collect(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::generate(&args.workload, args.seed) else {
        eprintln!("perfbench: --workload must be one of {:?}", workload::NAMES);
        return ExitCode::from(2);
    };
    if let Some(path) = &args.dump_requests {
        if let Err(e) = std::fs::write(path, w.render()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let dir = PathBuf::from(".perfbench-work").join(format!("{}-{}", w.name, std::process::id()));
    std::thread::scope(|scope| {
        let clients = Clients::spawn(scope, &w.logs);
        let code = measure(&args, &w, &clients, &dir);
        drop(clients);
        code
    })
}

/// Set-up repeats, the warm-up pass and gate, the measured passes, and the
/// report.
fn measure(args: &Args, w: &Workload, clients: &Clients, dir: &Path) -> ExitCode {
    // Set-up alone, several builds before every pass: set-up is short next
    // to a pass, so its median needs more samples than the passes give, and
    // spreading them over the run lets them see the same machine the passes
    // see.
    let mut setups: Vec<Setup> = Vec::new();
    let setup_only = |setups: &mut Vec<Setup>| {
        for _ in 0..SETUPS_PER_PASS {
            let _ = std::fs::remove_dir_all(dir);
            setups.push(w.build(None, dir).setup);
        }
    };

    // Warm-up: one whole pass, not measured. The first pass of a process
    // runs about 30% slower (cold allocator, page cache, branch predictors).
    // Peak memory is read here: the stack plus one whole pass. Later passes
    // replay the same work, and what they add is allocator drift (the shard
    // pool's per-call threads get fresh malloc arenas), which varies by a
    // tenth from run to run. The gate then checks the warm-up's replies;
    // every later pass is compared with them reply by reply.
    setup_only(&mut setups);
    let warmup = run_pass(w, clients, false, dir);
    let peak_rss_mb = sys::peak_rss_mb();
    let gate = gate::check(w, &warmup.digests);
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        setup_only(&mut setups);
        passes.push(run_pass(w, clients, traced, dir));
        let min = if args.trace { 2 } else { 3 };
        if passes.len() >= min && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir(".perfbench-work");
    let measured_s = start.elapsed().as_secs_f64();

    // Correctness: the gate's verdict on the warm-up pass, plus every
    // measured pass (traced ones included) byte-compared against it.
    let reference = &warmup;
    let mut failed = gate.mismatches;
    let mut attempted = 0u64;
    for pass in std::iter::once(&warmup).chain(&passes) {
        attempted += w.requests() as u64;
        failed += pass.failed + pass.totals.shadow_mismatches;
        // Keyed by request: a request without a reply already counts in
        // `pass.failed`.
        for (mine, theirs) in pass.digests.iter().zip(&reference.digests) {
            failed += mine
                .iter()
                .filter(|d| {
                    theirs
                        .binary_search_by_key(&d.seq, |t| t.seq)
                        .map_or(true, |i| theirs[i] != **d)
                })
                .count() as u64;
        }
        if pass.state_hash != reference.state_hash {
            failed += 1;
        }
    }
    let error_rate = failed as f64 / attempted as f64;

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let queries = latencies(untraced.iter().copied(), |s| s.text.is_some());
    let updates = latencies(untraced.iter().copied(), |s| s.text.is_none());
    let query_p50 = percentile(&queries, 50.0);
    let query_tail = percentile(&queries, tail_pct(queries.len()));
    let update_p50 = percentile(&updates, 50.0);
    let update_tail = percentile(&updates, tail_pct(updates.len()));
    // The best pass, for the reason `latencies` keeps each request's best.
    let throughput = untraced.iter().map(|p| p.samples.len() as f64 / p.wall_s).fold(0.0, f64::max);
    setups.extend(std::iter::once(&warmup).chain(&passes).map(|p| p.setup));
    // The median of the builds. Their fastest and 10th percentile were
    // tried too: in one set of ten runs they spread more (0.21 and 0.33 on
    // rare-plan, against 0.06 for the median of the same builds), because
    // whether a run happens to catch one of the machine's fast moments is
    // itself random, and between sets taken minutes apart all three moved
    // alike.
    let builds: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let setup_s = median(builds.clone());
    let sim_served_ms = reference.totals.served_time().as_millis();
    let steal: u64 = std::iter::once(&warmup).chain(&passes).map(|p| p.usage.steal_ticks).sum();

    // The readable report.
    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench workload={} seed={} trace={} nproc={} cpu=\"{}\" engine_threads={} stack={:?}",
        w.name,
        args.seed,
        u8::from(args.trace),
        sys::nproc(),
        sys::cpu_model(),
        w.options.threads,
        w.stack
    );
    let _ = writeln!(
        report,
        "inputs: {} clients, {} requests per pass ({} queries, {} updates); graph {} nodes, {} labelled edges",
        w.logs.len(),
        w.requests(),
        w.logs.iter().flatten().filter(|(_, op)| matches!(op, Op::Query { .. })).count(),
        w.logs.iter().flatten().filter(|(_, op)| !matches!(op, Op::Query { .. })).count(),
        w.base.graph.node_count(),
        w.base.graph.edge_count()
    );
    let _ = writeln!(
        report,
        "passes: 1 warm-up (discarded) + {} measured ({} traced) in {:.2} s; steal ticks during the run: {}",
        passes.len(),
        traced.len(),
        measured_s,
        steal
    );
    for (i, p) in passes.iter().enumerate() {
        let _ = writeln!(
            report,
            "  pass {i}{}: set-up {:.4} s, wall {:.3} s, user {:.3} s, sys {:.3} s, ctx switches {}, steal ticks {}",
            if p.traced { " (traced)" } else { "" },
            p.setup.total_s,
            p.wall_s,
            p.usage.user_s,
            p.usage.sys_s,
            p.usage.ctx_switches,
            p.usage.steal_ticks
        );
    }
    let _ = writeln!(report, "query_p50_ms {query_p50:.4} ms ({} samples)", queries.len());
    let _ = writeln!(
        report,
        "query_tail_ms {query_tail:.4} ms (p{} of {} samples)",
        tail_pct(queries.len()),
        queries.len()
    );
    if !updates.is_empty() {
        let _ = writeln!(report, "update_p50_ms {update_p50:.4} ms ({} samples)", updates.len());
        let _ = writeln!(
            report,
            "update_tail_ms {update_tail:.4} ms (p{} of {} samples)",
            tail_pct(updates.len()),
            updates.len()
        );
    }
    let mut texts: Vec<&str> =
        untraced.iter().flat_map(|p| p.samples.iter().filter_map(|s| s.text)).collect();
    texts.sort_unstable();
    texts.dedup();
    for text in texts {
        let v = latencies(untraced.iter().copied(), |s| s.text == Some(text));
        let _ = writeln!(
            report,
            "  query {text}: p50 {:.4} ms, max {:.4} ms ({} samples)",
            percentile(&v, 50.0),
            percentile(&v, 100.0),
            v.len()
        );
    }
    for (name, outcome) in [
        ("hit", CacheOutcome::Hit),
        ("miss", CacheOutcome::Miss),
        ("bypass", CacheOutcome::Bypass),
        ("collapsed", CacheOutcome::Collapsed),
    ] {
        let v = latencies(untraced.iter().copied(), |s| s.outcome == Some(outcome));
        if !v.is_empty() {
            let _ = writeln!(
                report,
                "  {name}: p50 {:.4} ms ({} samples)",
                percentile(&v, 50.0),
                v.len()
            );
        }
    }
    let _ = writeln!(report, "throughput_rps {throughput:.2} 1/s");
    let _ = writeln!(report, "sim_served_ms {sim_served_ms} ms");
    let _ = writeln!(
        report,
        "error_rate {error_rate} ({failed} failed of {attempted} attempted; gate checked {} replies, {} mismatched)",
        gate.checked, gate.mismatches
    );
    let _ = writeln!(
        report,
        "setup_s {setup_s:.4} s (median of {} builds; fastest {:.4} s)",
        builds.len(),
        builds.iter().copied().fold(f64::INFINITY, f64::min)
    );
    let _ = writeln!(
        report,
        "peak_rss_mb {peak_rss_mb:.1} MB (after the warm-up pass; {:.1} MB at exit, with the gate's reference rows)",
        sys::peak_rss_mb()
    );

    // The wall-clock latencies and throughput drift by more than a tenth
    // between runs on a shared VM, so they are gated nowhere: the traced
    // run reports them with the per-layer numbers (README.md, "Noise").
    let mut m = Metrics::default();
    if !args.trace {
        m.add("sim_served_ms", sim_served_ms, "ms");
        m.add("setup_s", setup_s, "s");
        m.add("peak_rss_mb", peak_rss_mb, "MB");
    } else {
        m.add("e2e.query_p50_ms", query_p50, "ms");
        m.add("e2e.query_tail_ms", query_tail, "ms");
        m.add("e2e.throughput_rps", throughput, "1/s");
        m.add("e2e.update_p50_ms", update_p50, "ms");
        m.add("e2e.update_tail_ms", update_tail, "ms");
        m.add("e2e.error_rate", error_rate, "ratio");
        per_layer(&mut m, &untraced, &traced, &setups);
        // Best pass against best pass, like every wall-clock figure here.
        let best = |passes: &[&Pass]| passes.iter().map(|p| p.wall_s).fold(f64::INFINITY, f64::min);
        let overhead = best(&traced) / best(&untraced) - 1.0;
        let _ = writeln!(report, "tracing overhead: {:+.2}% of pass wall time", overhead * 100.0);
        let identical = traced
            .iter()
            .all(|p| p.digests == reference.digests && p.state_hash == reference.state_hash);
        let _ = writeln!(
            report,
            "traced replies, ServeTotals and CacheStats byte-identical to untraced: {identical}"
        );
        m.add("trace.overhead_pct", overhead * 100.0, "%");
        if let Some(path) = &args.spans {
            let mut out = String::new();
            for s in &traced.last().expect("a traced pass ran").spans {
                let _ = writeln!(
                    out,
                    "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"request\": {}, \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.kind.name(),
                    s.id,
                    s.parent,
                    s.request,
                    s.thread,
                    s.start,
                    s.end
                );
            }
            if let Err(e) = std::fs::write(path, out) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
    }
    print!("{report}");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        m.json()
    );
    ExitCode::SUCCESS
}

/// The per-layer metrics of a `--trace 1` run: self times from the traced
/// passes, latency splits and process counters from the untraced ones,
/// counts (identical in every pass) from the first traced pass.
fn per_layer(m: &mut Metrics, untraced: &[&Pass], traced: &[&Pass], setups: &[Setup]) {
    let first = traced[0];
    let folds: Vec<LayerTimes> = traced.iter().map(|p| fold_spans(&p.spans)).collect();
    let med = |f: &dyn Fn(&LayerTimes) -> f64| median(folds.iter().map(f).collect());
    let totals = &first.totals;
    let cache = first.cache.unwrap_or_default();
    let c = &first.counters;
    let outcome_p50 = |keep: &dyn Fn(CacheOutcome) -> bool| {
        percentile(&latencies(untraced.iter().copied(), |s| s.outcome.is_some_and(keep)), 50.0)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    m.add("server.self_ms", med(&|l| l.server_self_ms), "ms");
    m.add("server.hit_p50_ms", outcome_p50(&|o| o == CacheOutcome::Hit), "ms");
    m.add(
        "server.miss_p50_ms",
        outcome_p50(&|o| matches!(o, CacheOutcome::Miss | CacheOutcome::Bypass)),
        "ms",
    );
    m.add("server.collapsed_p50_ms", outcome_p50(&|o| o == CacheOutcome::Collapsed), "ms");
    m.add("server.cache.hit_rate", cache.hit_rate(), "ratio");
    m.add("server.cache.invalidated", cache.invalidated as f64, "count");
    m.add("server.cache.evictions", cache.evictions as f64, "count");
    m.add("server.collapsed", totals.collapsed as f64, "count");

    let shard = first.shard.clone().unwrap_or_default();
    m.add("shard.fanout", ratio(c.replica_queries as f64, c.plane_queries as f64), "ratio");
    m.add("shard.self_ms", med(&|l| l.shard_self_ms), "ms");
    m.add("shard.sim_makespan_ms", shard.makespan.as_millis(), "ms");
    m.add("shard.sim_busy_ms", shard.busy_total().as_millis(), "ms");

    m.add(
        "rpq.parse_us",
        median(folds.iter().flat_map(|l| l.parse_us.iter().copied()).collect()),
        "us",
    );
    m.add("rpq.plan.label_stats_ms", med(&|l| l.label_stats_ms), "ms");
    m.add(
        "rpq.plan.nonforward_frac",
        ratio(totals.plan_nonforward as f64, totals.planned as f64),
        "ratio",
    );
    m.add(
        "rpq.plan.cost_ratio",
        ratio(totals.plan_chosen_cost as f64, totals.plan_forward_cost as f64),
        "ratio",
    );
    m.add("rpq.plan.shadow_ms", med(&|l| l.shadow_ms), "ms");
    m.add("rpq.plan.shadow_sim_ms", totals.shadow_chosen_time.as_millis(), "ms");

    let core_query_ms = med(&|l| l.core_query_ms);
    m.add("core.query_ms", core_query_ms, "ms");
    m.add("core.update_ms", med(&|l| l.core_update_ms), "ms");
    m.add("core.calls", c.core_calls as f64, "count");
    m.add("core.expansions", c.expansions as f64, "count");
    m.add("core.matched_pairs", c.matched_pairs as f64, "count");
    m.add("core.ns_per_expansion", ratio(core_query_ms * 1e6, c.expansions as f64), "ns");
    m.add("core.useful_ratio", ratio(c.matched_pairs as f64, c.expansions as f64), "ratio");

    let t = &c.served_timeline;
    m.add("pim.host_compute_ms", t.time(Phase::HostCompute).as_millis(), "ms");
    m.add("pim.pim_compute_ms", t.time(Phase::PimCompute).as_millis(), "ms");
    m.add("pim.cpc_ms", t.time(Phase::Cpc).as_millis(), "ms");
    m.add("pim.ipc_ms", t.time(Phase::Ipc).as_millis(), "ms");
    m.add("pim.reduce_ms", t.time(Phase::Reduce).as_millis(), "ms");
    m.add("pim.inter_pim_bytes", t.transfers.inter_pim_bytes as f64, "bytes");
    m.add(
        "pim.cpu_pim_bytes",
        (t.transfers.cpu_to_pim_bytes + t.transfers.pim_to_cpu_bytes) as f64,
        "bytes",
    );

    m.add("wal.self_ms", med(&|l| l.wal_self_ms), "ms");
    m.add("wal.rotations", c.rotations as f64, "count");
    m.add("wal.bytes_per_edge", ratio(c.wal_bytes as f64, c.wal_edges as f64), "B/edge");

    m.add("setup.ingest_s", median(setups.iter().map(|s| s.ingest_s).collect()), "s");
    m.add("setup.refine_s", median(setups.iter().map(|s| s.refine_s).collect()), "s");

    m.add("proc.user_cpu_s", median(untraced.iter().map(|p| p.usage.user_s).collect()), "s");
    m.add("proc.sys_cpu_s", median(untraced.iter().map(|p| p.usage.sys_s).collect()), "s");
    m.add(
        "proc.ctx_switches",
        median(untraced.iter().map(|p| p.usage.ctx_switches as f64).collect()),
        "count",
    );
    m.add(
        "proc.steal_ticks",
        median(untraced.iter().map(|p| p.usage.steal_ticks as f64).collect()),
        "count",
    );
}
