//! The CodeS stack benchmark.
//!
//! ```text
//! cargo run --release --manifest-path codesbench/Cargo.toml -- \
//!     --workload <offline-spider|online-hot-writes> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the system up several times (reporting the median), runs the
//! named closed-loop workload for about `--seconds`, checks every output,
//! and prints one JSON line: end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. See README.md.

mod check;
mod gen;
mod ladder;
mod setup;
mod stack;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::gen::Rng;
use crate::setup::{Ready, SetupTimes};
use crate::stack::Client;
use crate::stats::Summary;
use crate::trace::Recorder;
use crate::workload::{HotPlan, Measured, Query, States};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineSpider,
    OnlineHotWrites,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "offline-spider" => Some(Workload::OfflineSpider),
            "online-hot-writes" => Some(Workload::OnlineHotWrites),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::OfflineSpider => "offline-spider",
            Workload::OnlineHotWrites => "online-hot-writes",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// A timing as `.p50`, `.tail` (the highest supported percentile),
    /// `.tail_pct` (which percentile that is) and `.n`.
    fn timing(&mut self, name: &str, samples: &[f64], warnings: &mut Vec<String>) {
        let s = stats::summarize(samples).unwrap_or(Summary {
            n: 0,
            p50: 0.0,
            tail: None,
        });
        let (q, tail) = s.tail.unwrap_or_else(|| {
            warnings.push(format!(
                "{name}: {} samples support no tail; median repeated",
                s.n
            ));
            (5000, s.p50)
        });
        self.put(format!("{name}.p50"), s.p50, "ms");
        self.put(format!("{name}.tail"), tail, "ms");
        self.put(format!("{name}.tail_pct"), q as f64 / 100.0, "%");
        self.put(format!("{name}.n"), s.n as f64, "count");
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    stats::median(&v).unwrap_or(0.0)
}

/// Set up `SETUPS` times, keeping the last; returns it with every timing.
fn set_up(args: &Args, clients: usize) -> Result<(Ready, Vec<SetupTimes>), String> {
    let mut times = Vec::new();
    let mut kept: Option<Ready> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = kept.take() {
            if let Some(stack) = previous.stack {
                stack.shutdown()?;
            }
        }
        let ready = setup::build(args.workload, args.seed, clients)?;
        times.push(ready.times);
        kept = Some(ready);
    }
    Ok((kept.ok_or("no set-up ran")?, times))
}

/// Whatever one workload run yields, ready for reporting.
struct Outcome {
    measured: Measured,
    verdict: workload::Verdict,
}

/// The per-workload state a run drives.
struct Runner<'a> {
    ready: &'a Ready,
    queries: Vec<Query>,
    clients: Vec<Client>,
    states: States,
    hot: Option<HotPlan>,
    first: HashMap<usize, codes::Inference>,
    threads: usize,
}

impl<'a> Runner<'a> {
    fn new(ready: &'a Ready, args: &Args, threads: usize) -> Result<Runner<'a>, String> {
        let queries = workload::pool(ready, args.seed);
        if queries.is_empty() {
            return Err("the generated pool holds no questions".to_string());
        }
        let clients = match &ready.stack {
            Some(stack) => (0..threads).map(|_| Client::new(stack.addr())).collect(),
            None => Vec::new(),
        };
        let hot = match args.workload {
            Workload::OnlineHotWrites => Some(HotPlan::new(
                &queries,
                ready.dev.databases.len(),
                args.seed,
            )?),
            _ => None,
        };
        Ok(Runner {
            ready,
            queries,
            clients,
            states: States::new(&ready.dev.databases),
            hot,
            first: HashMap::new(),
            threads,
        })
    }

    /// One measured loop of `seconds`, with spans when `record` is set.
    fn measure(
        &mut self,
        workload: Workload,
        seconds: f64,
        record: Option<Instant>,
        warm: bool,
    ) -> Measured {
        match (workload, &self.ready.stack, self.hot.as_mut()) {
            (Workload::OfflineSpider, _, _) => workload::offline(
                &self.ready.system,
                &self.ready.dev.databases,
                &self.queries,
                seconds,
                record,
                &mut self.first,
            ),
            (Workload::OnlineHotWrites, Some(stack), Some(plan)) => workload::online_hot(
                stack,
                &mut self.clients,
                &self.queries,
                &mut self.states,
                plan,
                seconds,
                record,
                warm,
            ),
            _ => unreachable!("the online workload always sets up a stack"),
        }
    }

    /// Check everything `measured` served.
    fn verify(&self, workload: Workload, measured: Measured) -> Outcome {
        let mut verdict = match workload {
            Workload::OfflineSpider => workload::verify_offline(
                &measured.served,
                &self.first,
                &self.queries,
                &self.ready.dev.databases,
                &self.ready.system.config,
            ),
            _ => workload::verify_served(
                &self.ready.reference,
                &measured.served,
                &self.queries,
                &self.states,
                self.threads,
            ),
        };
        verdict.errors.extend(measured.errors.iter().cloned());
        Outcome { measured, verdict }
    }
}

/// End-to-end metrics: throughput and median latency are medians over the
/// run's rounds, the p99 the median over its p99 windows, set-up the
/// median over its set-ups.
fn end_to_end(outcome: &Outcome, setups: &[SetupTimes], rss: f64) -> Metrics {
    let m = &outcome.measured;
    let mut out = Metrics::default();
    out.put(
        "setup_s",
        median_of(setups.iter().map(SetupTimes::total)),
        "s",
    );
    out.put(
        "throughput_qps",
        median_of(m.rounds.iter().map(|r| r.ops as f64 / r.seconds)),
        "req/s",
    );
    out.put(
        "latency_p50_ms",
        median_of(m.rounds.iter().map(|r| r.p50_ms)),
        "ms",
    );
    out.put(
        "latency_p99_ms",
        median_of(m.p99_windows_ms.iter().copied()),
        "ms",
    );
    out.put("ex_pct", outcome.verdict.ex_pct(), "%");
    out.put("peak_rss_mb", rss, "MB");
    out
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "codesbench: workload {} seed {} seconds {} trace {} clients {threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (ready, setups) = set_up(&args, threads)?;
    let mut runner = Runner::new(&ready, &args, threads)?;

    let (metrics, outcome) = if args.trace {
        traced(&args, &mut runner, &setups)?
    } else {
        let measured = runner.measure(args.workload, args.seconds, None, true);
        let rss = peak_rss_mb()?;
        let outcome = runner.verify(args.workload, measured);
        let metrics = end_to_end(&outcome, &setups, rss);
        (metrics, outcome)
    };

    let sent: u64 = runner.clients.iter().map(|c| c.sent).sum();
    drop(runner);
    let mut errors = outcome.verdict.errors.clone();
    if let Some(stack) = ready.stack {
        let stats = stack.shutdown()?;
        if stats.infer_admitted != stats.infer_resolved || stats.infer_admitted != sent {
            errors.push(format!(
                "gateway admitted {} and resolved {} inferences, {sent} were sent",
                stats.infer_admitted, stats.infer_resolved
            ));
        }
    }
    for e in errors.iter().take(10) {
        eprintln!("check failed: {e}");
    }
    let correct = errors.is_empty() && outcome.verdict.checked > 0;
    let tally = outcome.measured.tally;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics.json()
    );
    Ok(correct)
}

/// The traced run: an untraced loop, the same loop with spans, then the
/// ladder replay and the write/re-sync pairs. Returns the per-layer
/// metrics and the checked outcome of both loops.
fn traced(
    args: &Args,
    runner: &mut Runner<'_>,
    setups: &[SetupTimes],
) -> Result<(Metrics, Outcome), String> {
    let third = args.seconds / 3.0;
    let epoch = Instant::now();
    let plain = runner.measure(args.workload, third, None, true);
    let mut traced = runner.measure(args.workload, third, Some(epoch), false);
    let mut warnings = Vec::new();
    let mut out = Metrics::default();

    for (name, pick) in [
        (
            "setup.datasets_s",
            (|t: &SetupTimes| t.datasets) as fn(&SetupTimes) -> f64,
        ),
        ("setup.pretrain_s", |t| t.pretrain),
        ("setup.linker_train_s", |t| t.linker_train),
        ("setup.finetune_s", |t| t.finetune),
        ("setup.storage_attach_s", |t| t.storage_attach),
    ] {
        out.put(name, median_of(setups.iter().map(pick)), "s");
    }

    // The replay runs on a stack of its own with no result cache, so that
    // every rung of the ladder computes the same answer and the rung
    // differences add up. It serves the databases as the traced loop left
    // them, with the workload's wire delay (none for the offline workload,
    // which has no storage).
    let ready = runner.ready;
    let (dbs, wire) = match &ready.stack {
        Some(_) => {
            let all = runner.states.materialize()?;
            let current = runner.states.current.iter().map(|&s| all[s].clone());
            (current.collect(), setup::WIRE_DELAY)
        }
        None => (ready.dev.databases.clone(), std::time::Duration::ZERO),
    };
    let stack = stack::Stack::start(
        Arc::clone(&ready.system),
        dbs,
        wire,
        None,
        runner.threads,
    )?;
    let ratio = |s: &codes_cache::CacheStats| {
        let base = s.hits + s.misses;
        (
            if base == 0 {
                0.0
            } else {
                s.hits as f64 / base as f64
            },
            base as f64,
        )
    };

    // The ladder replay.
    let mut replay_clients: Vec<Client> = (0..runner.threads)
        .map(|_| Client::new(stack.addr()))
        .collect();
    let queries = &runner.queries;
    let mut write_rng = Rng::new(args.seed ^ 0x7EA5);
    let mut writes_ms = Vec::new();
    let mut resyncs_ms = Vec::new();
    let mut replay_errors = Vec::new();
    let db_ids: Vec<String> = ready.dev.databases.iter().map(|d| d.name.clone()).collect();
    let mut cursor = 0usize;
    let hot = args.workload == Workload::OnlineHotWrites;
    let mut zipf_rng = Rng::new(args.seed ^ 0x2E91A7);
    let zipf = gen::Zipf::new(queries.len(), workload::HOT_SKEW);
    let mut replay_round = 0usize;
    let replay = ladder::replay(
        &ready.system,
        &stack,
        &mut replay_clients,
        queries,
        |n| {
            if hot {
                (0..n).map(|_| zipf.sample(&mut zipf_rng)).collect()
            } else {
                let order = (0..n).map(|k| (cursor + k) % queries.len()).collect();
                cursor += n;
                order
            }
        },
        |rec: &mut Recorder| {
            if hot {
                let db_id = &db_ids[replay_round % db_ids.len()];
                let (w, r, e) = ladder::write_and_resync(&stack, db_id, &mut write_rng, rec);
                writes_ms.push(w);
                resyncs_ms.push(r);
                replay_errors.extend(e);
            }
            replay_round += 1;
        },
        third,
        epoch,
    );
    let mut pair_rec = Recorder::new(epoch, 1 << 21);
    let (w, r, e) = ladder::write_pairs(&stack, &db_ids, &mut write_rng, &mut pair_rec);
    writes_ms.extend(w);
    resyncs_ms.extend(r);
    replay_errors.extend(e);
    replay_errors.extend(replay.errors.iter().cloned());
    let replay_http: u64 = replay_clients.iter().map(|c| c.sent).sum();
    drop(replay_clients);

    // Cache ratios of the workload's own stack (the offline workload has
    // none); batch sizes of the stack the workload ran on, or of the
    // replay's router when it ran on none.
    let health = ready.stack.as_ref().unwrap_or(&stack).router.health();
    let pool_health = health
        .shards
        .first()
        .map(|s| &s.pool)
        .ok_or("router has no shard")?;
    let batch = &pool_health.metrics.batch_size;
    let cache = pool_health.cache.unwrap_or_default();

    // Layer timings, straight from the recorded spans.
    let spans = &replay.spans;
    let d = |name: &str| Recorder::durations(spans, name);
    let rung = |i: usize| replay.rungs.iter().map(|r| r[i]).collect::<Vec<f64>>();
    let diff = |outer: usize, inner: usize| {
        let mut v: Vec<f64> = replay.rungs.iter().map(|r| r[outer] - r[inner]).collect();
        v.sort_by(f64::total_cmp);
        stats::median(&v).unwrap_or(0.0)
    };
    for name in [
        "core.infer",
        "core.schema_filter",
        "core.value_retrieval",
        "core.metadata",
        "core.prompt_assemble",
        "core.generate",
        "sqlengine.beam_exec",
        "storage.sync",
    ] {
        out.timing(&format!("{name}_ms"), &d(name), &mut warnings);
    }
    out.timing("storage.write_ms", &writes_ms, &mut warnings);
    out.timing("storage.resync_ms", &resyncs_ms, &mut warnings);
    out.timing("serve.backend_ms", &rung(1), &mut warnings);
    out.timing("serve.pool_ms", &rung(2), &mut warnings);
    out.timing("serve.queue_wait_ms", &replay.queue_wait_ms, &mut warnings);
    out.timing("router.submit_ms", &rung(3), &mut warnings);
    out.timing("gateway.http_ms", &rung(4), &mut warnings);

    let mut tokens = replay.prompt_tokens.clone();
    tokens.sort_by(f64::total_cmp);
    out.put(
        "core.prompt_tokens",
        stats::median(&tokens).unwrap_or(0.0),
        "count",
    );
    let requests = replay.rungs.len().max(1) as f64;
    out.put(
        "sqlengine.candidates_executed",
        replay.candidates_executed as f64 / requests,
        "count",
    );
    out.put(
        "sqlengine.executable_ratio",
        replay.candidates_ok as f64 / replay.candidates_executed.max(1) as f64,
        "ratio",
    );
    out.put(
        "serve.batch_size",
        if batch.count == 0 {
            0.0
        } else {
            batch.sum_ns as f64 / batch.count as f64
        },
        "count",
    );
    out.put(
        "gateway.reconnects",
        (plain.reconnects + traced.reconnects) as f64,
        "count",
    );

    let (storage_o, serve_o, router_o, gateway_o) =
        (diff(1, 0), diff(2, 1), diff(3, 2), diff(4, 3));
    out.put("storage.overhead_ms", storage_o, "ms");
    out.put("serve.overhead_ms", serve_o, "ms");
    out.put("router.overhead_ms", router_o, "ms");
    out.put("gateway.overhead_ms", gateway_o, "ms");
    let mut http = rung(4);
    http.sort_by(f64::total_cmp);
    let mut infer = rung(0);
    infer.sort_by(f64::total_cmp);
    let http_p50 = stats::median(&http).unwrap_or(0.0);
    let ladder_sum =
        stats::median(&infer).unwrap_or(0.0) + storage_o + serve_o + router_o + gateway_o;
    out.put(
        "ladder.reconcile_err_pct",
        if http_p50 > 0.0 {
            (ladder_sum - http_p50).abs() / http_p50 * 100.0
        } else {
            0.0
        },
        "%",
    );

    for (name, stats) in [
        ("t1", &cache.schema),
        ("t2", &cache.values),
        ("t3", &cache.full),
    ] {
        let (r, base) = ratio(stats);
        out.put(format!("cache.{name}_hit_ratio"), r, "ratio");
        out.put(format!("cache.{name}_lookups"), base, "count");
    }

    // Client-observed latency of both loops: the tail lives here, with no
    // bound (see README.md).
    let client: Vec<f64> = plain
        .latencies_ms
        .iter()
        .chain(&traced.latencies_ms)
        .copied()
        .collect();
    out.timing("client.latency_ms", &client, &mut warnings);

    let p50 = |m: &Measured| {
        let mut v = m.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        stats::median(&v).unwrap_or(0.0)
    };
    let (plain_p50, traced_p50) = (p50(&plain), p50(&traced));
    out.put(
        "trace.overhead_pct",
        if plain_p50 > 0.0 {
            (traced_p50 - plain_p50) / plain_p50 * 100.0
        } else {
            0.0
        },
        "%",
    );

    // Spans out, then the checks of both loops.
    let mut all_spans = std::mem::take(&mut traced.spans);
    all_spans.extend(replay.spans);
    all_spans.extend(pair_rec.spans);
    let path = PathBuf::from("codesbench/out").join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    trace::write_spans(&path, &mut all_spans)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "codesbench: {} spans written to {}",
        all_spans.len(),
        path.display()
    );
    for w in &warnings {
        eprintln!("warning: {w}");
    }

    let mut merged = Measured::merge_loops(plain, traced);
    merged.errors.extend(replay_errors);
    let stats = stack.shutdown()?;
    if stats.infer_admitted != stats.infer_resolved || stats.infer_admitted != replay_http {
        merged.errors.push(format!(
            "replay gateway admitted {} and resolved {} inferences, {replay_http} were sent",
            stats.infer_admitted, stats.infer_resolved
        ));
    }
    let outcome = runner.verify(args.workload, merged);
    Ok((out, outcome))
}

fn main() {
    match run() {
        // A result line was printed; `correct` in it carries the verdict.
        Ok(_) => {}
        Err(e) => {
            eprintln!("codesbench: {e}");
            std::process::exit(2);
        }
    }
}
