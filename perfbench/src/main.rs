//! perfbench — end-to-end benchmark of the release `or-server` binary.
//!
//! ```text
//! perfbench --workload point_read|analytic|read_write --seed N --seconds S --trace 0|1
//!           --server PATH/or-server [--out DIR]
//! ```
//!
//! One run starts the server several times on a database script generated
//! from the seed (the set-up time is the median), then drives the
//! workload's traffic over real TCP: an open-loop phase at the workload's
//! fixed offered rate, a closed-loop capacity phase, and — on the read-only
//! workloads — an open-loop write probe, the three taken in turn over
//! several rounds.  Every answer is checked against the reference
//! interpreter.  With `--trace 1` the run adds an untraced
//! and a traced sequential pass on fresh servers and reports the per-layer
//! breakdown instead of the end-to-end metrics.  The last line of standard
//! output is one JSON object with the result.

#![forbid(unsafe_code)]

mod gen;
mod http;
mod load;
mod oracle;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gen::{Request, Workload};
use http::{exchange, ServerProc};
use load::{Reply, Sample};
use oracle::Oracle;

/// Extra server starts whose set-up time is measured, half before and half
/// after the load phases, so the median samples the whole run.
const SETUP_STARTS: usize = 8;
/// Requests of the untraced sequential pass, the reference for the traced
/// pass's round trips.
const UNTRACED_REQUESTS: usize = 100;
/// Share of `--seconds` for the open-loop phase, the same on every
/// workload.  The write probe, on the read-only workloads, takes
/// [`PROBE_SHARE`]; the closed-loop phase gets what is left.
const OPEN_SHARE: f64 = 0.7;
const PROBE_SHARE: f64 = 0.15;
/// The phases run in turn this many times, each round with its share of
/// every phase, so a stall elsewhere on the machine lands in one slice of
/// a phase instead of in all of it.
const ROUNDS: usize = 3;
/// Consecutive closed-loop answers per capacity block.
const CAPACITY_BLOCK: usize = 20;
/// Samples a tail percentile leaves beyond it.
const TAIL_BEYOND: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut out = PathBuf::from(".bench_build/perfbench-runs");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload `{value}` (point_read, analytic, read_write)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds expects a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server: server.ok_or("--server is required")?,
        out,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile with [`TAIL_BEYOND`] samples beyond it: its
/// value, the percentile, and the sample count.
fn tail(values: &[f64]) -> Option<(f64, f64, usize)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some((sorted[rank - 1], 100.0 * rank as f64 / n as f64, n))
}

fn ok_latencies<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Vec<f64> {
    samples
        .into_iter()
        .filter(|s| matches!(s.reply, Reply::Ok { .. }))
        .map(Sample::latency_ms)
        .collect()
}

/// Answer rates over blocks of [`CAPACITY_BLOCK`] consecutive answers of
/// one closed-loop slice.  `capacity_rps` is their median over every round,
/// so a short stall elsewhere on the machine moves it less than it moves
/// the mean; with fewer than two blocks it falls back to the mean.
fn block_rates(closed: &[Sample]) -> Vec<f64> {
    let mut done: Vec<f64> = closed
        .iter()
        .filter(|s| matches!(s.reply, Reply::Ok { .. }))
        .map(|s| s.done)
        .collect();
    done.sort_by(f64::total_cmp);
    done.windows(CAPACITY_BLOCK + 1)
        .step_by(CAPACITY_BLOCK)
        .map(|w| CAPACITY_BLOCK as f64 / (w[CAPACITY_BLOCK] - w[0]))
        .collect()
}

/// A named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn stats_counter(json: &or_server::Json, key: &str) -> f64 {
    json.get("dbs")
        .and_then(|d| d.get("bench"))
        .and_then(|b| b.get(key))
        .and_then(or_server::Json::as_u64)
        .unwrap_or(0) as f64
}

/// Due times `due[lo..hi]`, shifted so the slice starts where the whole
/// schedule's gap before `due[lo]` ends.
fn rebased(due: &[f64], lo: usize, hi: usize) -> Vec<f64> {
    let base = if lo == 0 { 0.0 } else { due[lo - 1] };
    due[lo..hi].iter().map(|t| t - base).collect()
}

/// Send `requests` one at a time over one connection.
fn sequential(addr: std::net::SocketAddr, requests: &[Request], epoch: Instant) -> Vec<Sample> {
    requests
        .iter()
        .map(|request| {
            let sent = epoch.elapsed().as_secs_f64();
            let reply = Reply::from_exchange(exchange(addr, "POST", "/query", &request.body()));
            let done = epoch.elapsed().as_secs_f64();
            Sample {
                request: request.clone(),
                due: sent,
                sent,
                done,
                lag: 0.0,
                reply,
            }
        })
        .collect()
}

fn run(args: &Args) -> Result<(), String> {
    if !args.server.is_file() {
        return Err(format!("no server binary at {}", args.server.display()));
    }
    let workload = args.workload;
    let spec = workload.spec();
    let seed = args.seed;
    let conns = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let tag = format!("{}-{seed}", workload.name());
    let out = |suffix: &str| -> PathBuf { args.out.join(format!("{tag}{suffix}")) };
    let log = out("-server.log");

    let script = gen::db_script(workload, seed);
    let db_path = out(".orql");
    std::fs::write(&db_path, &script).map_err(|e| format!("{}: {e}", db_path.display()))?;
    let initial: Vec<Request> = (0..spec.hot_names)
        .map(|j| gen::initial_hot(seed, j))
        .collect();
    let began = Instant::now();
    let stage = |what: &str| {
        eprintln!(
            "perfbench: {:>7.2} s  {what}",
            began.elapsed().as_secs_f64()
        )
    };
    let mut oracle = Oracle::load(&script, &initial)?;
    stage("oracle loaded");

    // ---- set-up time: several starts, the median is reported
    let mut setups = Vec::new();
    let measure_setups = |setups: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_STARTS / 2 {
            let server = ServerProc::spawn(&args.server, &db_path, &log)?;
            setups.push(server.setup_s);
            server.shutdown();
        }
        Ok(())
    };
    measure_setups(&mut setups)?;
    let server = ServerProc::spawn(&args.server, &db_path, &log)?;
    setups.push(server.setup_s);
    // the write probe gets a server of its own, so the workload's reads,
    // /stats and peak RSS are those of read-only traffic
    let probe_server = if spec.probe_rps > 0.0 {
        let probe_server = ServerProc::spawn(&args.server, &db_path, &log)?;
        setups.push(probe_server.setup_s);
        Some(probe_server)
    } else {
        None
    };
    stage("set-up measured");

    // ---- the load phases, in rounds
    let epoch = Instant::now();
    let probe_share = if spec.probe_rps > 0.0 {
        PROBE_SHARE
    } else {
        0.0
    };
    let closed_share = 1.0 - OPEN_SHARE - probe_share;
    let n_open = (spec.rate_rps * OPEN_SHARE * args.seconds).round().max(1.0) as usize;
    let open_requests: Vec<Request> = (0..n_open as u64)
        .map(|i| gen::request(workload, seed, i))
        .collect();
    let open_due = gen::arrivals(seed, 0, n_open, spec.rate_rps);
    let n_probe = (spec.probe_rps * probe_share * args.seconds).round() as usize;
    let probe_requests: Vec<Request> = (0..n_probe as u64)
        .map(|i| gen::probe_request(seed, i))
        .collect();
    let probe_due = gen::arrivals(seed, 1, n_probe, spec.probe_rps);
    let next = |i: u64| gen::request(workload, seed, i);
    let (mut open, mut closed, mut probe) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut closed_s) = (Vec::new(), 0.0);
    let stats_before = server.stats()?;
    for round in 0..ROUNDS {
        let (lo, hi) = (round * n_open / ROUNDS, (round + 1) * n_open / ROUNDS);
        open.extend(load::open_loop(
            server.addr,
            &open_requests[lo..hi],
            &rebased(&open_due, lo, hi),
            conns,
            epoch,
        ));
        let (samples, seconds) = load::closed_loop(
            server.addr,
            &next,
            (n_open + closed.len()) as u64,
            closed_share * args.seconds / ROUNDS as f64,
            conns,
            epoch,
        );
        rates.extend(block_rates(&samples));
        closed_s += seconds;
        closed.extend(samples);
        if let Some(probe_server) = &probe_server {
            let (lo, hi) = (round * n_probe / ROUNDS, (round + 1) * n_probe / ROUNDS);
            probe.extend(load::open_loop(
                probe_server.addr,
                &probe_requests[lo..hi],
                &rebased(&probe_due, lo, hi),
                conns,
                epoch,
            ));
        }
    }
    let stats_after = server.stats()?;
    let peak_rss_mb = server
        .peak_rss_mb()
        .ok_or("cannot read the server's VmHWM")?;
    server.shutdown();
    if let Some(probe_server) = probe_server {
        probe_server.shutdown();
    }
    measure_setups(&mut setups)?;
    stage("load phases done");

    // ---- the sequential passes: untraced, then traced, each on a fresh server
    let mut passes = None;
    if args.trace {
        let requests: Vec<Request> = (0..spec.trace_requests as u64)
            .map(|i| gen::request(workload, seed, i))
            .collect();
        let server = ServerProc::spawn(&args.server, &db_path, &log)?;
        let untraced = sequential(
            server.addr,
            &requests[..UNTRACED_REQUESTS.min(requests.len())],
            epoch,
        );
        server.shutdown();
        let server = ServerProc::spawn(&args.server, &db_path, &log)?;
        let traced =
            trace::traced_run(server.addr, &script, &requests, epoch, &out("-spans.jsonl"))?;
        server.shutdown();
        passes = Some((untraced, traced));
        stage("sequential passes done");
    }

    // ---- answers, checked against the interpreter, one timeline per server
    let mut timelines = vec![
        open.iter().chain(&closed).collect::<Vec<_>>(),
        probe.iter().collect(),
    ];
    let e2e_timelines = timelines.len();
    if let Some((untraced, traced)) = &passes {
        timelines.push(untraced.iter().collect());
        timelines.push(traced.samples.iter().collect());
    }
    let all: Vec<&Request> = timelines.iter().flatten().map(|s| &s.request).collect();
    oracle.prefetch(&all, conns)?;
    stage("stateless answers interpreted");
    let mut attempted = 0;
    let mut failed = 0;
    let mut e2e_failed = 0;
    for (k, timeline) in timelines.iter().enumerate() {
        let (wrong, examples) = oracle.check(timeline)?;
        let errors = timeline
            .iter()
            .filter(|s| matches!(s.reply, Reply::Failed(_)))
            .count();
        for s in timeline.iter() {
            if let Reply::Failed(e) = &s.reply {
                eprintln!("perfbench: failed `{}`: {e}", s.request.statement);
                break;
            }
        }
        for example in examples {
            eprintln!("perfbench: {example}");
        }
        attempted += timeline.len();
        failed += wrong + errors;
        if k < e2e_timelines {
            e2e_failed += wrong + errors;
        }
    }
    let mismatches = passes.as_ref().map_or(0, |(_, t)| t.totals.mismatches);
    if mismatches > 0 {
        eprintln!("perfbench: {mismatches} traced request(s) differ between the server and the in-process replay");
    }
    let correct = failed == 0 && mismatches == 0;
    stage("answers checked");

    // ---- end-to-end metrics
    let reads = ok_latencies(open.iter().filter(|s| s.request.binds.is_none()));
    let writes = ok_latencies(
        open.iter()
            .chain(&probe)
            .filter(|s| s.request.binds.is_some()),
    );
    let (read_tail, read_pct, read_n) =
        tail(&reads).ok_or("too few reads for a tail percentile")?;
    let (write_tail, write_pct, write_n) =
        tail(&writes).ok_or("too few writes for a tail percentile")?;
    let lags: Vec<f64> = open.iter().chain(&probe).map(|s| s.lag * 1e3).collect();
    let (lag_tail, lag_pct, _) = tail(&lags).ok_or("too few requests for a lag percentile")?;
    let capacity = if rates.len() >= 2 {
        median(&rates)
    } else {
        ok_latencies(&closed).len() as f64 / closed_s
    };
    let e2e_attempted = open.len() + closed.len() + probe.len();
    let end_to_end = vec![
        m("setup_s", median(&setups), "s"),
        m("read_p50_ms", median(&reads), "ms"),
        m("read_tail_ms", read_tail, "ms"),
        m("write_p50_ms", median(&writes), "ms"),
        m("write_tail_ms", write_tail, "ms"),
        m("capacity_rps", capacity, "req/s"),
        m(
            "ok_ratio",
            (e2e_attempted - e2e_failed) as f64 / e2e_attempted as f64,
            "ratio",
        ),
        m("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    println!(
        "workload {} seed {seed}: {n_open} open-loop requests at {} req/s over {conns} connections, \
         {} closed-loop requests in {closed_s:.2} s, {} probe writes",
        workload.name(),
        spec.rate_rps,
        closed.len(),
        probe.len()
    );
    println!("read_tail_ms is p{read_pct:.2} of {read_n} reads; write_tail_ms is p{write_pct:.2} of {write_n} writes; loadgen.lag_tail_ms is p{lag_pct:.2}");
    println!(
        "error_rate {:.6} ({e2e_failed} of {e2e_attempted} load-phase requests failed or wrong; {failed} of {attempted} in the whole run)",
        e2e_failed as f64 / e2e_attempted as f64
    );
    for metric in &end_to_end {
        println!("{:<16} {:>14.4} {}", metric.name, metric.value, metric.unit);
    }
    let delta = |key: &str| stats_counter(&stats_after, key) - stats_counter(&stats_before, key);
    println!(
        "/stats deltas: engine {} fallback {} plan_cache_hits {} plan_cache_misses {} columnar_batches {} scalar_fallback_batches {} errors {}",
        delta("engine"),
        delta("fallback"),
        delta("plan_cache_hits"),
        delta("plan_cache_misses"),
        delta("columnar_batches"),
        delta("scalar_fallback_batches"),
        delta("errors")
    );
    let hit_ratio = {
        let (hits, misses) = (delta("plan_cache_hits"), delta("plan_cache_misses"));
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    validate(
        workload,
        hit_ratio,
        passes.as_ref().map(|(_, t)| &t.totals),
        seed,
    );

    let metrics = match &passes {
        None => end_to_end,
        Some((untraced, traced)) => {
            let t = &traced.totals;
            let n = t.requests.max(1) as f64;
            let ms = |s: f64| s * 1e3 / n;
            let inprocess = t.decode + t.eval + t.commit + t.encode;
            let ratio = |a: u64, b: u64| {
                if a + b > 0 {
                    a as f64 / (a + b) as f64
                } else {
                    0.0
                }
            };
            let traced_rt = median(
                &traced.samples[..untraced.len()]
                    .iter()
                    .map(|s| (s.done - s.sent) * 1e3)
                    .collect::<Vec<_>>(),
            );
            let untraced_rt = median(
                &untraced
                    .iter()
                    .map(|s| (s.done - s.sent) * 1e3)
                    .collect::<Vec<_>>(),
            );
            let layer = vec![
                m("server.roundtrip_ms", ms(t.roundtrip), "ms"),
                m("server.overhead_ms", ms(t.roundtrip - inprocess), "ms"),
                m("server.decode_ms", ms(t.decode), "ms"),
                m("server.encode_ms", ms(t.encode), "ms"),
                m("server.response_kb", t.response_bytes / 1024.0 / n, "KB"),
                m("lang.eval_ms", ms(t.eval), "ms"),
                m("lang.parse_ms", ms(t.parse), "ms"),
                m("lang.check_ms", ms(t.check), "ms"),
                m("lang.plan_ms", ms(t.plan), "ms"),
                m("nra.lower_ms", ms(t.lower), "ms"),
                m(
                    "lang.plan_cache_hit_ratio",
                    ratio(t.cache_hits, t.cache_misses),
                    "ratio",
                ),
                m("engine.exec_ms", ms(t.exec), "ms"),
                m(
                    "engine.columnar_ratio",
                    ratio(t.columnar_batches, t.scalar_batches),
                    "ratio",
                ),
                m("engine.value_decodes", t.value_decodes as f64 / n, "count"),
                m("engine.morsels", t.morsels as f64 / n, "count"),
                m("engine.steals", t.steals as f64 / n, "count"),
                m("engine.rows_out", t.rows_out as f64 / n, "count"),
                m("lang.interp_ms", ms(t.interp), "ms"),
                m("lang.fallback_share", t.fallbacks as f64 / n, "ratio"),
                m("lang.unattributed_ms", ms(t.unattributed), "ms"),
                m("lang.commit_ms", ms(t.commit), "ms"),
                m("object.compactions", t.compactions as f64, "count"),
                m("object.arena_nodes", t.arena_nodes as f64, "count"),
                m("trace.requests", t.requests as f64, "count"),
                m("trace.overhead_ratio", traced_rt / untraced_rt, "ratio"),
                m("loadgen.lag_tail_ms", lag_tail, "ms"),
                m("loadgen.requests", e2e_attempted as f64, "count"),
                m("loadgen.read_samples", read_n as f64, "count"),
                m("loadgen.write_samples", write_n as f64, "count"),
                m("stats.engine", delta("engine"), "count"),
                m("stats.fallback", delta("fallback"), "count"),
                m("stats.plan_cache_hits", delta("plan_cache_hits"), "count"),
                m(
                    "stats.plan_cache_misses",
                    delta("plan_cache_misses"),
                    "count",
                ),
                m("stats.columnar_batches", delta("columnar_batches"), "count"),
                m(
                    "stats.scalar_fallback_batches",
                    delta("scalar_fallback_batches"),
                    "count",
                ),
                m("stats.errors", delta("errors"), "count"),
            ];
            println!(
                "traced run: {} requests, spans in {}",
                t.requests,
                out("-spans.jsonl").display()
            );
            for metric in &layer {
                println!("{:<32} {:>14.4} {}", metric.name, metric.value, metric.unit);
            }
            layer
        }
    };
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(())
}

/// Check that the run measured what the workload claims, and say so on
/// standard error when it did not.  These are properties of the program
/// under test, so a change may legitimately move them: they are reported,
/// not counted as wrong answers.
fn validate(workload: Workload, hit_ratio: f64, traced: Option<&trace::Totals>, seed: u64) {
    let warn = |what: String| eprintln!("perfbench: validity: {what}");
    match workload {
        Workload::PointRead if hit_ratio > 0.1 => warn(format!(
            "point_read plan-cache hit ratio {hit_ratio:.3}, expected about 0"
        )),
        // read_write's rebinds carry fresh offsets, so its writes miss
        Workload::Analytic if hit_ratio < 0.9 => warn(format!(
            "analytic plan-cache hit ratio {hit_ratio:.3}, expected about 1"
        )),
        Workload::ReadWrite if hit_ratio < 0.8 => warn(format!(
            "read_write plan-cache hit ratio {hit_ratio:.3}, expected about 0.9"
        )),
        _ => {}
    }
    if workload == Workload::PointRead {
        let distinct: std::collections::HashSet<String> = (0..1000)
            .map(|i| gen::request(workload, seed, i).statement)
            .collect();
        if distinct.len() < 4 * 128 {
            warn(format!(
                "only {} distinct statements in the first 1000",
                distinct.len()
            ));
        }
    }
    if let Some(t) = traced {
        if workload == Workload::ReadWrite && t.compactions < 3 {
            warn(format!(
                "the traced run saw {} arena compactions, expected at least 3",
                t.compactions
            ));
        }
        if t.eval > 0.0 && t.unattributed / t.eval > 0.2 {
            warn(format!(
                "{:.0}% of traced eval time is not attributed to a phase",
                100.0 * t.unattributed / t.eval
            ));
        }
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (i, metric) in metrics.iter().enumerate() {
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            out,
            r#"{}"{}": {{"value": {value}, "unit": "{}"}}"#,
            if i > 0 { ", " } else { "" },
            metric.name,
            metric.unit
        );
    }
    out.push_str("}}");
    out
}
