//! `experiments` — run every experiment (E1–E15) and print its table.
//!
//! `e15` (the concurrent session replay) reports per-client latency over a
//! shared frozen snapshot; its rows are printed only and never written to
//! `BENCH_engine.json` (thread-scheduling noise would make them a flaky
//! regression baseline).
//!
//! ```text
//! cargo run --release -p or-bench --bin experiments            # all
//! cargo run --release -p or-bench --bin experiments -- e03 e07 # a subset
//! cargo run --release -p or-bench --bin experiments -- --workers 4 e13
//! ```
//!
//! Running `e13` (alone or as part of the full suite) measures every entry
//! of the engine-bench workload table (`experiments::ENGINE_WORKLOADS`:
//! the engine workloads *and* the e14 session replays) and writes
//! `BENCH_engine.json` — the machine-readable engine-vs-interpreter
//! measurements tracked across PRs.  `e14` alone prints the session
//! entries without touching the file.  Every reported number is the
//! **median of `TIMED_RUNS` timed runs** after one discarded warmup run
//! (the per-row `runs` field records the count).
//!
//! `--workers N` (equivalently the `OR_ENGINE_WORKERS` environment
//! variable) overrides the worker count of the parallel benchmark legs in
//! `e13`/`e14`/`check-regression`, so the parallel executor is exercised
//! even on machines whose `available_parallelism` reports 1.
//!
//! ## Regression checking
//!
//! ```text
//! experiments -- check-regression [--max-slowdown 1.15] [--baseline PATH]
//! ```
//!
//! reads the **committed** baseline (default `BENCH_engine.json`), re-runs
//! the e13+e14 measurements, and exits non-zero if any workload's speedup
//! fell below `baseline / max-slowdown`, if any engine/interpreter
//! cross-check failed, or if a baseline workload disappeared.  The parallel
//! leg is compared only when the baseline was measured on the same core
//! count (`available_parallelism`); otherwise the sequential leg is
//! compared, and multi-worker rows additionally gate on scaling
//! efficiency (`engine_par_ms / engine_seq_ms`) when the baseline is
//! parallel-comparable.  The fresh measurements are **not** written back —
//! the committed file stays the baseline of record.
//!
//! ## README generation
//!
//! ```text
//! experiments -- readme-perf [--baseline PATH]
//! ```
//!
//! prints the committed baseline as the README's markdown performance
//! table (see `docs/BENCHMARKS.md`), so the README numbers are always
//! regenerated from `BENCH_engine.json`, never hand-edited.

use or_bench::experiments;
use or_bench::Table;

/// A named experiment runner.
type Experiment = (&'static str, fn() -> Table);

/// The driving-relation scale shared by `e13` and `check-regression`.
const E13_SCALE: usize = 20_000;

fn all() -> Vec<Experiment> {
    vec![
        ("e01", || experiments::e01_alpha_powerset(10)),
        ("e02", || experiments::e02_alpha_blowup(14)),
        ("e03", || experiments::e03_cardinality_bound(7, 6)),
        ("e04", || experiments::e04_size_bound(6)),
        ("e05", || experiments::e05_coherence(4)),
        ("e06", experiments::e06_losslessness),
        ("e07", || experiments::e07_sat(10)),
        ("e08", experiments::e08_order_closure),
        ("e09", || experiments::e09_iso_roundtrip(12)),
        ("e10", || experiments::e10_theory_order(60)),
        ("e11", || experiments::e11_normalize_expansion(10)),
        ("e12", experiments::e12_lazy_vs_eager),
        ("e13", || {
            let rows = experiments::engine_bench_rows(E13_SCALE);
            let json = experiments::engine_bench_json(&rows);
            match std::fs::write("BENCH_engine.json", &json) {
                Ok(()) => eprintln!("wrote BENCH_engine.json"),
                Err(e) => eprintln!("could not write BENCH_engine.json: {e}"),
            }
            experiments::engine_table(experiments::Experiment::E13, &rows)
        }),
        ("e14", || {
            let rows: Vec<_> = experiments::ENGINE_WORKLOADS
                .iter()
                .filter(|w| w.experiment == experiments::Experiment::E14)
                .map(|w| experiments::measure(w, E13_SCALE))
                .collect();
            experiments::engine_table(experiments::Experiment::E14, &rows)
        }),
        ("e15", || experiments::e15_concurrent_replay(E13_SCALE)),
    ]
}

/// `readme-perf`: render the committed baseline as the README's markdown
/// performance table (stdout), so the README section is regenerated rather
/// than hand-edited.
fn readme_perf(args: &[String]) -> i32 {
    let mut baseline_path = "BENCH_engine.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline_path = p.clone(),
                None => {
                    eprintln!("--baseline expects a path");
                    return 2;
                }
            },
            other => {
                eprintln!("unknown readme-perf argument: {other}");
                return 2;
            }
        }
    }
    let json = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("could not read baseline {baseline_path}: {e}");
            return 2;
        }
    };
    let baseline = experiments::parse_engine_bench(&json);
    if baseline.is_empty() {
        eprintln!("baseline {baseline_path} contains no workloads");
        return 2;
    }
    print!("{}", experiments::readme_perf_table(&baseline));
    0
}

/// `check-regression`: compare a fresh e13 run against the committed
/// baseline; process exit code 1 on any regression.
fn check_regression(args: &[String]) -> i32 {
    let mut max_slowdown = 1.15f64;
    let mut baseline_path = "BENCH_engine.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-slowdown" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 1.0 => max_slowdown = v,
                _ => {
                    eprintln!("--max-slowdown expects a number >= 1.0");
                    return 2;
                }
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = p.clone(),
                None => {
                    eprintln!("--baseline expects a path");
                    return 2;
                }
            },
            other => {
                eprintln!("unknown check-regression argument: {other}");
                return 2;
            }
        }
    }
    let baseline_json = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("could not read baseline {baseline_path}: {e}");
            return 2;
        }
    };
    let baseline = experiments::parse_engine_bench(&baseline_json);
    if baseline.is_empty() {
        eprintln!("baseline {baseline_path} contains no workloads");
        return 2;
    }
    eprintln!("measuring fresh e13+e14 rows (scale {E13_SCALE})...");
    let fresh = experiments::engine_bench_rows(E13_SCALE);
    let table = experiments::engine_table(experiments::Experiment::E13, &fresh);
    println!("{table}");
    let verdicts = experiments::check_regression(&baseline, &fresh, max_slowdown);
    let mut failed = false;
    for v in &verdicts {
        let mark = if v.ok { "ok  " } else { "FAIL" };
        println!("{mark}  {:<22} {}", v.workload, v.detail);
        failed |= !v.ok;
    }
    if failed {
        eprintln!("bench regression detected (max-slowdown {max_slowdown})");
        1
    } else {
        eprintln!("no bench regression (max-slowdown {max_slowdown})");
        0
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // --workers N: override the parallel-leg worker count (exported as
    // OR_ENGINE_WORKERS so every measurement path sees it)
    if let Some(at) = args.iter().position(|a| a == "--workers") {
        match args.get(at + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n >= 1 => {
                std::env::set_var("OR_ENGINE_WORKERS", n.to_string());
                args.drain(at..=at + 1);
            }
            _ => {
                eprintln!("--workers expects a number >= 1");
                std::process::exit(2);
            }
        }
    }
    if args.first().map(String::as_str) == Some("check-regression") {
        std::process::exit(check_regression(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("readme-perf") {
        std::process::exit(readme_perf(&args[1..]));
    }
    let requested: Vec<String> = args.iter().map(|a| a.to_lowercase()).collect();
    let mut ran = 0;
    for (name, run) in all() {
        if !requested.is_empty() && !requested.iter().any(|r| r == name) {
            continue;
        }
        let table = run();
        println!("{table}");
        ran += 1;
    }
    if ran == 0 {
        eprintln!("no experiment matched; known names: e01..e15");
        std::process::exit(1);
    }
}
