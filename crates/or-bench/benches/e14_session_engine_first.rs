//! E14: an OrQL session script replayed under the session's execution
//! modes — the user-facing counterpart of E13: the same statements a REPL
//! user types, timed end-to-end through parse, type-check and execution.
//! Registers the legs of every e14 entry of the engine-bench workload
//! table as `workload/leg`, plus the engine-checked differential mode
//! (engine + interpreter cross-check), which no table entry times.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use or_bench::experiments::{
    e14_replay, e14_session, Experiment, Prepared, ENGINE_WORKLOADS, LEGS,
};
use or_engine::ExecConfig;
use or_lang::session::ExecMode;

/// Driving-relation scale of the session bindings.
const SCALE: usize = 4_000;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_session_engine_first");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    for workload in ENGINE_WORKLOADS
        .iter()
        .filter(|w| w.experiment == Experiment::E14)
    {
        let Prepared { legs, .. } = (workload.setup)(SCALE);
        for (name, mut leg) in LEGS.into_iter().zip(legs) {
            group.bench_function(format!("{}/{name}", workload.name), |b| b.iter(&mut leg));
        }
    }

    let mut checked = e14_session(ExecMode::EngineChecked, ExecConfig::from_env(), SCALE);
    group.bench_function("engine_checked", |b| b.iter(|| e14_replay(&mut checked)));

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
