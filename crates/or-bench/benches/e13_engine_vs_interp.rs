//! E13: the streaming parallel physical engine (`or-engine`) against the
//! tree-walking interpreter.  Registers the legs of every e13 entry of the
//! engine-bench workload table as `workload/leg` — the same workloads and
//! legs the `experiments` binary measures into `BENCH_engine.json`, at a
//! small scale.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use or_bench::experiments::{Experiment, Prepared, ENGINE_WORKLOADS, LEGS};

/// Driving-relation scale (the expansion workloads take a fraction of it).
const SCALE: usize = 2_000;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_engine_vs_interp");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    for workload in ENGINE_WORKLOADS
        .iter()
        .filter(|w| w.experiment == Experiment::E13)
    {
        let Prepared { legs, .. } = (workload.setup)(SCALE);
        for (name, mut leg) in LEGS.into_iter().zip(legs) {
            group.bench_function(format!("{}/{name}", workload.name), |b| b.iter(&mut leg));
        }
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
