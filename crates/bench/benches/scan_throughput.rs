//! Criterion wall-clock benchmarks: the proposal vs. the baseline
//! libraries on the simulator (Figures 11/12 workloads at reduced scale).
//!
//! Simulated-time results (the paper's metric) come from the `figures`
//! binary; these benches track the *implementation's* host performance.

use baselines::{Cub, Cudpp, LightScan, ModernGpu, ScanLibrary, Thrust};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_sim::DeviceSpec;
use scan_core::{premises, ProblemParams, ScanRequest};
use skeletons::Add;

fn input_for(problem: ProblemParams) -> Vec<i32> {
    (0..problem.total_elems()).map(|i| ((i * 37) % 199) as i32 - 99).collect()
}

/// Scan-SP across batch shapes at a fixed 2^18 total.
fn bench_scan_sp(c: &mut Criterion) {
    let device = DeviceSpec::tesla_k80();
    let mut group = c.benchmark_group("scan_sp");
    group.sample_size(10);
    for n in [13u32, 15, 18] {
        let problem = ProblemParams::fixed_total(18, n);
        let input = input_for(problem);
        let base = premises::derive_tuple(&device, 4, 0);
        let k = premises::default_k(&device, &problem, &base, 1).unwrap_or(0);
        group.throughput(Throughput::Elements(problem.total_elems() as u64));
        let sp = ScanRequest::new(Add, problem).tuple(base.with_k(k));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| sp.run(&input).unwrap());
        });
    }
    group.finish();
}

/// The five libraries on the G=1 workload (Fig. 11 shape).
fn bench_libraries_g1(c: &mut Criterion) {
    let device = DeviceSpec::tesla_k80();
    let problem = ProblemParams::single(18);
    let input = input_for(problem);
    let mut group = c.benchmark_group("libraries_g1");
    group.sample_size(10);
    group.throughput(Throughput::Elements(problem.total_elems() as u64));
    let libs: Vec<(&str, Box<dyn ScanLibrary<i32>>)> = vec![
        ("cudpp", Box::new(Cudpp::new(Add))),
        ("thrust", Box::new(Thrust::new(Add))),
        ("moderngpu", Box::new(ModernGpu::new(Add))),
        ("cub", Box::new(Cub::new(Add))),
        ("lightscan", Box::new(LightScan::new(Add))),
    ];
    for (name, lib) in &libs {
        group.bench_function(*name, |b| {
            b.iter(|| lib.batch_scan(&device, problem, &input).unwrap());
        });
    }
    group.finish();
}

/// Batch workload (Fig. 12 shape): G = 32 problems of 2^13.
fn bench_libraries_batch(c: &mut Criterion) {
    let device = DeviceSpec::tesla_k80();
    let problem = ProblemParams::new(13, 5);
    let input = input_for(problem);
    let mut group = c.benchmark_group("libraries_batch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(problem.total_elems() as u64));
    group.bench_function("cudpp_multiscan", |b| {
        b.iter(|| Cudpp::new(Add).batch_scan(&device, problem, &input).unwrap());
    });
    group.bench_function("cub_g_invocations", |b| {
        b.iter(|| Cub::new(Add).batch_scan(&device, problem, &input).unwrap());
    });
    group.bench_function("thrust_segmented", |b| {
        b.iter(|| Thrust::new(Add).segmented_scan(&device, problem, &input).unwrap());
    });
    let base = premises::derive_tuple(&device, 4, 0);
    let k = premises::default_k(&device, &problem, &base, 1).unwrap_or(0);
    let sp = ScanRequest::new(Add, problem).tuple(base.with_k(k));
    group.bench_function("ours_scan_sp", |b| {
        b.iter(|| sp.run(&input).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_scan_sp, bench_libraries_g1, bench_libraries_batch);
criterion_main!(benches);
