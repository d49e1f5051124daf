//! Criterion ablation benchmarks for the design choices DESIGN.md calls
//! out: the cascade factor `K` (Premise 3), the per-thread element count
//! `P` (Premise 2), shuffle vs. shared-memory warp exchange (§3.1's
//! `s ≤ 5` claim) and int4 vs. scalar loads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::{DeviceSpec, Gpu, LaunchConfig};
use scan_core::{premises, ProblemParams, ScanRequest};
use skeletons::{shared_scan::warp_scan_inclusive_shared, warp_scan_inclusive, Add, SplkTuple};

fn input_for(problem: ProblemParams) -> Vec<i32> {
    (0..problem.total_elems()).map(|i| ((i * 13) % 157) as i32 - 78).collect()
}

/// Premise 3 ablation: Scan-SP across the K search space.
fn bench_k_sweep(c: &mut Criterion) {
    let device = DeviceSpec::tesla_k80();
    let problem = ProblemParams::fixed_total(18, 18);
    let input = input_for(problem);
    let base = premises::derive_tuple(&device, 4, 0);
    let space = premises::k_search_space(&device, &problem, &base, 1);
    let mut group = c.benchmark_group("k_sweep_premise3");
    group.sample_size(10);
    for k in space {
        let sp = ScanRequest::new(Add, problem).tuple(base.with_k(k));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| sp.run(&input).unwrap());
        });
    }
    group.finish();
}

/// Premise 2 ablation: Scan-SP across p (register elements per thread).
fn bench_p_sweep(c: &mut Criterion) {
    let problem = ProblemParams::fixed_total(18, 18);
    let input = input_for(problem);
    let mut group = c.benchmark_group("p_sweep_premise2");
    group.sample_size(10);
    for p in [1u32, 2, 3, 4] {
        let sp = ScanRequest::new(Add, problem).tuple(SplkTuple::new(5, p, 7, 1).unwrap());
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, _| {
            b.iter(|| sp.run(&input).unwrap());
        });
    }
    group.finish();
}

/// Shuffle vs. shared-memory warp scan: the §3.1 exchange-mechanism
/// ablation, at warp granularity.
fn bench_warp_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("warp_exchange");
    let input: gpu_sim::LaneArray<i32> = std::array::from_fn(|i| i as i32);
    group.bench_function("shuffle", |b| {
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let cfg = LaunchConfig::new("warp", (1, 1), (32, 1)).shared_elems(32).regs(32);
        b.iter(|| {
            gpu.launch::<i32, _>(&cfg, |ctx| {
                criterion::black_box(warp_scan_inclusive(ctx, Add, &input));
            })
            .unwrap()
        });
    });
    group.bench_function("shared_memory", |b| {
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let cfg = LaunchConfig::new("warp", (1, 1), (32, 1)).shared_elems(64).regs(32);
        b.iter(|| {
            gpu.launch::<i32, _>(&cfg, |ctx| {
                criterion::black_box(warp_scan_inclusive_shared(ctx, Add, &input, 0));
            })
            .unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_k_sweep, bench_p_sweep, bench_warp_exchange);
criterion_main!(benches);
