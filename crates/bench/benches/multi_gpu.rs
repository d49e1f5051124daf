//! Criterion wall-clock benchmarks of the multi-GPU pipelines
//! (Figures 9/10/13 workloads at reduced scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_sim::DeviceSpec;
use scan_core::{premises, NodeConfig, ProblemParams, Proposal, ScanRequest};
use skeletons::Add;

fn input_for(problem: ProblemParams) -> Vec<i32> {
    (0..problem.total_elems()).map(|i| ((i * 41) % 211) as i32 - 105).collect()
}

/// Scan-MPS (Fig. 9): sweep W at a fixed 2^18 total, n = 15.
fn bench_mps(c: &mut Criterion) {
    let device = DeviceSpec::tesla_k80();
    let problem = ProblemParams::fixed_total(18, 15);
    let input = input_for(problem);
    let base = premises::derive_tuple(&device, 4, 0);
    let mut group = c.benchmark_group("scan_mps_fig9");
    group.sample_size(10);
    group.throughput(Throughput::Elements(problem.total_elems() as u64));
    for (w, v, y) in [(1usize, 1usize, 1usize), (2, 2, 1), (4, 4, 1), (8, 4, 2)] {
        let k = premises::default_k(&device, &problem, &base, w).unwrap_or(0);
        let mps = ScanRequest::new(Add, problem)
            .proposal(Proposal::Mps)
            .devices(NodeConfig::new(w, v, y, 1).unwrap())
            .tuple(base.with_k(k));
        group.bench_with_input(BenchmarkId::from_parameter(w), &w, |b, _| {
            b.iter(|| mps.run(&input).unwrap());
        });
    }
    group.finish();
}

/// Scan-MP-PC (Fig. 10): the paper's two configurations.
fn bench_mppc(c: &mut Criterion) {
    let device = DeviceSpec::tesla_k80();
    let problem = ProblemParams::fixed_total(18, 15);
    let input = input_for(problem);
    let base = premises::derive_tuple(&device, 4, 0);
    let mut group = c.benchmark_group("scan_mppc_fig10");
    group.sample_size(10);
    group.throughput(Throughput::Elements(problem.total_elems() as u64));
    for (w, v, y) in [(4usize, 2usize, 2usize), (8, 4, 2)] {
        let k = premises::default_k(&device, &problem, &base, v).unwrap_or(0);
        let mppc = ScanRequest::new(Add, problem)
            .proposal(Proposal::Mppc)
            .devices(NodeConfig::new(w, v, y, 1).unwrap())
            .tuple(base.with_k(k));
        group.bench_with_input(BenchmarkId::new("WV", format!("{w}x{v}")), &w, |b, _| {
            b.iter(|| mppc.run(&input).unwrap());
        });
    }
    group.finish();
}

/// Multi-node Scan-MPS (Fig. 13/14): M=2, W=4.
fn bench_multinode(c: &mut Criterion) {
    let device = DeviceSpec::tesla_k80();
    let problem = ProblemParams::fixed_total(18, 15);
    let input = input_for(problem);
    let base = premises::derive_tuple(&device, 4, 0);
    let k = premises::default_k(&device, &problem, &base, 8).unwrap_or(0);
    let multinode = ScanRequest::new(Add, problem)
        .proposal(Proposal::MpsMultinode)
        .devices(NodeConfig::new(4, 4, 1, 2).unwrap())
        .tuple(base.with_k(k));
    let mut group = c.benchmark_group("scan_multinode_fig13");
    group.sample_size(10);
    group.throughput(Throughput::Elements(problem.total_elems() as u64));
    group.bench_function("M2_W4", |b| {
        b.iter(|| multinode.run(&input).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_mps, bench_mppc, bench_multinode);
criterion_main!(benches);
