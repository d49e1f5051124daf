//! Device-memory charges, pinned. Each simulated GPU's tracker is charged
//! for every device byte a run holds, whether the host keeps a copy of
//! those bytes (a `DeviceBuffer`) or the kernels read and write the
//! caller's memory in place (a `Reservation`). So how much memory a run
//! needs on one GPU, and which allocation fails on a device that is too
//! small, must not depend on where the bytes live. The figures below were
//! recorded when every GPU's input portions were a gathered host copy,
//! its output portions a buffer of their own, and every library copied its
//! input into a device buffer.

use multigpu_scan::prelude::*;
use multigpu_scan::scan::{reduce_sp, ScanError};
use multigpu_scan::sim::SimError;

/// The `(requested, in_use)` fields of an `OutOfMemory`.
type Refusal = (usize, usize);

/// `(case, need, refusal at need - 1, refusal at need / 2)`: the smallest
/// per-GPU capacity the run succeeds on, and the `OutOfMemory` fields one
/// byte short of it and at half of it, for a batch of eight 2^14 `i32`
/// problems.
const PINNED: [(&str, usize, Refusal, Refusal); 14] = [
    ("sp", 1050112, (512, 1049600), (524288, 524288)),
    ("sp_exclusive", 1050112, (512, 1049600), (524288, 524288)),
    ("mps_w2", 525312, (512, 524800), (262144, 262144)),
    ("mps_w4_pipelined2", 131456, (256, 131200), (65536, 65536)),
    ("mppc_w4_v2", 262656, (256, 262400), (131072, 131072)),
    ("case1_w2", 525056, (256, 524800), (262144, 262144)),
    ("multinode_m2_w2", 262912, (512, 262400), (131072, 131072)),
    ("cub", 1048608, (32, 1048576), (524288, 524288)),
    ("cudpp", 1049088, (512, 1048576), (524288, 524288)),
    ("thrust", 1048640, (64, 1048576), (524288, 524288)),
    ("thrust_segmented", 1048640, (64, 1048576), (524288, 524288)),
    ("moderngpu", 1048640, (64, 1048576), (524288, 524288)),
    ("lightscan", 1048640, (64, 1048576), (524288, 524288)),
    ("reduce_sp", 524800, (512, 524288), (524288, 0)),
];

fn pseudo(n: usize) -> Vec<i32> {
    (0..n).map(|i| ((i as i64 * 16807 + 11) % 211) as i32 - 105).collect()
}

/// Run `case` on GPUs of `capacity` bytes each.
fn run(case: &str, capacity: usize) -> Result<(), ScanError> {
    let mut device = DeviceSpec::tesla_k80();
    device.global_mem_bytes = capacity;
    let problem = ProblemParams::new(14, 3);
    let input = pseudo(problem.total_elems());
    let req = ScanRequest::new(Add, problem).device(device.clone());
    let cfg = |w, v, y, m| NodeConfig::new(w, v, y, m).unwrap();
    match case {
        "sp" => req.run(&input).map(drop),
        "sp_exclusive" => req.exclusive().run(&input).map(drop),
        "mps_w2" => req.proposal(Proposal::Mps).devices(cfg(2, 2, 1, 1)).run(&input).map(drop),
        "mps_w4_pipelined2" => req
            .proposal(Proposal::Mps)
            .devices(cfg(4, 4, 1, 1))
            .pipeline(PipelinePolicy::pipelined(2))
            .run(&input)
            .map(drop),
        "mppc_w4_v2" => req.proposal(Proposal::Mppc).devices(cfg(4, 2, 2, 1)).run(&input).map(drop),
        "case1_w2" => req.proposal(Proposal::Case1).devices(cfg(2, 2, 1, 1)).run(&input).map(drop),
        "multinode_m2_w2" => req
            .proposal(Proposal::MpsMultinode)
            .devices(cfg(2, 2, 1, 2))
            .fabric(Fabric::tsubame_kfc(2))
            .run(&input)
            .map(drop),
        "cub" => Cub::new(Add).batch_scan(&device, problem, &input).map(drop),
        "cudpp" => Cudpp::new(Add).batch_scan(&device, problem, &input).map(drop),
        "thrust" => Thrust::new(Add).batch_scan(&device, problem, &input).map(drop),
        "thrust_segmented" => Thrust::new(Add).segmented_scan(&device, problem, &input).map(drop),
        "moderngpu" => ModernGpu::new(Add).batch_scan(&device, problem, &input).map(drop),
        "lightscan" => LightScan::new(Add).batch_scan(&device, problem, &input).map(drop),
        "reduce_sp" => {
            reduce_sp(Add, SplkTuple::kepler_premises(0), &device, problem, &input).map(drop)
        }
        other => panic!("unknown case {other}"),
    }
}

#[test]
fn per_gpu_memory_needs_and_out_of_memory_fields_are_pinned() {
    for (case, need, short, half) in PINNED {
        assert!(run(case, need).is_ok(), "{case} fits in {need} bytes per GPU");
        for (capacity, (want_requested, want_in_use)) in [(need - 1, short), (need / 2, half)] {
            match run(case, capacity).unwrap_err() {
                ScanError::Sim(SimError::OutOfMemory { requested, in_use, capacity: cap }) => {
                    assert_eq!(
                        (requested, in_use, cap),
                        (want_requested, want_in_use, capacity),
                        "{case} on {capacity} bytes per GPU"
                    );
                }
                other => panic!("{case} on {capacity} bytes per GPU: {other:?}"),
            }
        }
    }
}
