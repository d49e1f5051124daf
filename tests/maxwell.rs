//! Portability tests: the premises and pipeline on a Maxwell-class device.
//!
//! The paper's Premise 1 calls out Maxwell explicitly ("16 in the case of
//! Kepler and 32 in the case of Maxwell-based GPUs"); the tuning strategy
//! must rederive the tuple for the different per-SM limits and the pipeline
//! must run unchanged.

use multigpu_scan::prelude::*;
use multigpu_scan::scan::verify::verify_batch;

#[test]
fn premise1_picks_two_warp_blocks_on_maxwell() {
    let device = DeviceSpec::maxwell();
    let p1 = premises::premise1(&device);
    // 64 warps / 32 blocks per SM -> 2 warps per block.
    assert_eq!(p1.threads_per_block, 64);
    assert_eq!(p1.l, 6);
}

#[test]
fn maxwell_tuple_is_valid_and_small() {
    let device = DeviceSpec::maxwell();
    let t = premises::derive_tuple(&device, 4, 0);
    assert_eq!(t.threads_per_block(), 64);
    // Maxwell's 64K registers over 32 blocks x 64 threads leave a lean
    // register budget; Premise 2 shrinks P accordingly.
    assert!(t.elems_per_thread() <= 8);
    assert!(t.uses_shuffles());
}

#[test]
fn scan_sp_works_end_to_end_on_maxwell() {
    let device = DeviceSpec::maxwell();
    let base = premises::derive_tuple(&device, 4, 0);
    for (n, g) in [(10u32, 2u32), (13, 1), (14, 0)] {
        let problem = ProblemParams::new(n, g);
        let k = premises::default_k(&device, &problem, &base, 1).expect("feasible");
        let input: Vec<i32> =
            (0..problem.total_elems()).map(|i| ((i * 19) % 83) as i32 - 41).collect();
        let out = ScanRequest::new(Add, problem)
            .device(device.clone())
            .tuple(base.with_k(k))
            .run(&input)
            .unwrap();
        verify_batch(Add, problem, &input, &out.data)
            .unwrap_or_else(|m| panic!("maxwell n={n} g={g}: {m}"));
    }
}

#[test]
fn multi_gpu_pipeline_on_maxwell_node() {
    let device = DeviceSpec::maxwell();
    let base = premises::derive_tuple(&device, 4, 0);
    let problem = ProblemParams::new(13, 2);
    let k = premises::default_k(&device, &problem, &base, 4).expect("feasible");
    let input: Vec<i32> = (0..problem.total_elems()).map(|i| ((i * 23) % 71) as i32 - 35).collect();
    // Same TSUBAME-KFC topology shape, Maxwell GPUs.
    let out = ScanRequest::new(Add, problem)
        .proposal(Proposal::Mps)
        .devices(NodeConfig::new(4, 4, 1, 1).unwrap())
        .device(device)
        .tuple(base.with_k(k))
        .run(&input)
        .unwrap();
    verify_batch(Add, problem, &input, &out.data).unwrap();
}

#[test]
fn kepler_and_maxwell_agree_on_results() {
    let problem = ProblemParams::new(12, 2);
    let input: Vec<i32> =
        (0..problem.total_elems()).map(|i| ((i * 29) % 101) as i32 - 50).collect();
    let run = |device: DeviceSpec| {
        let base = premises::derive_tuple(&device, 4, 0);
        let k = premises::default_k(&device, &problem, &base, 1).unwrap();
        ScanRequest::new(Add, problem)
            .device(device)
            .tuple(base.with_k(k))
            .run(&input)
            .unwrap()
            .data
    };
    assert_eq!(run(DeviceSpec::tesla_k80()), run(DeviceSpec::maxwell()));
}
