//! Differential fault-injection harness: for a matrix of seeds × fault
//! plans × proposals, the faulted run's output must stay bit-identical to
//! the fault-free CPU reference, and the same seed must reproduce the same
//! schedule. Faults are allowed to change *timing only* — never data.
//!
//! The seed list can be overridden from the environment (the CI
//! `fault-matrix` job sets `FAULT_SEEDS` to pin the tested seeds).

use multigpu_scan::prelude::*;
use multigpu_scan::scan::Breakdown;

fn pseudo(n: usize, salt: u64) -> Vec<i32> {
    (0..n)
        .map(|i| {
            ((i as u64).wrapping_mul(2862933555777941757).wrapping_add(salt) % 251) as i32 - 125
        })
        .collect()
}

fn reference(input: &[i32], problem: ProblemParams) -> Vec<i32> {
    use multigpu_scan::kernels::reference_inclusive;
    let n = problem.problem_size();
    let mut out = Vec::with_capacity(input.len());
    for g in 0..problem.batch() {
        out.extend(reference_inclusive(Add, &input[g * n..(g + 1) * n]));
    }
    out
}

fn seeds() -> Vec<u64> {
    match std::env::var("FAULT_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("FAULT_SEEDS must be comma-separated u64s"))
            .collect(),
        Err(_) => vec![1, 7, 42],
    }
}

/// The single-node fault plans of the differential matrix, parameterised
/// by seed. The PCIe network 0 link is the one every 2-GPU group actually
/// crosses; the retry budget is raised so transient failures recover
/// instead of aborting the run.
fn single_node_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let net0 = multigpu_scan::fabric::Resource::PcieNetwork { node: 0, network: 0 };
    vec![
        ("none", FaultPlan::none()),
        ("degraded-link", FaultPlan::new(seed).degrade_link(net0, 4.0)),
        ("transient-link", FaultPlan::new(seed).transient_link(net0, 0.3).with_retry_budget(10)),
        ("throttled-gpu", FaultPlan::new(seed).throttle_gpu(1, 3.0)),
        ("evicted-gpu", FaultPlan::new(seed).evict_gpu(1, 0)),
        (
            "combined",
            FaultPlan::new(seed)
                .degrade_link(net0, 2.0)
                .transient_link(net0, 0.25)
                .with_retry_budget(10)
                .throttle_gpu(0, 2.0),
        ),
    ]
}

#[test]
fn scan_sp_matrix_is_bit_identical_and_deterministic() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems(), 3);
    let expected = reference(&input, problem);
    for seed in seeds() {
        // A single GPU has no links to fault and cannot be evicted, so the
        // SP matrix exercises throttles.
        for (name, plan) in
            [("none", FaultPlan::none()), ("throttled", FaultPlan::new(seed).throttle_gpu(0, 5.0))]
        {
            let run = || ScanRequest::new(Add, problem).faults(plan.clone()).run(&input).unwrap();
            let (a, b) = (run(), run());
            assert_eq!(a.data, expected, "seed {seed} plan {name}");
            assert_eq!(
                a.report.makespan.to_bits(),
                b.report.makespan.to_bits(),
                "seed {seed} plan {name}: same seed must reproduce the same schedule"
            );
        }
    }
}

#[test]
fn scan_mps_matrix_is_bit_identical_and_deterministic() {
    let problem = ProblemParams::new(13, 2);
    let mps = ScanRequest::new(Add, problem)
        .proposal(Proposal::Mps)
        .devices(NodeConfig::new(2, 2, 1, 1).unwrap())
        .pipeline(PipelinePolicy::batched_barrier(2));
    let input = pseudo(problem.total_elems(), 5);
    let expected = reference(&input, problem);
    for seed in seeds() {
        for (name, plan) in single_node_plans(seed) {
            let run = || mps.clone().faults(plan.clone()).run(&input).unwrap();
            let a = run();
            let b = run();
            assert_eq!(a.data, expected, "seed {seed} plan {name}");
            assert_eq!(
                a.report.makespan.to_bits(),
                b.report.makespan.to_bits(),
                "seed {seed} plan {name}: schedule must be reproducible"
            );
            assert_eq!(
                a.faults.as_ref().unwrap().events,
                b.faults.as_ref().unwrap().events,
                "seed {seed} plan {name}"
            );
        }
    }
}

#[test]
fn scan_mppc_matrix_is_bit_identical_and_deterministic() {
    let problem = ProblemParams::new(13, 3);
    let mppc = ScanRequest::new(Add, problem)
        .proposal(Proposal::Mppc)
        .devices(NodeConfig::new(4, 2, 2, 1).unwrap());
    let input = pseudo(problem.total_elems(), 7);
    let expected = reference(&input, problem);
    for seed in seeds() {
        for (name, mut plan) in single_node_plans(seed) {
            // Make the eviction hit network 1's group instead of GPU 1
            // (both networks run, only one should replan).
            if name == "evicted-gpu" {
                plan = FaultPlan::new(seed).evict_gpu(4, 0);
            }
            let run = || mppc.clone().faults(plan.clone()).run(&input).unwrap();
            let a = run();
            let b = run();
            assert_eq!(a.data, expected, "seed {seed} plan {name}");
            assert_eq!(
                a.report.makespan.to_bits(),
                b.report.makespan.to_bits(),
                "seed {seed} plan {name}: schedule must be reproducible"
            );
        }
    }
}

#[test]
fn scan_multinode_matrix_is_bit_identical_and_deterministic() {
    let problem = ProblemParams::new(14, 1);
    let multinode = ScanRequest::new(Add, problem)
        .proposal(Proposal::MpsMultinode)
        .devices(NodeConfig::new(2, 2, 1, 2).unwrap());
    let input = pseudo(problem.total_elems(), 11);
    let expected = reference(&input, problem);
    let ib = multigpu_scan::fabric::Resource::ib(0, 1);
    for seed in seeds() {
        for (name, plan) in [
            ("none", FaultPlan::none()),
            ("degraded-ib", FaultPlan::new(seed).degrade_link(ib, 6.0)),
            ("transient-ib", FaultPlan::new(seed).transient_link(ib, 0.3).with_retry_budget(10)),
            ("throttled-gpu", FaultPlan::new(seed).throttle_gpu(8, 2.0)),
        ] {
            let run = || multinode.clone().faults(plan.clone()).run(&input).unwrap();
            let a = run();
            let b = run();
            assert_eq!(a.data, expected, "seed {seed} plan {name}");
            assert_eq!(
                a.report.makespan.to_bits(),
                b.report.makespan.to_bits(),
                "seed {seed} plan {name}: schedule must be reproducible"
            );
        }
    }
}

/// The issue's acceptance scenario: a seeded plan that evicts 1 of 8 GPUs
/// mid-MPS must (a) still produce the bit-identical scan, (b) pay a
/// strictly larger makespan than the fault-free run, and (c) account for
/// the replanning as a `recovery` phase in the Fig. 14-style breakdown —
/// reproducibly, run to run.
#[test]
fn evicting_one_of_eight_gpus_mid_mps_meets_the_acceptance_criteria() {
    // Large problems (2^22 elements) keep the run memory-bound on the
    // GPUs, so losing devices genuinely costs wall-clock; on tiny problems
    // the smaller surviving group can win back its per-transfer latency
    // (the Fig. 9 W=8 collapse) and eviction would come out *cheaper*.
    let problem = ProblemParams::new(22, 2);
    let mps = ScanRequest::new(Add, problem)
        .proposal(Proposal::Mps)
        .devices(NodeConfig::new(8, 4, 2, 1).unwrap())
        .pipeline(PipelinePolicy::batched_barrier(4));
    let input = pseudo(problem.total_elems(), 13);
    let expected = reference(&input, problem);

    let run = |plan: FaultPlan| mps.clone().faults(plan).run(&input).unwrap();
    let faulted = run(FaultPlan::new(0xC0FFEE).evict_gpu(3, 1));
    let healthy = run(FaultPlan::none());

    // (a) Bit-identical to the CPU reference (and hence to the fault-free
    // run, which satisfies the same check).
    assert_eq!(faulted.data, expected);
    assert_eq!(healthy.data, expected);

    // (b) The aborted sub-batch and rerun are not free.
    assert!(
        faulted.report.makespan > healthy.report.makespan,
        "eviction must cost wall-clock: {} vs {}",
        faulted.report.makespan,
        healthy.report.makespan
    );

    // (c) The recovery work is visible in the phase breakdown, and the
    // report says what happened.
    let breakdown = Breakdown::from_graph(faulted.report.graph.as_ref().unwrap());
    assert!(breakdown.seconds_with_prefix("recovery") > 0.0);
    let fault_report = faulted.faults.as_ref().unwrap();
    assert!(fault_report.any_eviction());
    assert_eq!(fault_report.replans(), 1);
    assert!(fault_report
        .events
        .iter()
        .any(|e| matches!(e, FaultEvent::GpuEvicted { gpu: 3, at_sub_batch: 1 })));

    // Same seed, same schedule — twice.
    let again = run(FaultPlan::new(0xC0FFEE).evict_gpu(3, 1));
    assert_eq!(faulted.report.makespan.to_bits(), again.report.makespan.to_bits());
    assert_eq!(fault_report.events, again.faults.as_ref().unwrap().events);
}
