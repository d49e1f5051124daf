//! Failure-injection integration tests: every misuse path returns a
//! descriptive error instead of corrupting results or panicking.

use multigpu_scan::prelude::*;
use multigpu_scan::scan::ScanError;
use multigpu_scan::sim::{DeviceSpec as Dev, Gpu, SimError};

fn device() -> Dev {
    Dev::tesla_k80()
}

#[test]
fn input_length_mismatch_is_reported() {
    let problem = ProblemParams::new(12, 2);
    let err = ScanRequest::new(Add, problem).run(&[0i32; 100]).unwrap_err();
    match err {
        ScanError::InvalidInput(msg) => assert!(msg.contains("100"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn problem_smaller_than_iteration_is_configuration_error() {
    let problem = ProblemParams::single(8); // 256 < 1024
    let err = ScanRequest::new(Add, problem).run(&[0i32; 256]).unwrap_err();
    assert!(matches!(err, ScanError::InvalidConfig(_)));
}

#[test]
fn chunk_exceeding_portion_names_premise4() {
    // K = 4 makes the chunk 4096 > the 1024-element portions of 8 GPUs.
    let problem = ProblemParams::new(13, 0);
    let err = ScanRequest::new(Add, problem)
        .proposal(Proposal::Mps)
        .devices(NodeConfig::new(8, 4, 2, 1).unwrap())
        .tuple(SplkTuple::kepler_premises(2))
        .run(&[0i32; 8192])
        .unwrap_err();
    match err {
        ScanError::InvalidConfig(msg) => {
            assert!(msg.contains("Eq. 2/3") || msg.contains("reduce K"), "{msg}")
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn hardware_overcommit_is_rejected() {
    // 8 GPUs per network do not exist on TSUBAME-KFC.
    let problem = ProblemParams::new(16, 0);
    let cfg = NodeConfig::new(8, 8, 1, 1).unwrap();
    let input = vec![0i32; 1 << 16];
    assert!(matches!(
        ScanRequest::new(Add, problem).proposal(Proposal::Mps).devices(cfg).run(&input),
        Err(ScanError::InvalidConfig(_))
    ));
}

#[test]
fn multinode_entry_points_enforce_m() {
    let problem = ProblemParams::new(14, 0);
    let input = vec![0i32; 1 << 14];
    let on_two_nodes = |proposal, cfg| {
        ScanRequest::new(Add, problem)
            .proposal(proposal)
            .devices(cfg)
            .fabric(Fabric::tsubame_kfc(2))
            .run(&input)
    };
    // Mps with M=2 refuses.
    assert!(on_two_nodes(Proposal::Mps, NodeConfig::new(2, 2, 1, 2).unwrap()).is_err());
    // MpsMultinode with M=1 refuses.
    assert!(on_two_nodes(Proposal::MpsMultinode, NodeConfig::new(2, 2, 1, 1).unwrap()).is_err());
}

#[test]
fn device_memory_exhaustion_is_reported() {
    // A device with 1 MiB of memory cannot hold a 4 MiB problem.
    let mut tiny = device();
    tiny.global_mem_bytes = 1 << 20;
    let problem = ProblemParams::new(20, 0);
    let input = vec![0i32; 1 << 20];
    let err = ScanRequest::new(Add, problem).device(tiny).run(&input).unwrap_err();
    assert!(matches!(err, ScanError::Sim(SimError::OutOfMemory { .. })), "{err}");
}

#[test]
fn raw_allocation_failure_reports_sizes() {
    let mut spec = device();
    spec.global_mem_bytes = 1024;
    let gpu = Gpu::new(0, spec);
    let err = gpu.alloc::<i32>(1024).unwrap_err();
    match err {
        SimError::OutOfMemory { requested, capacity, .. } => {
            assert_eq!(requested, 4096);
            assert_eq!(capacity, 1024);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn invalid_node_configs_are_rejected_up_front() {
    assert!(NodeConfig::new(6, 3, 2, 1).is_err(), "non-powers of two");
    assert!(NodeConfig::new(8, 2, 2, 1).is_err(), "W != Y*V");
    assert!(NodeConfig::new(0, 0, 0, 0).is_err());
}

#[test]
fn tuple_constraints_are_enforced() {
    use multigpu_scan::kernels::TupleError;
    assert!(matches!(
        SplkTuple::new(9, 1, 7, 0),
        Err(TupleError::SharedExceedsBlockElements { .. })
    ));
    assert!(matches!(SplkTuple::new(5, 3, 11, 0), Err(TupleError::BlockTooLarge(_))));
    assert!(matches!(SplkTuple::new(5, 7, 7, 0), Err(TupleError::TooManyRegisterElements(_))));
}

#[test]
fn evicting_the_last_gpu_is_a_config_error_not_a_panic() {
    let problem = ProblemParams::new(13, 0);
    let input = vec![1i32; problem.total_elems()];
    // Scan-SP's only GPU is evicted before the first sub-batch: there is
    // nothing left to replan onto.
    let plan = FaultPlan::new(7).evict_gpu(0, 0);
    let err = ScanRequest::new(Add, problem).faults(plan).run(&input).unwrap_err();
    match err {
        ScanError::InvalidConfig(msg) => {
            assert!(msg.contains("the last GPU"), "{msg}");
            assert!(msg.contains("no survivors"), "{msg}");
        }
        other => panic!("unexpected {other:?}"),
    }

    // Same for a multi-GPU group when the plan takes every member.
    let problem = ProblemParams::new(13, 1);
    let input = vec![1i32; problem.total_elems()];
    let err = ScanRequest::new(Add, problem)
        .proposal(Proposal::Mps)
        .devices(NodeConfig::new(2, 2, 1, 1).unwrap())
        .faults(FaultPlan::new(7).evict_gpu(0, 0).evict_gpu(1, 0))
        .run(&input)
        .unwrap_err();
    assert!(matches!(err, ScanError::InvalidConfig(_)), "{err}");
}

#[test]
fn exhausted_retry_budget_names_the_link_and_attempt_count() {
    use multigpu_scan::fabric::Resource;
    let problem = ProblemParams::new(13, 1);
    let input = vec![1i32; problem.total_elems()];
    // A permanently lost link fails every attempt; 2 retries = 3 attempts.
    let plan = FaultPlan::new(3)
        .lose_link(Resource::PcieNetwork { node: 0, network: 0 })
        .with_retry_budget(2);
    let err = ScanRequest::new(Add, problem)
        .proposal(Proposal::Mps)
        .devices(NodeConfig::new(2, 2, 1, 1).unwrap())
        .faults(plan)
        .run(&input)
        .unwrap_err();
    match &err {
        ScanError::Fault(FaultError::RetryBudgetExhausted { resource, attempts, .. }) => {
            assert_eq!(*resource, Resource::PcieNetwork { node: 0, network: 0 });
            assert_eq!(*attempts, 3);
        }
        other => panic!("unexpected {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("retry budget exhausted"), "{msg}");
    assert!(msg.contains("PcieNetwork"), "{msg}");
    assert!(msg.contains('3'), "{msg}");
}

#[test]
fn case1_requires_enough_problems() {
    let problem = ProblemParams::new(12, 0); // 1 problem, 4 GPUs
    let cfg = NodeConfig::new(4, 4, 1, 1).unwrap();
    let input = vec![0i32; 1 << 12];
    assert!(matches!(
        ScanRequest::new(Add, problem).proposal(Proposal::Case1).devices(cfg).run(&input),
        Err(ScanError::InvalidConfig(_))
    ));
}
