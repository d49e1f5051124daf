//! Integration tests for the exclusive-scan variants.

use multigpu_scan::prelude::*;
use multigpu_scan::scan::verify::{verify_batch_kind, Mismatch};
use multigpu_scan::scan::ScanKind;

fn pseudo(n: usize, seed: i64) -> Vec<i32> {
    (0..n).map(|i| ((i as i64 * 16807 + seed) % 401) as i32 - 200).collect()
}

fn device() -> DeviceSpec {
    DeviceSpec::tesla_k80()
}

fn tuple_for(problem: &ProblemParams, parts: usize) -> SplkTuple {
    let base = premises::derive_tuple(&device(), 4, 0);
    base.with_k(premises::default_k(&device(), problem, &base, parts).expect("feasible"))
}

fn check_exclusive(problem: ProblemParams, input: &[i32], output: &[i32]) -> Result<(), Mismatch> {
    verify_batch_kind(Add, problem, input, output, ScanKind::Exclusive)
}

#[test]
fn exclusive_sp_matches_reference() {
    for (n, g) in [(10u32, 0u32), (12, 2), (14, 1), (13, 4)] {
        let problem = ProblemParams::new(n, g);
        let input = pseudo(problem.total_elems(), n as i64);
        let out = ScanRequest::new(Add, problem)
            .tuple(tuple_for(&problem, 1))
            .exclusive()
            .run(&input)
            .unwrap();
        check_exclusive(problem, &input, &out.data).unwrap_or_else(|m| panic!("n={n} g={g}: {m}"));
        assert!(out.report.label.contains("exclusive"));
    }
}

#[test]
fn exclusive_starts_each_problem_at_identity() {
    let problem = ProblemParams::new(12, 3);
    let input = pseudo(problem.total_elems(), 5);
    let out = ScanRequest::new(Add, problem)
        .tuple(tuple_for(&problem, 1))
        .exclusive()
        .run(&input)
        .unwrap();
    let n = problem.problem_size();
    for g in 0..problem.batch() {
        assert_eq!(out.data[g * n], 0, "problem {g} must start at the identity");
    }
}

#[test]
fn exclusive_mps_matches_reference() {
    let problem = ProblemParams::new(14, 2);
    let input = pseudo(problem.total_elems(), 9);
    for (w, v, y) in [(2usize, 2usize, 1usize), (4, 4, 1), (8, 4, 2)] {
        let cfg = NodeConfig::new(w, v, y, 1).unwrap();
        let out = ScanRequest::new(Add, problem)
            .proposal(Proposal::Mps)
            .devices(cfg)
            .tuple(tuple_for(&problem, w))
            .exclusive()
            .run(&input)
            .unwrap();
        check_exclusive(problem, &input, &out.data).unwrap_or_else(|m| panic!("W={w}: {m}"));
    }
}

#[test]
fn exclusive_is_shifted_inclusive_for_add() {
    let problem = ProblemParams::new(13, 1);
    let input = pseudo(problem.total_elems(), 21);
    let t = tuple_for(&problem, 1);
    let inc = ScanRequest::new(Add, problem).tuple(t).run(&input).unwrap();
    let exc = ScanRequest::new(Add, problem).tuple(t).exclusive().run(&input).unwrap();
    let n = problem.problem_size();
    for g in 0..problem.batch() {
        for i in 1..n {
            assert_eq!(exc.data[g * n + i], inc.data[g * n + i - 1]);
        }
    }
}

#[test]
fn exclusive_works_with_non_invertible_max() {
    let problem = ProblemParams::new(12, 1);
    let input = pseudo(problem.total_elems(), 33);
    let out = ScanRequest::new(Max, problem)
        .tuple(tuple_for(&problem, 1))
        .exclusive()
        .run(&input)
        .unwrap();
    verify_batch_kind(Max, problem, &input, &out.data, ScanKind::Exclusive).unwrap();
    let n = problem.problem_size();
    assert_eq!(out.data[0], i32::MIN, "max identity seeds the exclusive scan");
    assert_eq!(out.data[n], i32::MIN);
}

/// The multi-GPU pipeline also takes the shifted-propagation path for
/// non-invertible operators: an exclusive max-scan across four GPUs must
/// match `reference_exclusive`, seeding every problem with the identity.
#[test]
fn exclusive_mps_works_with_non_invertible_max() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems(), 17);
    let cfg = NodeConfig::new(4, 4, 1, 1).unwrap();
    let out = ScanRequest::new(Max, problem)
        .proposal(Proposal::Mps)
        .devices(cfg)
        .tuple(tuple_for(&problem, 4))
        .exclusive()
        .run(&input)
        .unwrap();
    verify_batch_kind(Max, problem, &input, &out.data, ScanKind::Exclusive)
        .unwrap_or_else(|m| panic!("{m}"));
    let n = problem.problem_size();
    for g in 0..problem.batch() {
        assert_eq!(out.data[g * n], i32::MIN, "problem {g} starts at the max identity");
    }
}

/// MP-PC and Case 1 reach Stage 3 through the same group pipeline as Mps,
/// so they take exclusive semantics too — for invertible and
/// non-invertible operators alike.
#[test]
fn exclusive_mppc_and_case1_match_reference() {
    let problem = ProblemParams::new(13, 3);
    let input = pseudo(problem.total_elems(), 13);
    let runs = [
        (Proposal::Mppc, NodeConfig::new(8, 4, 2, 1).unwrap()),
        (Proposal::Mppc, NodeConfig::new(4, 2, 2, 1).unwrap()),
        (Proposal::Case1, NodeConfig::new(4, 4, 1, 1).unwrap()),
    ];
    for (proposal, cfg) in runs {
        let sum = ScanRequest::new(Add, problem).proposal(proposal).devices(cfg).exclusive();
        check_exclusive(problem, &input, &sum.run(&input).unwrap().data)
            .unwrap_or_else(|m| panic!("{proposal:?} {cfg:?} add: {m}"));
        let max = ScanRequest::new(Max, problem).proposal(proposal).devices(cfg).exclusive();
        verify_batch_kind(
            Max,
            problem,
            &input,
            &max.run(&input).unwrap().data,
            ScanKind::Exclusive,
        )
        .unwrap_or_else(|m| panic!("{proposal:?} {cfg:?} max: {m}"));
    }
}

/// Multi-node Scan-MPS reaches Stage 3 through the same in-place kernel as
/// every other proposal, so it scans exclusively too — for invertible and
/// non-invertible operators, healthy and under link-fault and throttle
/// plans (a multi-node plan cannot evict).
#[test]
fn exclusive_multinode_matches_reference() {
    let problem = ProblemParams::new(14, 1);
    let input = pseudo(problem.total_elems(), 31);
    let ib = multigpu_scan::fabric::Resource::ib(0, 1);
    let plans = [
        None,
        Some(FaultPlan::none()),
        Some(FaultPlan::new(7).degrade_link(ib, 6.0)),
        Some(FaultPlan::new(7).transient_link(ib, 0.3).with_retry_budget(10)),
        Some(FaultPlan::new(7).throttle_gpu(8, 2.0)),
    ];
    fn request<O: Copy>(op: O, cfg: NodeConfig, plan: &Option<FaultPlan>) -> ScanRequest<O> {
        let req = ScanRequest::new(op, ProblemParams::new(14, 1))
            .proposal(Proposal::MpsMultinode)
            .devices(cfg)
            .fabric(Fabric::tsubame_kfc(2))
            .exclusive();
        match plan {
            Some(plan) => req.faults(plan.clone()),
            None => req,
        }
    }
    for cfg in [NodeConfig::new(2, 2, 1, 2).unwrap(), NodeConfig::new(4, 4, 1, 2).unwrap()] {
        for plan in &plans {
            let sum = request(Add, cfg, plan).run(&input).unwrap();
            check_exclusive(problem, &input, &sum.data)
                .unwrap_or_else(|m| panic!("{cfg:?} {plan:?} add: {m}"));
            let max = request(Max, cfg, plan).run(&input).unwrap();
            verify_batch_kind(Max, problem, &input, &max.data, ScanKind::Exclusive)
                .unwrap_or_else(|m| panic!("{cfg:?} {plan:?} max: {m}"));
            assert_eq!(max.data[0], i32::MIN, "max identity seeds the exclusive scan");
        }
    }
}

/// A fault plan is one more input to each proposal's body, so faulted
/// runs scan exclusively too: Mps at W=4 and W=2 and MP-PC at W=8 V=4 and
/// W=4 V=2 under every single-node plan of the fault differential matrix,
/// an MP-PC max-scan that loses a GPU, and a throttled Sp.
#[test]
fn exclusive_faulted_runs_match_reference() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems(), 29);
    let net0 = multigpu_scan::fabric::Resource::PcieNetwork { node: 0, network: 0 };
    for seed in [1u64, 7, 42] {
        let plans = [
            FaultPlan::none(),
            FaultPlan::new(seed).degrade_link(net0, 4.0),
            FaultPlan::new(seed).transient_link(net0, 0.3).with_retry_budget(10),
            FaultPlan::new(seed).throttle_gpu(1, 3.0),
            FaultPlan::new(seed).evict_gpu(1, 0),
            FaultPlan::new(seed).evict_gpu(1, 0).throttle_gpu(0, 2.0),
        ];
        let runs = [
            (Proposal::Mps, NodeConfig::new(4, 4, 1, 1).unwrap()),
            (Proposal::Mps, NodeConfig::new(2, 2, 1, 1).unwrap()),
            (Proposal::Mppc, NodeConfig::new(8, 4, 2, 1).unwrap()),
            (Proposal::Mppc, NodeConfig::new(4, 2, 2, 1).unwrap()),
        ];
        for (i, plan) in plans.into_iter().enumerate() {
            for (proposal, cfg) in runs {
                let out = ScanRequest::new(Add, problem)
                    .proposal(proposal)
                    .devices(cfg)
                    .exclusive()
                    .faults(plan.clone())
                    .run(&input)
                    .unwrap();
                check_exclusive(problem, &input, &out.data)
                    .unwrap_or_else(|m| panic!("seed {seed} plan {i} {proposal:?} {cfg:?}: {m}"));
            }
        }
        let evicted = ScanRequest::new(Max, problem)
            .proposal(Proposal::Mppc)
            .devices(NodeConfig::new(4, 2, 2, 1).unwrap())
            .exclusive()
            .faults(FaultPlan::new(seed).evict_gpu(4, 0))
            .run(&input)
            .unwrap();
        verify_batch_kind(Max, problem, &input, &evicted.data, ScanKind::Exclusive)
            .unwrap_or_else(|m| panic!("seed {seed} evicted MP-PC max: {m}"));
        let throttled = ScanRequest::new(Add, problem)
            .exclusive()
            .faults(FaultPlan::new(seed).throttle_gpu(0, 3.0))
            .run(&input)
            .unwrap();
        check_exclusive(problem, &input, &throttled.data)
            .unwrap_or_else(|m| panic!("seed {seed} throttled Sp: {m}"));
    }
}

/// Float addition is invertible only approximately: `(a + b) - b` can
/// differ from `a` in the low bits, so the §3.1 subtract-the-element
/// trick would corrupt an exclusive f64 scan. The pipeline must instead
/// shift-propagate. Within one cascade pass (no chunk boundary) that
/// makes the exclusive scan *bit-equal* to the shifted inclusive scan —
/// not merely close — which is exactly what the uncombine trick breaks.
#[test]
fn exclusive_f64_is_bit_equal_to_shifted_inclusive_within_a_pass() {
    let problem = ProblemParams::new(10, 2);
    // 0.1 is inexact in binary; sums of these provoke low-bit rounding.
    let input: Vec<f64> =
        (0..problem.total_elems()).map(|i| ((i % 97) as f64 - 48.0) * 0.1 + 0.001).collect();
    let t = tuple_for(&problem, 1);
    let inc = ScanRequest::new(Add, problem).tuple(t).run(&input).unwrap();
    let exc = ScanRequest::new(Add, problem).tuple(t).exclusive().run(&input).unwrap();
    let n = problem.problem_size();
    for g in 0..problem.batch() {
        assert_eq!(exc.data[g * n].to_bits(), 0f64.to_bits(), "identity head");
        for i in 1..n {
            assert_eq!(
                exc.data[g * n + i].to_bits(),
                inc.data[g * n + i - 1].to_bits(),
                "problem {g} element {i}: exclusive must be the shifted inclusive, bit-for-bit"
            );
        }
    }
}

/// Across cascade chunk boundaries the carry folds warp totals in a
/// different association than the inclusive data path, so float bits may
/// legitimately differ there — but the exclusive scan must still match
/// the sequential reference within rounding, and every problem must
/// start at exactly `0.0`.
#[test]
fn exclusive_f64_matches_reference_within_rounding_across_passes() {
    let problem = ProblemParams::new(13, 1);
    let input: Vec<f64> =
        (0..problem.total_elems()).map(|i| ((i % 97) as f64 - 48.0) * 0.1 + 0.001).collect();
    let exc = ScanRequest::new(Add, problem)
        .tuple(tuple_for(&problem, 1))
        .exclusive()
        .run(&input)
        .unwrap();
    let n = problem.problem_size();
    for g in 0..problem.batch() {
        assert_eq!(exc.data[g * n].to_bits(), 0f64.to_bits(), "identity head");
        let expected = multigpu_scan::kernels::reference_exclusive(Add, &input[g * n..(g + 1) * n]);
        for (i, (&got, &want)) in exc.data[g * n..(g + 1) * n].iter().zip(&expected).enumerate() {
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "problem {g} element {i}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn exclusive_costs_match_inclusive_traffic() {
    // The exclusive form must not add memory passes.
    let problem = ProblemParams::new(16, 0);
    let input = pseudo(problem.total_elems(), 3);
    let t = tuple_for(&problem, 1);
    let inc = ScanRequest::new(Add, problem).tuple(t).run(&input).unwrap();
    let exc = ScanRequest::new(Add, problem).tuple(t).exclusive().run(&input).unwrap();
    let ratio = exc.report.seconds() / inc.report.seconds();
    assert!((0.9..1.1).contains(&ratio), "exclusive within 10% of inclusive, got {ratio}");
}
