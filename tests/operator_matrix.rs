//! Operator-generic differential matrix: every proposal kind ×
//! {Add, Max, Mul, gated recurrence} is bit-compared against the CPU
//! reference, healthy and faulted (including eviction through the
//! largest-pow2 survivor replanner). All four operators here are exactly
//! associative over their element types — wrapping integer arithmetic is
//! a ring, max is a comparison, and integer affine composition is exact —
//! so the simulated pipeline must agree with the sequential reference to
//! the bit, for every combine tree the planners choose.
//!
//! The seed list honours `FAULT_SEEDS`, like `tests/fault_differential.rs`
//! (the CI `operator-matrix` job pins it).

use multigpu_scan::kernels::{reference_inclusive, AffinePair, GatedOp, Mul, Scannable};
use multigpu_scan::prelude::*;

fn seeds() -> Vec<u64> {
    match std::env::var("FAULT_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("FAULT_SEEDS must be comma-separated u64s"))
            .collect(),
        Err(_) => vec![1, 7, 42],
    }
}

fn pseudo_i32(n: usize, salt: u64) -> Vec<i32> {
    (0..n)
        .map(|i| {
            ((i as u64).wrapping_mul(2862933555777941757).wrapping_add(salt) % 251) as i32 - 125
        })
        .collect()
}

/// Affine pairs over `i64`: wrapping integer composition is exactly
/// associative, so gated-recurrence runs are bit-comparable.
fn pseudo_affine(n: usize, salt: u64) -> Vec<AffinePair<i64>> {
    (0..n)
        .map(|i| {
            let r = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(salt);
            AffinePair::new((r % 7) as i64 - 3, ((r >> 8) % 251) as i64 - 125)
        })
        .collect()
}

fn reference<T: Scannable, O: ScanOp<T>>(op: O, input: &[T], problem: ProblemParams) -> Vec<T> {
    let n = problem.problem_size();
    let mut out = Vec::with_capacity(input.len());
    for g in 0..problem.batch() {
        out.extend(reference_inclusive(op, &input[g * n..(g + 1) * n]));
    }
    out
}

/// Run one operator through every proposal kind and bit-compare against
/// the reference.
fn assert_all_proposals_match<T, O>(label: &str, op: O, make_input: impl Fn(usize, u64) -> Vec<T>)
where
    T: Scannable + PartialEq + std::fmt::Debug,
    O: ScanOp<T>,
{
    let run = |proposal, cfg: Option<(usize, usize, usize, usize)>, problem, input: &[T]| {
        let request = ScanRequest::new(op, problem).proposal(proposal);
        match cfg {
            Some((w, v, y, m)) => request.devices(NodeConfig::new(w, v, y, m).unwrap()),
            None => request,
        }
        .run(input)
        .unwrap()
        .data
    };

    // Sp — single GPU.
    let problem = ProblemParams::new(13, 2);
    let input = make_input(problem.total_elems(), 3);
    let out = run(Proposal::Sp, None, problem, &input);
    assert_eq!(out, reference(op, &input, problem), "{label}: Sp");

    // Mps — 4 GPUs, one PCIe network.
    let out = run(Proposal::Mps, Some((4, 4, 1, 1)), problem, &input);
    assert_eq!(out, reference(op, &input, problem), "{label}: Mps");

    // Mppc — two networks in parallel.
    let problem_pc = ProblemParams::new(13, 3);
    let input_pc = make_input(problem_pc.total_elems(), 5);
    let out = run(Proposal::Mppc, Some((4, 2, 2, 1)), problem_pc, &input_pc);
    assert_eq!(out, reference(op, &input_pc, problem_pc), "{label}: Mppc");

    // MpsMultinode — two nodes over InfiniBand.
    let problem_mn = ProblemParams::new(14, 1);
    let input_mn = make_input(problem_mn.total_elems(), 7);
    let out = run(Proposal::MpsMultinode, Some((2, 2, 1, 2)), problem_mn, &input_mn);
    assert_eq!(out, reference(op, &input_mn, problem_mn), "{label}: MpsMultinode");

    // Case1 — G > W small-problem batching.
    let out = run(Proposal::Case1, Some((4, 4, 1, 1)), problem_pc, &input_pc);
    assert_eq!(out, reference(op, &input_pc, problem_pc), "{label}: Case1");
}

/// Faulted MPS runs — throttle, degraded link, and the eviction that
/// drives the largest-pow2 survivor replanner — must stay bit-identical
/// to the fault-free reference and reproduce their schedules.
fn assert_faulted_runs_match<T, O>(label: &str, op: O, make_input: impl Fn(usize, u64) -> Vec<T>)
where
    T: Scannable + PartialEq + std::fmt::Debug,
    O: ScanOp<T>,
{
    let problem = ProblemParams::new(13, 2);
    let mps = ScanRequest::new(op, problem)
        .proposal(Proposal::Mps)
        .devices(NodeConfig::new(4, 4, 1, 1).unwrap())
        .pipeline(PipelinePolicy::batched_barrier(2));
    let input = make_input(problem.total_elems(), 11);
    let expected = reference(op, &input, problem);
    let net0 = multigpu_scan::fabric::Resource::PcieNetwork { node: 0, network: 0 };
    for seed in seeds() {
        for (name, plan) in [
            ("throttled", FaultPlan::new(seed).throttle_gpu(1, 3.0)),
            ("degraded-link", FaultPlan::new(seed).degrade_link(net0, 4.0)),
            ("evicted-gpu", FaultPlan::new(seed).evict_gpu(1, 0)),
        ] {
            let run = || mps.clone().faults(plan.clone()).run(&input).unwrap();
            let a = run();
            let b = run();
            assert_eq!(a.data, expected, "{label}: seed {seed} plan {name}");
            assert_eq!(
                a.report.makespan.to_bits(),
                b.report.makespan.to_bits(),
                "{label}: seed {seed} plan {name}: schedule must be reproducible"
            );
            if name == "evicted-gpu" {
                let report = a.faults.as_ref().unwrap();
                assert!(report.any_eviction(), "{label}: eviction must be recorded");
                assert_eq!(report.replans(), 1, "{label}: one survivor replan");
            }
        }
    }
}

#[test]
fn add_matrix_matches_reference() {
    assert_all_proposals_match("Add<i32>", Add, pseudo_i32);
}

#[test]
fn max_matrix_matches_reference() {
    assert_all_proposals_match("Max<i32>", Max, pseudo_i32);
}

#[test]
fn mul_matrix_matches_reference() {
    // Wrapping products overflow almost immediately at n = 2^13; both the
    // pipeline and the reference wrap identically (mod 2^32), so the bit
    // comparison is still exact.
    assert_all_proposals_match("Mul<i32>", Mul, pseudo_i32);
}

#[test]
fn gated_recurrence_matrix_matches_reference() {
    assert_all_proposals_match("GatedOp<i64>", GatedOp, pseudo_affine);
}

#[test]
fn add_faulted_runs_match_reference() {
    assert_faulted_runs_match("Add<i32>", Add, pseudo_i32);
}

#[test]
fn max_faulted_runs_match_reference() {
    assert_faulted_runs_match("Max<i32>", Max, pseudo_i32);
}

#[test]
fn mul_faulted_runs_match_reference() {
    assert_faulted_runs_match("Mul<i32>", Mul, pseudo_i32);
}

#[test]
fn gated_recurrence_faulted_runs_match_reference() {
    assert_faulted_runs_match("GatedOp<i64>", GatedOp, pseudo_affine);
}

/// The sharded row of the matrix: one mixed-operator serving window
/// pushed through 2-shard and 4-shard routers must reproduce the
/// single-loop server bit for bit, request by request — full kept
/// outputs, not just checksums. Placement scatters the same requests
/// differently at each shard count, so agreement here means scheduling
/// (placement, admission, stealing) never leaks into the answers.
#[test]
fn sharded_matrix_matches_single_loop() {
    let requests = {
        let mut spec = multigpu_scan::serve::WorkloadSpec::mixed_ops_for(21, 32);
        spec.n_range = (10, 11);
        spec.g_range = (0, 2);
        spec.tenants = 4;
        spec.generate()
    };
    let mut config = ServeConfig::new(Policy::Fifo, 21);
    config.keep_outputs = true;
    let single = Server::new(config).run(&requests).unwrap();

    for shards in [2usize, 4] {
        let mut config = RouterConfig::new(shards, Policy::Fifo, 21);
        config.keep_outputs = true;
        let sharded = Router::new(config).unwrap().run(&requests).unwrap();
        assert!(sharded.rejections.is_empty());
        let completions = sharded.completions();
        assert_eq!(completions.len(), single.completions.len(), "x{shards}");
        for c in completions {
            let id = c.request.id;
            let reference = single
                .completions
                .iter()
                .find(|s| s.request.id == id)
                .unwrap_or_else(|| panic!("x{shards}: request {id} missing from single loop"));
            assert_eq!(c.request.op, reference.request.op, "x{shards}: request {id}");
            assert_eq!(c.checksum, reference.checksum, "x{shards}: request {id}");
            assert_eq!(
                c.output.as_ref().expect("outputs kept"),
                reference.output.as_ref().expect("outputs kept"),
                "x{shards}: request {id} output diverges from the single-loop run"
            );
        }
    }
}

/// The gated recurrence solved on the multi-GPU pipeline *is* the
/// sequential recurrence: the scanned pair's `b` equals the naive loop
/// `x[t] = gate[t]·x[t-1] + token[t]` exactly (integer arithmetic).
#[test]
fn gated_scan_on_gpus_solves_the_recurrence() {
    let problem = ProblemParams::new(12, 0);
    let input = pseudo_affine(problem.total_elems(), 13);
    let out = ScanRequest::new(GatedOp, problem)
        .proposal(Proposal::Mps)
        .devices(NodeConfig::new(4, 4, 1, 1).unwrap())
        .run(&input)
        .unwrap();
    let mut x = 0i64;
    for (t, p) in input.iter().enumerate() {
        x = p.a.wrapping_mul(x).wrapping_add(p.b);
        assert_eq!(out.data[t].b, x, "element {t}");
    }
}
