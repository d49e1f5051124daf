//! Floating-point scan semantics.
//!
//! The GPU pipeline combines in tree order (per-lane serial scans, then
//! shuffle trees, then cascade carries), which is *not* the sequential
//! left-to-right order of the CPU reference. For integers (wrapping
//! arithmetic) the two orders agree exactly; for floats they agree only up
//! to rounding — the same caveat every real GPU scan library documents.
//! These tests pin down both facts.

use multigpu_scan::prelude::*;

fn device() -> DeviceSpec {
    DeviceSpec::tesla_k80()
}

fn tuple_for(problem: &ProblemParams) -> SplkTuple {
    let base = premises::derive_tuple(&device(), 4, 0);
    base.with_k(premises::default_k(&device(), problem, &base, 1).expect("feasible"))
}

#[test]
fn f64_scan_matches_reference_within_rounding() {
    let problem = ProblemParams::new(13, 2);
    let input: Vec<f64> = (0..problem.total_elems())
        .map(|i| (((i as i64).wrapping_mul(48271) % 1000) as f64) * 0.001 - 0.5)
        .collect();
    let out = ScanRequest::new(Add, problem).tuple(tuple_for(&problem)).run(&input).unwrap();
    let n = problem.problem_size();
    for g in 0..problem.batch() {
        let expected = multigpu_scan::kernels::reference_inclusive(Add, &input[g * n..(g + 1) * n]);
        for (i, (&got, &want)) in out.data[g * n..(g + 1) * n].iter().zip(&expected).enumerate() {
            let tol = 1e-9 * (i as f64 + 1.0).max(1.0);
            assert!(
                (got - want).abs() <= tol.max(want.abs() * 1e-12),
                "problem {g} element {i}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn f64_max_scan_is_exact() {
    // Max is order-insensitive, so float max scans are bit-exact.
    let problem = ProblemParams::new(12, 1);
    let input: Vec<f64> =
        (0..problem.total_elems()).map(|i| ((i * 2654435761) % 10007) as f64 - 5000.0).collect();
    let out = ScanRequest::new(Max, problem).tuple(tuple_for(&problem)).run(&input).unwrap();
    let n = problem.problem_size();
    for g in 0..problem.batch() {
        let expected = multigpu_scan::kernels::reference_inclusive(Max, &input[g * n..(g + 1) * n]);
        assert_eq!(&out.data[g * n..(g + 1) * n], &expected[..]);
    }
}

#[test]
fn f32_scan_total_is_stable_across_k() {
    // Different K values reorder the combines differently; the totals must
    // still agree within f32 rounding.
    let problem = ProblemParams::single(14);
    let input: Vec<f32> = (0..problem.total_elems()).map(|i| ((i % 997) as f32) * 1e-3).collect();
    let base = premises::derive_tuple(&device(), 4, 0);
    let space = premises::k_search_space(&device(), &problem, &base, 1);
    assert!(space.len() >= 2);
    let totals: Vec<f32> = space
        .iter()
        .map(|&k| {
            *ScanRequest::new(Add, problem)
                .tuple(base.with_k(k))
                .run(&input)
                .unwrap()
                .data
                .last()
                .unwrap()
        })
        .collect();
    let reference: f64 = input.iter().map(|&v| v as f64).sum();
    for &t in &totals {
        let rel = ((t as f64) - reference).abs() / reference.abs();
        assert!(rel < 1e-4, "total {t} vs reference {reference}");
    }
}

/// The gated recurrence `x[t] = gate[t]·x[t-1] + token[t]` as an
/// affine-pair scan over f64: the pipeline's tree order agrees with the
/// naive sequential loop within rounding. Gates sit near 1.0 (the
/// SSM-style regime), so products stay well conditioned across the
/// whole problem.
#[test]
fn gated_f64_recurrence_matches_naive_loop_within_rounding() {
    let problem = ProblemParams::new(12, 1);
    let input: Vec<AffinePair<f64>> = (0..problem.total_elems())
        .map(|i| {
            let r = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(1);
            let gate = 0.999 + 0.001 * ((r % 1000) as f64 / 1000.0);
            let token = ((r >> 10) % 257) as f64 / 128.0 - 1.0;
            AffinePair::new(gate, token)
        })
        .collect();
    let out = ScanRequest::new(GatedOp, problem).tuple(tuple_for(&problem)).run(&input).unwrap();
    let n = problem.problem_size();
    for g in 0..problem.batch() {
        let mut x = 0.0f64;
        for t in 0..n {
            let p = input[g * n + t];
            x = p.a * x + p.b;
            let got = out.data[g * n + t].b;
            assert!(
                (got - x).abs() <= 1e-9 * x.abs().max(1.0),
                "problem {g} step {t}: {got} vs naive {x}"
            );
        }
    }
}

/// Over integers the same affine composition is exactly associative, so
/// the gated scan is bit-identical to the sequential recurrence even
/// when the wrapping products overflow.
#[test]
fn gated_integer_recurrence_is_exact() {
    let problem = ProblemParams::new(12, 2);
    let input: Vec<AffinePair<i64>> = (0..problem.total_elems())
        .map(|i| {
            let r = (i as u64).wrapping_mul(2862933555777941757).wrapping_add(9);
            AffinePair::new((r % 1000) as i64 - 500, ((r >> 16) % 1000) as i64 - 500)
        })
        .collect();
    let out = ScanRequest::new(GatedOp, problem).tuple(tuple_for(&problem)).run(&input).unwrap();
    let n = problem.problem_size();
    for g in 0..problem.batch() {
        let mut x = 0i64;
        for t in 0..n {
            let p = input[g * n + t];
            x = p.a.wrapping_mul(x).wrapping_add(p.b);
            assert_eq!(out.data[g * n + t].b, x, "problem {g} step {t}");
        }
    }
}

#[test]
fn integer_scans_are_exact_regardless_of_order() {
    // The wrapping-integer contract: tree order == sequential order, bit
    // for bit, even at overflow.
    let problem = ProblemParams::new(13, 1);
    let input: Vec<i32> =
        (0..problem.total_elems()).map(|i| (i as i32).wrapping_mul(0x7FFF_FFC3)).collect();
    let out = ScanRequest::new(Add, problem).tuple(tuple_for(&problem)).run(&input).unwrap();
    multigpu_scan::scan::verify::verify_batch(Add, problem, &input, &out.data).unwrap();
}
