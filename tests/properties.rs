//! Property-based integration tests (proptest): arbitrary data, operators
//! and configurations against the sequential reference.

use multigpu_scan::prelude::*;
use multigpu_scan::scan::verify::verify_batch;
use proptest::prelude::*;

fn device() -> DeviceSpec {
    DeviceSpec::tesla_k80()
}

fn tuple_for(problem: &ProblemParams, parts: usize, k_pref: u32) -> Option<SplkTuple> {
    let base = premises::derive_tuple(&device(), 4, 0);
    let space = premises::k_search_space(&device(), problem, &base, parts);
    if space.is_empty() {
        return None;
    }
    let k = space[(k_pref as usize) % space.len()];
    Some(base.with_k(k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scan-SP matches the reference for arbitrary data, shapes and K.
    #[test]
    fn scan_sp_matches_reference(
        n in 10u32..15,
        g in 0u32..4,
        k_pref in 0u32..8,
        seed in any::<i64>(),
    ) {
        let problem = ProblemParams::new(n, g);
        let Some(tuple) = tuple_for(&problem, 1, k_pref) else { return Ok(()); };
        let input: Vec<i32> = (0..problem.total_elems())
            .map(|i| ((i as i64).wrapping_mul(6364136223846793005).wrapping_add(seed) % 1000) as i32)
            .collect();
        let out = ScanRequest::new(Add, problem).tuple(tuple).run(&input).unwrap();
        prop_assert!(verify_batch(Add, problem, &input, &out.data).is_ok());
    }

    /// Scan-MPS matches the reference for every admissible W.
    #[test]
    fn scan_mps_matches_reference(
        n in 12u32..15,
        g in 0u32..3,
        w_sel in 0usize..4,
        seed in any::<i64>(),
    ) {
        let configs = [(1usize, 1usize, 1usize), (2, 2, 1), (4, 4, 1), (8, 4, 2)];
        let (w, v, y) = configs[w_sel];
        let problem = ProblemParams::new(n, g);
        let Some(tuple) = tuple_for(&problem, w, 0) else { return Ok(()); };
        let input: Vec<i32> = (0..problem.total_elems())
            .map(|i| ((i as i64 ^ seed).wrapping_mul(2654435761) % 100) as i32)
            .collect();
        let out = ScanRequest::new(Add, problem)
            .proposal(Proposal::Mps)
            .devices(NodeConfig::new(w, v, y, 1).unwrap())
            .tuple(tuple)
            .run(&input)
            .unwrap();
        prop_assert!(verify_batch(Add, problem, &input, &out.data).is_ok());
    }

    /// Max-scan (non-invertible operator) is exact across the pipeline.
    #[test]
    fn max_scan_matches_reference(
        n in 10u32..14,
        g in 0u32..3,
        seed in any::<i64>(),
    ) {
        let problem = ProblemParams::new(n, g);
        let Some(tuple) = tuple_for(&problem, 1, 1) else { return Ok(()); };
        let input: Vec<i32> = (0..problem.total_elems())
            .map(|i| ((i as i64).wrapping_add(seed).wrapping_mul(48271) % 10_000) as i32)
            .collect();
        let out = ScanRequest::new(Max, problem).tuple(tuple).run(&input).unwrap();
        prop_assert!(verify_batch(Max, problem, &input, &out.data).is_ok());
    }

    /// Wrapping behaviour: extreme values never panic and match the
    /// wrapping reference.
    #[test]
    fn extreme_values_wrap_like_cuda(
        n in 10u32..13,
        fill in prop::sample::select(vec![i32::MAX, i32::MIN, i32::MAX / 2, -1, 0]),
    ) {
        let problem = ProblemParams::single(n);
        let Some(tuple) = tuple_for(&problem, 1, 0) else { return Ok(()); };
        let input = vec![fill; problem.total_elems()];
        let out = ScanRequest::new(Add, problem).tuple(tuple).run(&input).unwrap();
        prop_assert!(verify_batch(Add, problem, &input, &out.data).is_ok());
    }

    /// The K parameter never affects results, only performance.
    #[test]
    fn k_is_result_invariant(
        n in 13u32..15,
        seed in any::<i64>(),
    ) {
        let problem = ProblemParams::single(n);
        let base = premises::derive_tuple(&device(), 4, 0);
        let space = premises::k_search_space(&device(), &problem, &base, 1);
        prop_assume!(space.len() >= 2);
        let input: Vec<i32> = (0..problem.total_elems())
            .map(|i| ((i as i64 ^ seed) % 500) as i32)
            .collect();
        let first = ScanRequest::new(Add, problem).tuple(base.with_k(space[0])).run(&input)
            .unwrap()
            .data;
        for &k in &space[1..] {
            let other = ScanRequest::new(Add, problem).tuple(base.with_k(k)).run(&input).unwrap().data;
            prop_assert_eq!(&first, &other);
        }
    }
}
