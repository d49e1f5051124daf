//! Property-based tests of the scan skeletons against the sequential
//! reference, over arbitrary inputs and operators.

use gpu_sim::{BlockCtx, CostCounters, DeviceSpec, Gpu, LaunchConfig};
use proptest::prelude::*;
use skeletons::{
    block_reduce, block_scan_inclusive, lf, reference_inclusive, reference_reduce,
    warp_scan_exclusive, warp_scan_inclusive, Add, Cascade, Max, Min, ScanOp,
};

fn in_kernel<R>(warps: usize, mut f: impl FnMut(&mut BlockCtx<'_, i64>) -> R) -> (R, CostCounters) {
    let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
    let mut result = None;
    let cfg = LaunchConfig::new("prop", (1, 1), (warps * 32, 1)).shared_elems(32).regs(64);
    let stats = gpu.launch::<i64, _>(&cfg, |ctx| result = Some(f(ctx))).unwrap();
    (result.unwrap(), stats.counters)
}

proptest! {
    /// The LF network computes an inclusive scan for every length and
    /// operator.
    #[test]
    fn lf_network_matches_reference(data in prop::collection::vec(any::<i32>(), 0..600)) {
        let mut add = data.clone();
        lf::scan_inplace(Add, &mut add);
        prop_assert_eq!(add, reference_inclusive(Add, &data));
        let mut max = data.clone();
        lf::scan_inplace(Max, &mut max);
        prop_assert_eq!(max, reference_inclusive(Max, &data));
    }

    /// LF depth and work bounds hold for every size.
    #[test]
    fn lf_depth_and_work_bounds(n in 1usize..5000) {
        let d = lf::depth(n);
        prop_assert!(1usize << d >= n, "2^depth covers n");
        if n > 1 {
            prop_assert!(1usize << (d - 1) < n, "depth is minimal");
        }
        // Work ≤ N/2 · ceil(log2 N) with equality at powers of two.
        prop_assert!(lf::work(n) <= n.div_ceil(2) * d as usize);
    }

    /// Warp scans match the reference for arbitrary lanes.
    #[test]
    fn warp_scans_match_reference(vals in prop::array::uniform32(any::<i64>())) {
        let (inc, _) = in_kernel(1, |ctx| warp_scan_inclusive(ctx, Add, &vals));
        prop_assert_eq!(&inc[..], &reference_inclusive(Add, &vals)[..]);
        let (exc, _) = in_kernel(1, |ctx| warp_scan_exclusive(ctx, Min, &vals));
        prop_assert_eq!(&exc[..], &skeletons::reference_exclusive(Min, &vals)[..]);
    }

    /// Warp scan shuffles are exactly log2(32) regardless of data.
    #[test]
    fn warp_scan_cost_is_data_independent(vals in prop::array::uniform32(any::<i64>())) {
        let (_, c) = in_kernel(1, |ctx| warp_scan_inclusive(ctx, Add, &vals));
        prop_assert_eq!(c.shuffles, 5);
        prop_assert_eq!(c.shared_ops(), 0);
    }

    /// Block scan over any (warps, p) shape matches the reference.
    #[test]
    fn block_scan_matches_reference(
        warps in 1usize..=8,
        p_log in 0u32..=3,
        seed in any::<i64>(),
    ) {
        let p = 1usize << p_log;
        let n = warps * 32 * p;
        let data: Vec<i64> = (0..n)
            .map(|i| (i as i64 ^ seed).wrapping_mul(0x9E3779B97F4A7C15u64 as i64) % 1_000)
            .collect();
        let (out, _) = in_kernel(warps, |ctx| {
            let mut flat = vec![0; n];
            let total = block_scan_inclusive(ctx, Add, p, &data, &mut flat, None);
            (flat, total)
        });
        let expected = reference_inclusive(Add, &data);
        prop_assert_eq!(&out.0[..], &expected[..]);
        prop_assert_eq!(out.1, *expected.last().unwrap());
    }

    /// Block reduce equals the last element of a block scan.
    #[test]
    fn block_reduce_equals_scan_total(
        warps in 1usize..=4,
        seed in any::<i64>(),
    ) {
        let p = 4;
        let n = warps * 32 * p;
        let data: Vec<i64> = (0..n).map(|i| (i as i64).wrapping_add(seed) % 4096).collect();
        let (reduced, _) = in_kernel(warps, |ctx| block_reduce(ctx, Add, p, &data));
        prop_assert_eq!(reduced, reference_reduce(Add, &data));
    }

    /// Cascading block scans over K sub-tiles equals one scan of the
    /// concatenation — the Figure 5 invariant.
    #[test]
    fn cascade_composes_block_scans(
        k in 1usize..=6,
        seed in any::<i64>(),
    ) {
        let per_iter = 2 * 32 * 2; // 2 warps, P = 2
        let data: Vec<i64> =
            (0..k * per_iter).map(|i| (i as i64 ^ seed) % 777).collect();
        let (out, _) = in_kernel(2, |ctx| {
            let mut cascade = Cascade::new(Add);
            let mut flat = vec![0; data.len()];
            for it in 0..k {
                let window = it * per_iter..(it + 1) * per_iter;
                let carry = Some(cascade.carry());
                let src = &data[window.clone()];
                let total = block_scan_inclusive(ctx, Add, 2, src, &mut flat[window], carry);
                cascade.absorb(total);
            }
            (flat, cascade.finish())
        });
        let expected = reference_inclusive(Add, &data);
        prop_assert_eq!(&out.0[..], &expected[..]);
        prop_assert_eq!(out.1, *expected.last().unwrap());
    }

    /// Scan-operator laws: identity is neutral and combine is associative
    /// on sampled triples (the assumption every skeleton relies on).
    #[test]
    fn operator_laws(a in any::<i32>(), b in any::<i32>(), c in any::<i32>()) {
        fn check<O: ScanOp<i32>>(op: O, a: i32, b: i32, c: i32) {
            assert_eq!(op.combine(op.identity(), a), a);
            assert_eq!(op.combine(a, op.identity()), a);
            assert_eq!(
                op.combine(op.combine(a, b), c),
                op.combine(a, op.combine(b, c)),
                "associativity"
            );
            if let Some(back) = op.uncombine(op.combine(a, b), b) {
                assert_eq!(back, a, "uncombine inverts combine");
            }
        }
        check(Add, a, b, c);
        check(Max, a, b, c);
        check(Min, a, b, c);
    }
}
