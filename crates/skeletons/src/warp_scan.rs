//! Warp-level scan and reduction via shuffle instructions.
//!
//! §3.1: "each warp computes warpSize elements using shuffle instructions
//! and the Ladner-Fischer access pattern". The scan walks the LF network of
//! [`crate::lf`] with one `shfl` per step — five steps for a 32-lane warp —
//! keeping all traffic in registers so shared memory is only needed for the
//! one partial sum per warp (`s ≤ 5`).

use gpu_sim::{BlockCtx, DeviceCopy, LaneArray, WARP_SIZE};

use crate::op::ScanOp;

/// Inclusive scan of one warp's lane values using the Ladner-Fischer
/// shuffle pattern. Costs `log2(32) = 5` shuffles and 5 warp ALU ops.
///
/// Each step runs in place: every upper-half lane of a sub-block combines
/// the sub-block's pivot (the last lane of its lower half) into itself. A
/// pivot lies in a lower half, so no lane of its own step writes it.
pub fn warp_scan_inclusive<T: DeviceCopy, O: ScanOp<T>>(
    ctx: &mut BlockCtx<'_, T>,
    op: O,
    vals: &LaneArray<T>,
) -> LaneArray<T> {
    let mut v = *vals;
    for t in 0..WARP_SIZE.trailing_zeros() {
        let half = 1usize << t;
        for block in v.chunks_exact_mut(2 * half) {
            let pivot = block[half - 1];
            for x in &mut block[half..] {
                *x = op.combine(pivot, *x);
            }
        }
        ctx.charge_shuffles(1);
        ctx.alu(1);
    }
    v
}

/// Exclusive scan of one warp's lane values.
///
/// For invertible operators this uses the paper's trick — "the initial
/// value is subtracted from the scanned value" (§3.1) — costing no extra
/// shuffle. For non-invertible operators it pays the extra communication
/// step the paper avoids: one `shfl_up` to shift lanes right.
pub fn warp_scan_exclusive<T: DeviceCopy, O: ScanOp<T>>(
    ctx: &mut BlockCtx<'_, T>,
    op: O,
    vals: &LaneArray<T>,
) -> LaneArray<T> {
    warp_scan_exclusive_with_total(ctx, op, vals).0
}

/// Exclusive scan that also returns the warp total (the lane-31 inclusive
/// value), which the block skeleton publishes to shared memory. Costs the
/// same as [`warp_scan_exclusive`].
pub fn warp_scan_exclusive_with_total<T: DeviceCopy, O: ScanOp<T>>(
    ctx: &mut BlockCtx<'_, T>,
    op: O,
    vals: &LaneArray<T>,
) -> (LaneArray<T>, T) {
    let inclusive = warp_scan_inclusive(ctx, op, vals);
    let total = inclusive[WARP_SIZE - 1];
    let exclusive = if op.uncombine(op.identity(), op.identity()).is_some() {
        ctx.alu(1);
        std::array::from_fn(|i| {
            op.uncombine(inclusive[i], vals[i]).expect("operator reported invertible")
        })
    } else {
        let mut out = ctx.shfl_up(&inclusive, 1);
        out[0] = op.identity();
        out
    };
    (exclusive, total)
}

/// Warp-level reduction: lane 0's value after the 5 `shfl_xor`
/// butterfly steps, the combined value of all 32 lanes. Costs 5 shuffles
/// and 5 warp ALU ops.
///
/// Only the combines lane 0 depends on run: at step `t`, lanes at
/// multiples of `2^(t+1)` absorb the lane `2^t` above them. Those lanes
/// are the butterfly's left operands in every step so far, so they hold
/// exactly what the butterfly leaves in them.
pub fn warp_reduce<T: DeviceCopy, O: ScanOp<T>>(
    ctx: &mut BlockCtx<'_, T>,
    op: O,
    vals: &LaneArray<T>,
) -> T {
    let mut v = *vals;
    for t in 0..WARP_SIZE.trailing_zeros() {
        let half = 1usize << t;
        for i in (0..WARP_SIZE).step_by(2 * half) {
            v[i] = op.combine(v[i], v[i + half]);
        }
        ctx.charge_shuffles(1);
        ctx.alu(1);
    }
    v[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{reference_exclusive, reference_inclusive, reference_reduce, Add, Max, Mul};
    use gpu_sim::{CostCounters, DeviceSpec, Gpu, LaunchConfig};

    /// Run `f` inside a single-block launch and return its result plus the
    /// launch counters.
    fn in_kernel<T: DeviceCopy, R>(f: impl FnMut(&mut BlockCtx<'_, T>) -> R) -> (R, CostCounters) {
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let mut f = f;
        let mut result = None;
        let cfg = LaunchConfig::new("test", (1, 1), (32, 1)).shared_elems(32).regs(32);
        let stats = gpu
            .launch::<T, _>(&cfg, |ctx| {
                result = Some(f(ctx));
            })
            .unwrap();
        (result.unwrap(), stats.counters)
    }

    fn lanes(vals: impl Fn(usize) -> i32) -> LaneArray<i32> {
        std::array::from_fn(vals)
    }

    #[test]
    fn inclusive_matches_reference() {
        let input = lanes(|i| (i as i32 * 7) % 13 - 5);
        let (out, counters) = in_kernel(|ctx| warp_scan_inclusive(ctx, Add, &input));
        let expected = reference_inclusive(Add, &input);
        assert_eq!(&out[..], &expected[..]);
        assert_eq!(counters.shuffles, 5, "LF warp scan is exactly 5 shuffle steps");
    }

    #[test]
    fn inclusive_max_matches_reference() {
        let input = lanes(|i| ((i as i32 * 31) % 17) - 8);
        let (out, _) = in_kernel(|ctx| warp_scan_inclusive(ctx, Max, &input));
        let expected = reference_inclusive(Max, &input);
        assert_eq!(&out[..], &expected[..]);
    }

    #[test]
    fn exclusive_add_uses_no_extra_shuffle() {
        let input = lanes(|i| i as i32 + 1);
        let (out, counters) = in_kernel(|ctx| warp_scan_exclusive(ctx, Add, &input));
        let expected = reference_exclusive(Add, &input);
        assert_eq!(&out[..], &expected[..]);
        assert_eq!(
            counters.shuffles, 5,
            "invertible exclusive scan must not pay the extra communication step (§3.1)"
        );
    }

    #[test]
    fn exclusive_max_pays_shift_step() {
        let input = lanes(|i| ((i as i32 * 13) % 29) - 3);
        let (out, counters) = in_kernel(|ctx| warp_scan_exclusive(ctx, Max, &input));
        let expected = reference_exclusive(Max, &input);
        assert_eq!(&out[..], &expected[..]);
        assert_eq!(counters.shuffles, 6, "non-invertible op needs the shfl_up shift");
    }

    #[test]
    fn exclusive_mul_with_wrapping() {
        let input = lanes(|i| (i as i32 % 5) + 1);
        let (out, _) = in_kernel(|ctx| warp_scan_exclusive(ctx, Mul, &input));
        let expected = reference_exclusive(Mul, &input);
        assert_eq!(&out[..], &expected[..]);
    }

    #[test]
    fn reduce_matches_reference() {
        let input = lanes(|i| i as i32 * i as i32 - 40);
        let (out, counters) = in_kernel(|ctx| warp_reduce(ctx, Add, &input));
        assert_eq!(out, reference_reduce(Add, &input));
        assert_eq!(counters.shuffles, 5);
    }

    #[test]
    fn reduce_max_finds_maximum() {
        let input = lanes(|i| ((i as i32).wrapping_mul(2654435761u32 as i32) % 101) - 50);
        let (out, _) = in_kernel(|ctx| warp_reduce(ctx, Max, &input));
        assert_eq!(out, *input.iter().max().unwrap());
    }

    #[test]
    fn inclusive_scan_of_identities_is_identities() {
        let input = lanes(|_| 0);
        let (out, _) = in_kernel(|ctx| warp_scan_inclusive(ctx, Add, &input));
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn wrapping_does_not_panic_in_warp_scan() {
        let input = lanes(|_| i32::MAX / 4);
        let (out, _) = in_kernel(|ctx| warp_scan_inclusive(ctx, Add, &input));
        let expected = reference_inclusive(Add, &input);
        assert_eq!(&out[..], &expected[..]);
    }
}
