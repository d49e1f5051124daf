//! Block-level scan: the full Figure 4 pipeline.
//!
//! One cascade iteration of the paper's kernels scans `P · Lx` elements with
//! a block of `Lx` threads:
//!
//! 1. each lane scans its `P` register elements (red phase of Figure 4);
//! 2. each warp scans its 32 lane totals with the LF shuffle pattern and
//!    combines the exclusive prefix back into the lanes' registers;
//! 3. lane 31 of each warp publishes the warp total to shared memory — one
//!    element per warp, which is why `s ≤ 5`;
//! 4. a single warp scans the (at most 32) warp totals, again with
//!    shuffles, and writes the exclusive warp offsets back;
//! 5. every warp combines its offset into all of its elements.
//!
//! The scans run inside the iteration's output window: each warp loads its
//! `32 · P` input elements into its slot of the window, a [`RegTile`] that
//! stands in for its registers, and every phase works there in place. The
//! reduction reads its input where it lies. Neither keeps a copy.

use gpu_sim::{BlockCtx, DeviceCopy, LaneArray, WARP_SIZE};

use crate::op::ScanOp;
use crate::reg_scan::RegTile;
use crate::warp_scan::{warp_reduce, warp_scan_exclusive_with_total};

/// Warps in a `len`-element iteration of `p` elements per lane, checked
/// against the block's limits.
fn iteration_warps<T: DeviceCopy>(ctx: &BlockCtx<'_, T>, p: usize, len: usize) -> usize {
    assert!(p > 0, "register tile needs at least one element per lane");
    let warps = len / (WARP_SIZE * p);
    assert!(warps > 0, "block scan needs at least one warp tile");
    assert_eq!(len, warps * WARP_SIZE * p, "an iteration holds whole warp tiles");
    assert!(warps <= WARP_SIZE, "at most 32 warps per block");
    assert!(
        ctx.shared_len() >= warps,
        "shared memory too small: {} elements for {} warp totals",
        ctx.shared_len(),
        warps
    );
    warps
}

/// Phases 1-5 of Figure 4 over one iteration, in `window`: each warp first
/// loads its tile from the same offsets of `src`. Returns the iteration
/// total.
fn scan_window<T: DeviceCopy, O: ScanOp<T>>(
    ctx: &mut BlockCtx<'_, T>,
    op: O,
    p: usize,
    src: &[T],
    window: &mut [T],
) -> T {
    let warps = iteration_warps(ctx, p, window.len());
    assert_eq!(src.len(), window.len(), "input and output windows differ in length");
    let per_warp = WARP_SIZE * p;

    // Phases 1-3: per-warp scan, publish warp totals.
    for (w, regs) in window.chunks_exact_mut(per_warp).enumerate() {
        let mut tile = RegTile::load(ctx, p, src, w * per_warp, regs);
        let totals = tile.scan_each_lane(ctx, op);
        let (prefix, warp_total) = warp_scan_exclusive_with_total(ctx, op, &totals);
        tile.combine_lane_prefix(ctx, op, &prefix);
        // Lane 31 stores the warp's partial sum (§3.1: "the last element of
        // the P·warpSize data sequence is stored in shared memory").
        ctx.sh_write(w, warp_total);
    }
    ctx.sync_threads();

    // Phase 4: one warp scans the warp totals.
    let mut warp_totals: LaneArray<T> = [op.identity(); WARP_SIZE];
    for w in 0..warps {
        warp_totals[w] = ctx.sh_read(w);
    }
    let (offsets, _) = warp_scan_exclusive_with_total(ctx, op, &warp_totals);
    for w in 0..warps {
        ctx.sh_write(w, offsets[w]);
    }
    ctx.sync_threads();

    // Phase 5: each warp combines its offset into its elements.
    for (w, regs) in window.chunks_exact_mut(per_warp).enumerate() {
        let offset = ctx.sh_read(w);
        RegTile::new(p, regs).combine_scalar_prefix(ctx, op, offset);
    }

    // With fewer than 32 warps the padded identity lanes contribute
    // nothing, so the lane-31 total equals the block total only when
    // warps == 32; fold the real warp count instead.
    warp_totals[..warps].iter().fold(op.identity(), |total, &w| op.combine(total, w))
}

/// Inclusive scan of one cascade iteration inside its output window:
/// loads `src` (charged as one coalesced read per warp) into `window`,
/// scans it there, combines `carry` into every element when given, and
/// charges one coalesced write per warp. `src` and `window` both hold
/// `warps · 32 · p` elements. Returns the iteration total **without** the
/// carry, for cascade accumulation by the caller.
///
/// Shared memory requirement: one element per warp.
///
/// # Panics
/// Panics if the windows differ in length or do not hold 1 to 32 whole
/// warp tiles, or shared memory is too small.
pub fn block_scan_inclusive<T: DeviceCopy, O: ScanOp<T>>(
    ctx: &mut BlockCtx<'_, T>,
    op: O,
    p: usize,
    src: &[T],
    window: &mut [T],
    carry: Option<T>,
) -> T {
    let total = scan_window(ctx, op, p, src, window);
    for regs in window.chunks_exact_mut(WARP_SIZE * p) {
        let mut tile = RegTile::new(p, regs);
        if let Some(c) = carry {
            tile.combine_scalar_prefix(ctx, op, c);
        }
        tile.store(ctx);
    }
    total
}

/// Exclusive variant of [`block_scan_inclusive`]: leaves
/// `window[0] = carry` and `window[i] = carry ∘ inclusive[i-1]`, the form
/// Stage 3 uses for exclusive batch scans, charged as one coalesced write
/// of the whole window. Returns the iteration total (without the carry)
/// for cascade accumulation.
pub fn block_scan_exclusive<T: DeviceCopy, O: ScanOp<T>>(
    ctx: &mut BlockCtx<'_, T>,
    op: O,
    p: usize,
    src: &[T],
    window: &mut [T],
    carry: T,
) -> T {
    let total = scan_window(ctx, op, p, src, window);

    // Shift the inclusive result right by one, seeding with the carry —
    // one extra combine per element (the register-level exclusive form).
    let n = window.len();
    for i in (1..n).rev() {
        window[i] = op.combine(carry, window[i - 1]);
    }
    window[0] = carry;
    ctx.alu((n / WARP_SIZE) as u64);
    ctx.charge_global_write(n);
    total
}

/// Block-level reduction of one cascade iteration (Stage 1's cheaper
/// core): reads each warp's tile of `src` where it lies (one coalesced
/// read per warp) and returns the combined value of every element without
/// keeping intermediates.
///
/// # Panics
/// Panics if `src` does not hold 1 to 32 whole warp tiles, or shared
/// memory is too small.
pub fn block_reduce<T: DeviceCopy, O: ScanOp<T>>(
    ctx: &mut BlockCtx<'_, T>,
    op: O,
    p: usize,
    src: &[T],
) -> T {
    let warps = iteration_warps(ctx, p, src.len());
    for w in 0..warps {
        let lane_totals = RegTile::read(ctx, p, src, w * WARP_SIZE * p).reduce_each_lane(ctx, op);
        let warp_total = warp_reduce(ctx, op, &lane_totals);
        ctx.sh_write(w, warp_total);
    }
    ctx.sync_threads();

    let mut padded: LaneArray<T> = [op.identity(); WARP_SIZE];
    for w in 0..warps {
        padded[w] = ctx.sh_read(w);
    }
    warp_reduce(ctx, op, &padded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{reference_exclusive, reference_inclusive, reference_reduce, Add, Max};
    use gpu_sim::{CostCounters, DeviceSpec, Gpu, LaunchConfig};

    fn in_kernel<R>(warps: usize, f: impl FnMut(&mut BlockCtx<'_, i32>) -> R) -> (R, CostCounters) {
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let mut f = f;
        let mut result = None;
        let cfg = LaunchConfig::new("test", (1, 1), (warps * 32, 1)).shared_elems(32).regs(64);
        let stats = gpu.launch::<i32, _>(&cfg, |ctx| result = Some(f(ctx))).unwrap();
        (result.unwrap(), stats.counters)
    }

    fn pseudo(n: usize) -> Vec<i32> {
        (0..n).map(|i| ((i as i64 * 2654435761) % 1009) as i32 - 500).collect()
    }

    /// Inclusive scan of `src` without a carry; returns the window and the
    /// total.
    fn scan(ctx: &mut BlockCtx<'_, i32>, p: usize, src: &[i32]) -> (Vec<i32>, i32) {
        let mut out = vec![0; src.len()];
        let total = block_scan_inclusive(ctx, Add, p, src, &mut out, None);
        (out, total)
    }

    #[test]
    fn paper_configuration_scan_matches_reference() {
        // 4 warps, P = 8: the paper's premise configuration, 1024 elements.
        let src = pseudo(1024);
        let ((out, total), counters) = in_kernel(4, |ctx| scan(ctx, 8, &src));
        let expected = reference_inclusive(Add, &src);
        assert_eq!(out, expected);
        assert_eq!(total, *expected.last().unwrap());
        // Shared traffic: 4 warp-total stores + 32 reads + 32 writes of the
        // offsets phase is bounded; what matters is it stays tiny (s ≤ 5).
        assert!(counters.shared_ops() <= 4 * (32 + 2) as u64);
    }

    #[test]
    fn single_warp_block_scan() {
        let src = pseudo(32 * 2);
        let ((out, total), _) = in_kernel(1, |ctx| scan(ctx, 2, &src));
        let expected = reference_inclusive(Add, &src);
        assert_eq!(out, expected);
        assert_eq!(total, *expected.last().unwrap());
    }

    #[test]
    fn full_32_warp_block_scan() {
        let src = pseudo(32 * 32);
        let ((_, total), _) = in_kernel(32, |ctx| scan(ctx, 1, &src));
        assert_eq!(total, reference_reduce(Add, &src));
    }

    #[test]
    fn block_scan_with_max_operator() {
        let src = pseudo(512);
        let (out, _) = in_kernel(2, |ctx| {
            let mut out = vec![0; 512];
            block_scan_inclusive(ctx, Max, 8, &src, &mut out, None);
            out
        });
        assert_eq!(out, reference_inclusive(Max, &src));
    }

    #[test]
    fn inclusive_window_scan_with_carry() {
        let src = pseudo(1024);
        let (dst, c) = in_kernel(4, |ctx| {
            let mut dst = vec![0i32; 1024];
            let total = block_scan_inclusive(ctx, Add, 8, &src, &mut dst, Some(1000));
            assert_eq!(total, reference_reduce(Add, &src), "total excludes the carry");
            dst
        });
        let expected: Vec<i32> =
            reference_inclusive(Add, &src).iter().map(|v| v.wrapping_add(1000)).collect();
        assert_eq!(dst, expected);
        // 4 KiB read and written once: 32 transactions each way.
        assert_eq!((c.gld_transactions, c.gst_transactions), (32, 32));
    }

    #[test]
    fn exclusive_window_scan_matches_reference() {
        let src = pseudo(1024);
        let (dst, _) = in_kernel(4, |ctx| {
            let mut dst = vec![0i32; 1024];
            let total = block_scan_exclusive(ctx, Add, 8, &src, &mut dst, 500);
            assert_eq!(total, reference_reduce(Add, &src), "total excludes the carry");
            dst
        });
        let expected: Vec<i32> =
            reference_exclusive(Add, &src).iter().map(|v| v.wrapping_add(500)).collect();
        assert_eq!(dst, expected);
    }

    #[test]
    fn exclusive_with_identity_carry_starts_at_identity() {
        let src = pseudo(256);
        let (dst, _) = in_kernel(2, |ctx| {
            let mut dst = vec![0i32; 256];
            block_scan_exclusive(ctx, Add, 4, &src, &mut dst, 0);
            dst
        });
        assert_eq!(dst[0], 0);
        assert_eq!(dst, reference_exclusive(Add, &src));
    }

    #[test]
    fn block_reduce_matches_reference() {
        let src = pseudo(1024);
        let (total, counters) = in_kernel(4, |ctx| block_reduce(ctx, Add, 8, &src));
        assert_eq!(total, reference_reduce(Add, &src));
        // Reduce writes nothing back to global memory.
        assert_eq!(counters.gst_transactions, 0);
    }

    #[test]
    fn block_reduce_max() {
        let src = pseudo(256);
        let (total, _) = in_kernel(2, |ctx| block_reduce(ctx, Max, 4, &src));
        assert_eq!(total, *src.iter().max().unwrap());
    }

    #[test]
    fn reduce_is_cheaper_than_scan() {
        let src = pseudo(1024);
        let (_, scan_c) = in_kernel(4, |ctx| scan(ctx, 8, &src));
        let (_, reduce_c) = in_kernel(4, |ctx| block_reduce(ctx, Add, 8, &src));
        assert!(
            reduce_c.alu_ops < scan_c.alu_ops,
            "reduction must do less work than scan ({} vs {})",
            reduce_c.alu_ops,
            scan_c.alu_ops
        );
    }

    #[test]
    #[should_panic(expected = "at least one warp")]
    fn empty_window_panics() {
        in_kernel(1, |ctx| scan(ctx, 1, &[]));
    }

    #[test]
    #[should_panic(expected = "whole warp tiles")]
    fn partial_warp_window_panics() {
        in_kernel(1, |ctx| scan(ctx, 1, &[0; 40]));
    }
}
