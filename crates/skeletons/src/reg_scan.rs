//! Per-thread register tiles: `P` elements held in each lane's registers.
//!
//! §3.1 / Figure 4: "each thread reads P elements from global memory using
//! the int4 customized data type … These 4-elements are computed by each
//! thread in registers". A [`RegTile`] is one warp's view of `32 · P`
//! consecutive elements, laid out blocked (lane `i` owns elements
//! `[i·P, (i+1)·P)` of the tile), exactly as Figure 4 draws it.
//!
//! The tile owns no storage: it borrows the warp's slice. The scan
//! skeletons [`RegTile::load`] each warp's input into its slot of the
//! block's output window, which stands in for the registers, and scan it
//! there; the reduction [`RegTile::read`]s its input where it lies.

use std::ops::{Deref, DerefMut};

use gpu_sim::{BlockCtx, DeviceCopy, LaneArray, WARP_SIZE};

use crate::op::ScanOp;

/// One warp's register tile: a view of `P` elements per lane, 32 lanes,
/// over a borrowed slice (`&[T]` to read, `&mut [T]` to scan in place).
#[derive(Debug)]
pub struct RegTile<S> {
    /// Lane-major elements: lane `i`'s at `[i*p, (i+1)*p)`.
    data: S,
    p: usize,
}

impl<T: DeviceCopy, S: Deref<Target = [T]>> RegTile<S> {
    /// View `data` as a tile with `p` elements per lane.
    ///
    /// # Panics
    /// Panics if `p == 0` or `data` does not hold exactly `32 · p`
    /// elements.
    pub fn new(p: usize, data: S) -> Self {
        assert!(p > 0, "register tile needs at least one element per lane");
        assert_eq!(data.len(), p * WARP_SIZE, "register tile holds 32 · P elements");
        RegTile { data, p }
    }

    /// Total elements in the tile (`32 · P`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tile holds no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element `j` of lane `lane`.
    pub fn get(&self, lane: usize, j: usize) -> T {
        self.data[lane * self.p + j]
    }

    /// Reduce each lane's `P` elements (no intermediate values kept) —
    /// Stage 1's cheaper variant. Returns each lane's total.
    /// Charges `P - 1` warp ALU ops.
    pub fn reduce_each_lane<O: ScanOp<T>>(&self, ctx: &mut BlockCtx<'_, T>, op: O) -> LaneArray<T> {
        ctx.alu((self.p - 1) as u64);
        std::array::from_fn(|lane| {
            let s = lane * self.p;
            self.data[s..s + self.p].iter().fold(op.identity(), |acc, &x| op.combine(acc, x))
        })
    }

    /// Each lane's last element (its running total after
    /// [`RegTile::scan_each_lane`]).
    pub fn lane_totals(&self) -> LaneArray<T> {
        std::array::from_fn(|lane| self.data[lane * self.p + self.p - 1])
    }
}

impl<'a, T: DeviceCopy> RegTile<&'a [T]> {
    /// View the warp's `32 · p` elements at `src[base ..]` where they lie,
    /// charging one coalesced warp read (vectorized per the launch's
    /// access width).
    pub fn read(ctx: &mut BlockCtx<'_, T>, p: usize, src: &'a [T], base: usize) -> Self {
        let tile = RegTile::new(p, &src[base..base + p * WARP_SIZE]);
        ctx.charge_global_read(tile.len());
        tile
    }
}

impl<'a, T: DeviceCopy> RegTile<&'a mut [T]> {
    /// Load the warp's elements from `src[base ..]` into `regs`, its
    /// `32 · p`-element slot of the output window, charging one coalesced
    /// warp read (vectorized per the launch's access width).
    pub fn load(
        ctx: &mut BlockCtx<'_, T>,
        p: usize,
        src: &[T],
        base: usize,
        regs: &'a mut [T],
    ) -> Self {
        ctx.read_global(src, base, regs);
        RegTile::new(p, regs)
    }
}

impl<T: DeviceCopy, S: DerefMut<Target = [T]>> RegTile<S> {
    /// Charge the tile's store as one coalesced warp write. A tile scanned
    /// in place already sits in its output window, so no data moves.
    pub fn store(&self, ctx: &mut BlockCtx<'_, T>) {
        ctx.charge_global_write(self.data.len());
    }

    /// Inclusive scan of each lane's `P` elements in registers
    /// (the red first phase of Figure 4). Returns each lane's total.
    /// Charges `P - 1` warp ALU ops.
    pub fn scan_each_lane<O: ScanOp<T>>(
        &mut self,
        ctx: &mut BlockCtx<'_, T>,
        op: O,
    ) -> LaneArray<T> {
        for lane in self.data.chunks_exact_mut(self.p) {
            for j in 1..lane.len() {
                lane[j] = op.combine(lane[j - 1], lane[j]);
            }
        }
        ctx.alu((self.p - 1) as u64);
        self.lane_totals()
    }

    /// Combine `prefix[lane]` into every element of lane `lane` — the
    /// "each thread adds the corresponding value to its 4-elements" phase
    /// of Figure 4. Charges `P` warp ALU ops.
    pub fn combine_lane_prefix<O: ScanOp<T>>(
        &mut self,
        ctx: &mut BlockCtx<'_, T>,
        op: O,
        prefix: &LaneArray<T>,
    ) {
        for (lane, &pre) in self.data.chunks_exact_mut(self.p).zip(prefix) {
            for v in lane {
                *v = op.combine(pre, *v);
            }
        }
        ctx.alu(self.p as u64);
    }

    /// Combine a single scalar prefix into every element of the tile (the
    /// cascade carry of Figure 5). Charges `P` warp ALU ops.
    pub fn combine_scalar_prefix<O: ScanOp<T>>(
        &mut self,
        ctx: &mut BlockCtx<'_, T>,
        op: O,
        prefix: T,
    ) {
        for v in self.data.iter_mut() {
            *v = op.combine(prefix, *v);
        }
        ctx.alu(self.p as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{reference_inclusive, Add, Max};
    use gpu_sim::{CostCounters, DeviceSpec, Gpu, LaunchConfig};

    fn in_kernel<R>(f: impl FnMut(&mut BlockCtx<'_, i32>) -> R) -> (R, CostCounters) {
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let mut f = f;
        let mut result = None;
        let cfg = LaunchConfig::new("test", (1, 1), (32, 1)).shared_elems(32).regs(64);
        let stats = gpu.launch::<i32, _>(&cfg, |ctx| result = Some(f(ctx))).unwrap();
        (result.unwrap(), stats.counters)
    }

    #[test]
    fn load_store_round_trip() {
        let src: Vec<i32> = (0..256).collect();
        let ((), c) = in_kernel(|ctx| {
            let mut dst = vec![0i32; 256];
            let tile = RegTile::load(ctx, 4, &src, 128, &mut dst[..128]);
            assert_eq!(tile.len(), 128);
            assert_eq!(tile.get(0, 0), 128, "lane 0 owns the first P elements");
            assert_eq!(tile.get(0, 3), 131);
            assert_eq!(tile.get(1, 0), 132, "lane 1 starts at base + P");
            assert_eq!(tile.get(31, 3), 255);
            tile.store(ctx);
            assert_eq!(&dst[..128], &src[128..]);
        });
        // 128 i32 = 512 B = 4 transactions each way.
        assert_eq!(c.gld_transactions, 4);
        assert_eq!(c.gst_transactions, 4);
    }

    #[test]
    fn read_views_the_source_and_charges_what_load_charges() {
        let src: Vec<i32> = (0..256).collect();
        let ((), read) = in_kernel(|ctx| {
            let tile = RegTile::read(ctx, 4, &src, 128);
            assert_eq!(tile.get(0, 0), 128);
            assert_eq!(tile.get(31, 3), 255);
        });
        let ((), load) = in_kernel(|ctx| {
            RegTile::load(ctx, 4, &src, 128, &mut [0; 128]);
        });
        assert_eq!(read, load);
        assert_eq!(read.gld_transactions, 4);
    }

    #[test]
    fn scan_each_lane_is_local_inclusive_scan() {
        let src: Vec<i32> = (1..=128).collect();
        let (totals, c) = in_kernel(|ctx| {
            let mut regs = vec![0; 128];
            let mut tile = RegTile::load(ctx, 4, &src, 0, &mut regs);
            let totals = tile.scan_each_lane(ctx, Add);
            // Lane 0 held [1,2,3,4] -> [1,3,6,10].
            assert_eq!(tile.get(0, 0), 1);
            assert_eq!(tile.get(0, 3), 10);
            // Lane 1 held [5,6,7,8] -> [5,11,18,26].
            assert_eq!(tile.get(1, 2), 18);
            totals
        });
        assert_eq!(totals[0], 10);
        assert_eq!(totals[1], 26);
        assert_eq!(c.alu_ops, 3, "P-1 combine steps for P=4");
    }

    #[test]
    fn reduce_each_lane_matches_scan_totals() {
        let src: Vec<i32> = (0..128).map(|i| (i * 31) % 23 - 11).collect();
        let ((reduced, scanned), _) = in_kernel(|ctx| {
            let reduced = RegTile::read(ctx, 4, &src, 0).reduce_each_lane(ctx, Add);
            let mut regs = vec![0; 128];
            let mut tile = RegTile::load(ctx, 4, &src, 0, &mut regs);
            let scanned = tile.scan_each_lane(ctx, Add);
            (reduced, scanned)
        });
        assert_eq!(reduced, scanned);
    }

    #[test]
    fn combine_lane_prefix_offsets_each_lane() {
        let mut regs: Vec<i32> = vec![1; 64];
        in_kernel(|ctx| {
            let prefix: LaneArray<i32> = std::array::from_fn(|i| i as i32 * 100);
            RegTile::new(2, &mut regs[..]).combine_lane_prefix(ctx, Add, &prefix);
        });
        let tile = RegTile::new(2, &regs[..]);
        assert_eq!(tile.get(0, 0), 1);
        assert_eq!(tile.get(1, 0), 101);
        assert_eq!(tile.get(31, 1), 3101);
    }

    #[test]
    fn combine_scalar_prefix_applies_cascade_carry() {
        let mut regs: Vec<i32> = (0..64).collect();
        in_kernel(|ctx| RegTile::new(2, &mut regs[..]).combine_scalar_prefix(ctx, Add, 1000));
        let tile = RegTile::new(2, &regs[..]);
        assert_eq!(tile.get(0, 0), 1000);
        assert_eq!(tile.get(31, 1), 1063);
    }

    #[test]
    fn whole_tile_scan_composition_matches_reference() {
        // scan_each_lane + exclusive lane prefix = full tile scan; the
        // composition is exercised for max (non-invertible) too.
        let src: Vec<i32> = (0..128).map(|i| (i * 37) % 41 - 17).collect();
        let mut out = vec![0; 128];
        in_kernel(|ctx| {
            let mut tile = RegTile::load(ctx, 4, &src, 0, &mut out);
            let totals = tile.scan_each_lane(ctx, Max);
            let prefix = crate::warp_scan::warp_scan_exclusive(ctx, Max, &totals);
            tile.combine_lane_prefix(ctx, Max, &prefix);
        });
        assert_eq!(out, reference_inclusive(Max, &src));
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn zero_p_panics() {
        RegTile::<&[i32]>::new(0, &[]);
    }

    #[test]
    #[should_panic(expected = "32 · P elements")]
    fn short_slice_panics() {
        RegTile::new(2, &[0i32; 63][..]);
    }
}
