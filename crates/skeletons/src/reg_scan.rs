//! Per-thread register tiles: `P` elements held in each lane's registers.
//!
//! §3.1 / Figure 4: "each thread reads P elements from global memory using
//! the int4 customized data type … These 4-elements are computed by each
//! thread in registers". A [`RegTile`] is one warp's view of `32 · P`
//! consecutive elements, laid out blocked (lane `i` owns elements
//! `[i·P, (i+1)·P)` of the tile), exactly as Figure 4 draws it.

use gpu_sim::{BlockCtx, DeviceCopy, LaneArray, WARP_SIZE};

use crate::op::ScanOp;

/// One warp's register tile: `P` elements per lane, 32 lanes.
#[derive(Debug, Clone)]
pub struct RegTile<T> {
    /// Lane-major storage: lane `i`'s elements at `[i*p, (i+1)*p)`.
    data: Vec<T>,
    p: usize,
}

impl<T: DeviceCopy> RegTile<T> {
    /// An identity-filled tile with `p` elements per lane.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize, fill: T) -> Self {
        assert!(p > 0, "register tile needs at least one element per lane");
        RegTile { data: vec![fill; p * WARP_SIZE], p }
    }

    /// Elements per lane (`P`).
    pub fn p(&self) -> usize {
        self.p
    }

    /// Total elements in the tile (`32 · P`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tile holds no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Load the tile from `src[base ..]`, charging one coalesced warp read
    /// (vectorized per the launch's access width).
    pub fn load(ctx: &mut BlockCtx<'_, T>, p: usize, src: &[T], base: usize) -> Self {
        let mut tile = RegTile::new(p, T::default());
        ctx.read_global(src, base, &mut tile.data);
        tile
    }

    /// Store the tile to `dst[base ..]`, charging one coalesced warp write.
    pub fn store(&self, ctx: &mut BlockCtx<'_, T>, dst: &mut [T], base: usize) {
        ctx.write_global(dst, base, &self.data);
    }

    /// Element `j` of lane `lane`.
    pub fn get(&self, lane: usize, j: usize) -> T {
        self.data[lane * self.p + j]
    }

    /// Set element `j` of lane `lane`.
    pub fn set(&mut self, lane: usize, j: usize, v: T) {
        self.data[lane * self.p + j] = v;
    }

    /// Flat view of the tile in element order.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Inclusive scan of each lane's `P` elements in registers
    /// (the red first phase of Figure 4). Returns each lane's total.
    /// Charges `P - 1` warp ALU ops.
    pub fn scan_each_lane<O: ScanOp<T>>(
        &mut self,
        ctx: &mut BlockCtx<'_, T>,
        op: O,
    ) -> LaneArray<T> {
        for lane in 0..WARP_SIZE {
            let s = lane * self.p;
            for j in 1..self.p {
                self.data[s + j] = op.combine(self.data[s + j - 1], self.data[s + j]);
            }
        }
        ctx.alu((self.p - 1) as u64);
        self.lane_totals()
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

    /// Combine `prefix[lane]` into every element of lane `lane` — the
    /// "each thread adds the corresponding value to its 4-elements" phase
    /// of Figure 4. Charges `P` warp ALU ops.
    pub fn combine_lane_prefix<O: ScanOp<T>>(
        &mut self,
        ctx: &mut BlockCtx<'_, T>,
        op: O,
        prefix: &LaneArray<T>,
    ) {
        for lane in 0..WARP_SIZE {
            let s = lane * self.p;
            for j in 0..self.p {
                self.data[s + j] = op.combine(prefix[lane], self.data[s + j]);
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
        for v in &mut self.data {
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
            let tile = RegTile::load(ctx, 4, &src, 128);
            assert_eq!(tile.len(), 128);
            assert_eq!(tile.get(0, 0), 128, "lane 0 owns the first P elements");
            assert_eq!(tile.get(0, 3), 131);
            assert_eq!(tile.get(1, 0), 132, "lane 1 starts at base + P");
            assert_eq!(tile.get(31, 3), 255);
            let mut dst = vec![0i32; 256];
            tile.store(ctx, &mut dst, 0);
            assert_eq!(&dst[..128], &src[128..]);
        });
        // 128 i32 = 512 B = 4 transactions each way.
        assert_eq!(c.gld_transactions, 4);
        assert_eq!(c.gst_transactions, 4);
    }

    #[test]
    fn scan_each_lane_is_local_inclusive_scan() {
        let src: Vec<i32> = (1..=128).collect();
        let (totals, c) = in_kernel(|ctx| {
            let mut tile = RegTile::load(ctx, 4, &src, 0);
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
            let mut tile = RegTile::load(ctx, 4, &src, 0);
            let reduced = tile.reduce_each_lane(ctx, Add);
            let scanned = tile.scan_each_lane(ctx, Add);
            (reduced, scanned)
        });
        assert_eq!(reduced, scanned);
    }

    #[test]
    fn combine_lane_prefix_offsets_each_lane() {
        let src: Vec<i32> = vec![1; 64];
        let (tile, _) = in_kernel(|ctx| {
            let mut tile = RegTile::load(ctx, 2, &src, 0);
            let prefix: LaneArray<i32> = std::array::from_fn(|i| i as i32 * 100);
            tile.combine_lane_prefix(ctx, Add, &prefix);
            tile
        });
        assert_eq!(tile.get(0, 0), 1);
        assert_eq!(tile.get(1, 0), 101);
        assert_eq!(tile.get(31, 1), 3101);
    }

    #[test]
    fn combine_scalar_prefix_applies_cascade_carry() {
        let src: Vec<i32> = (0..64).collect();
        let (tile, _) = in_kernel(|ctx| {
            let mut tile = RegTile::load(ctx, 2, &src, 0);
            tile.combine_scalar_prefix(ctx, Add, 1000);
            tile
        });
        assert_eq!(tile.get(0, 0), 1000);
        assert_eq!(tile.get(31, 1), 1063);
    }

    #[test]
    fn whole_tile_scan_composition_matches_reference() {
        // scan_each_lane + exclusive lane prefix = full tile scan; the
        // composition is exercised for max (non-invertible) too.
        let src: Vec<i32> = (0..128).map(|i| (i * 37) % 41 - 17).collect();
        let (out, _) = in_kernel(|ctx| {
            let mut tile = RegTile::load(ctx, 4, &src, 0);
            let totals = tile.scan_each_lane(ctx, Max);
            let prefix = crate::warp_scan::warp_scan_exclusive(ctx, Max, &totals);
            tile.combine_lane_prefix(ctx, Max, &prefix);
            tile.as_slice().to_vec()
        });
        assert_eq!(out, reference_inclusive(Max, &src));
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn zero_p_panics() {
        RegTile::<i32>::new(0, 0);
    }
}
