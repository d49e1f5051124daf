//! Scan operators and scannable element types.
//!
//! The scan primitive is defined over any associative binary operator with
//! an identity (§1 of the paper uses addition over integers as the default;
//! the library, like CUDPP/CUB/Thrust, accepts any monoid).
//!
//! Integer operators use wrapping arithmetic: a real CUDA kernel's `int`
//! addition wraps silently, and the reproduction must match that behaviour
//! rather than panic on overflow in debug builds.

use gpu_sim::DeviceCopy;

/// Element types the scan skeletons operate on.
///
/// Blanket-implemented; the bound exists so kernels can state one name.
pub trait Scannable: DeviceCopy {}
impl<T: DeviceCopy> Scannable for T {}

/// An associative binary operator with identity — the monoid a scan runs
/// over.
///
/// Implementations must be associative; commutativity is *not* required
/// (the skeletons only ever combine in left-to-right order).
pub trait ScanOp<T>: Copy + Send + Sync + 'static {
    /// The operator's identity element (`0` for addition, `-∞` for max…).
    fn identity(&self) -> T;
    /// Combine two values, left-to-right.
    fn combine(&self, a: T, b: T) -> T;
    /// For invertible operators, `a ∘ b⁻¹`. Used by the paper's exclusive
    /// trick — "the initial value is subtracted from the scanned value"
    /// (§3.1) — which avoids one extra shuffle step. `None` for
    /// non-invertible operators like max.
    fn uncombine(&self, _a: T, _b: T) -> Option<T> {
        None
    }
    /// Whether `got`, a result this operator combined in some tree order
    /// (the pipelines reassociate), agrees with `want`, the sequential
    /// reference. Exact (`==`) by default. An operator that is associative
    /// only up to rounding over some element types overrides it to accept
    /// that rounding through [`Numeric::agrees_with`].
    fn agrees(&self, got: T, want: T) -> bool
    where
        T: PartialEq,
    {
        got == want
    }
}

/// Relative bound of float agreement ([`Numeric::agrees_with`]): the bound
/// `tests/float_semantics.rs` holds the gated recurrence to.
const FLOAT_AGREEMENT: f64 = 1e-9;

/// Numeric primitives the built-in operators cover.
///
/// `wadd`/`wmul` wrap for integers and are plain arithmetic for floats.
pub trait Numeric: DeviceCopy + PartialOrd {
    /// Whether `wsub` exactly inverts `wadd` for every value. True for the
    /// integers (arithmetic mod 2^n is a ring), false for floats, where
    /// `(a + b) - b` rounds: an operator must not report itself invertible
    /// over a float element type, or the §3.1 exclusive trick silently
    /// corrupts low bits.
    fn exact_inverse() -> bool;
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Smallest representable value (identity for max).
    fn min_value() -> Self;
    /// Largest representable value (identity for min).
    fn max_value() -> Self;
    /// Wrapping addition.
    fn wadd(self, rhs: Self) -> Self;
    /// Wrapping subtraction.
    fn wsub(self, rhs: Self) -> Self;
    /// Wrapping multiplication.
    fn wmul(self, rhs: Self) -> Self;
    /// Whether `self` agrees with `want` within the rounding a reordered
    /// accumulation can add. Exact (`==`) by default, which the integers
    /// keep; the floats accept `|self − want| ≤ 1e-9 · max(|want|, 1)`.
    fn agrees_with(self, want: Self) -> bool {
        self == want
    }
}

macro_rules! impl_numeric_int {
    ($($t:ty),*) => {$(
        impl Numeric for $t {
            fn exact_inverse() -> bool { true }
            fn zero() -> Self { 0 }
            fn one() -> Self { 1 }
            fn min_value() -> Self { <$t>::MIN }
            fn max_value() -> Self { <$t>::MAX }
            fn wadd(self, rhs: Self) -> Self { self.wrapping_add(rhs) }
            fn wsub(self, rhs: Self) -> Self { self.wrapping_sub(rhs) }
            fn wmul(self, rhs: Self) -> Self { self.wrapping_mul(rhs) }
        }
    )*};
}
impl_numeric_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

macro_rules! impl_numeric_float {
    ($($t:ty),*) => {$(
        impl Numeric for $t {
            fn exact_inverse() -> bool { false }
            fn zero() -> Self { 0.0 }
            fn one() -> Self { 1.0 }
            fn min_value() -> Self { <$t>::NEG_INFINITY }
            fn max_value() -> Self { <$t>::INFINITY }
            fn wadd(self, rhs: Self) -> Self { self + rhs }
            fn wsub(self, rhs: Self) -> Self { self - rhs }
            fn wmul(self, rhs: Self) -> Self { self * rhs }
            fn agrees_with(self, want: Self) -> bool {
                let bound = FLOAT_AGREEMENT * f64::from(want.abs()).max(1.0);
                self == want || f64::from((self - want).abs()) <= bound
            }
        }
    )*};
}
impl_numeric_float!(f32, f64);

/// Addition — the paper's default operator. Over floats it is associative
/// only up to rounding, which [`ScanOp::agrees`] accepts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Add;

impl<T: Numeric> ScanOp<T> for Add {
    fn identity(&self) -> T {
        T::zero()
    }
    fn combine(&self, a: T, b: T) -> T {
        a.wadd(b)
    }
    fn uncombine(&self, a: T, b: T) -> Option<T> {
        T::exact_inverse().then(|| a.wsub(b))
    }
    fn agrees(&self, got: T, want: T) -> bool {
        got.agrees_with(want)
    }
}

/// Maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Max;

impl<T: Numeric> ScanOp<T> for Max {
    fn identity(&self) -> T {
        T::min_value()
    }
    fn combine(&self, a: T, b: T) -> T {
        if a < b {
            b
        } else {
            a
        }
    }
}

/// Minimum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Min;

impl<T: Numeric> ScanOp<T> for Min {
    fn identity(&self) -> T {
        T::max_value()
    }
    fn combine(&self, a: T, b: T) -> T {
        if b < a {
            b
        } else {
            a
        }
    }
}

/// Product (wrapping for integers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mul;

impl<T: Numeric> ScanOp<T> for Mul {
    fn identity(&self) -> T {
        T::one()
    }
    fn combine(&self, a: T, b: T) -> T {
        a.wmul(b)
    }
}

/// Integer primitives supporting the bitwise operators.
pub trait BitPrimitive:
    DeviceCopy
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::BitXor<Output = Self>
    + std::ops::Not<Output = Self>
{
    /// The all-zeros value.
    fn zero() -> Self;
}

macro_rules! impl_bit_primitive {
    ($($t:ty),*) => {$(
        impl BitPrimitive for $t {
            fn zero() -> Self { 0 }
        }
    )*};
}
impl_bit_primitive!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

/// Bitwise OR — running "any bit seen so far".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitOr;

impl<T: BitPrimitive> ScanOp<T> for BitOr {
    fn identity(&self) -> T {
        T::zero()
    }
    fn combine(&self, a: T, b: T) -> T {
        a | b
    }
}

/// Bitwise AND — running "bits present everywhere so far".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitAnd;

impl<T: BitPrimitive> ScanOp<T> for BitAnd {
    fn identity(&self) -> T {
        !T::zero()
    }
    fn combine(&self, a: T, b: T) -> T {
        a & b
    }
}

/// Bitwise XOR — running parity. Self-inverse, so the exclusive-scan trick
/// applies (`uncombine = combine`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitXor;

impl<T: BitPrimitive> ScanOp<T> for BitXor {
    fn identity(&self) -> T {
        T::zero()
    }
    fn combine(&self, a: T, b: T) -> T {
        a ^ b
    }
    fn uncombine(&self, a: T, b: T) -> Option<T> {
        Some(a ^ b)
    }
}

/// An affine map `x ↦ a·x + b`, the element type of the gated first-order
/// recurrence `x[t] = gate[t]·x[t-1] + token[t]` solved as a scan
/// (Blelloch §1.4; accelerated-scan runs the same trick for SSM layers).
/// Each input element is the pair `(gate[t], token[t])`; the inclusive
/// scan under [`GatedOp`] leaves the recurrence's solution in `b`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AffinePair<T> {
    /// Multiplicative coefficient (the accumulated gate product).
    pub a: T,
    /// Additive term (the recurrence state after applying this map to the
    /// identity).
    pub b: T,
}

impl<T> AffinePair<T> {
    /// Pair constructor, `x ↦ a·x + b`.
    pub fn new(a: T, b: T) -> Self {
        Self { a, b }
    }
}

/// Composition of affine maps — the monoid that turns the gated recurrence
/// into a scan. `combine(l, r)` is "apply `l`, then `r`":
/// `r(l(x)) = r.a·(l.a·x + l.b) + r.b`, i.e. `(r.a·l.a, r.a·l.b + r.b)`.
///
/// Over the integers (wrapping arithmetic is a ring mod 2^n) composition
/// is *exactly* associative, so integer affine scans are bit-reproducible
/// under any combine tree. Over floats it is associative only up to
/// rounding, which [`ScanOp::agrees`] accepts per component — see
/// `docs/operators.md`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatedOp;

impl<T: Numeric> ScanOp<AffinePair<T>> for GatedOp {
    fn identity(&self) -> AffinePair<T> {
        AffinePair::new(T::one(), T::zero())
    }
    fn combine(&self, l: AffinePair<T>, r: AffinePair<T>) -> AffinePair<T> {
        AffinePair::new(r.a.wmul(l.a), r.a.wmul(l.b).wadd(r.b))
    }
    fn agrees(&self, got: AffinePair<T>, want: AffinePair<T>) -> bool {
        got.a.agrees_with(want.a) && got.b.agrees_with(want.b)
    }
}

/// One element of a segmented scan: a value plus a flag marking the start
/// of a new segment.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SegPair<T> {
    /// The payload value.
    pub v: T,
    /// True if this element opens a new segment (the running sum restarts
    /// here).
    pub reset: bool,
}

impl<T> SegPair<T> {
    /// Pair constructor.
    pub fn new(v: T, reset: bool) -> Self {
        Self { v, reset }
    }
}

/// Segmented sum — the classic head-flag monoid (Blelloch §1.5): a reset
/// on the right operand discards everything accumulated to its left, so an
/// inclusive scan restarts at every flagged element. Associative but not
/// commutative, which the skeletons' strict left-to-right combine order
/// handles by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentedAdd;

impl<T: Numeric> ScanOp<SegPair<T>> for SegmentedAdd {
    fn identity(&self) -> SegPair<T> {
        SegPair::new(T::zero(), false)
    }
    fn combine(&self, l: SegPair<T>, r: SegPair<T>) -> SegPair<T> {
        if r.reset {
            r
        } else {
            SegPair::new(l.v.wadd(r.v), l.reset)
        }
    }
}

/// CPU reference inclusive scan, the ground truth every kernel is verified
/// against.
pub fn reference_inclusive<T: Scannable, O: ScanOp<T>>(op: O, data: &[T]) -> Vec<T> {
    let mut acc = op.identity();
    data.iter()
        .map(|&x| {
            acc = op.combine(acc, x);
            acc
        })
        .collect()
}

/// CPU reference exclusive scan (`out[0] = identity`).
pub fn reference_exclusive<T: Scannable, O: ScanOp<T>>(op: O, data: &[T]) -> Vec<T> {
    let mut acc = op.identity();
    data.iter()
        .map(|&x| {
            let out = acc;
            acc = op.combine(acc, x);
            out
        })
        .collect()
}

/// CPU reference reduction.
pub fn reference_reduce<T: Scannable, O: ScanOp<T>>(op: O, data: &[T]) -> T {
    data.iter().fold(op.identity(), |acc, &x| op.combine(acc, x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_scans_paper_figure1() {
        // Figure 1 of the paper: inclusive scan of [3,1,7,0,4,1,6,3].
        let data = [3, 1, 7, 0, 4, 1, 6, 3];
        let out = reference_inclusive(Add, &data);
        assert_eq!(out, vec![3, 4, 11, 11, 15, 16, 22, 25]);
    }

    #[test]
    fn exclusive_shifts_inclusive() {
        let data = [3, 1, 7, 0];
        assert_eq!(reference_exclusive(Add, &data), vec![0, 3, 4, 11]);
    }

    #[test]
    fn exclusive_of_empty_is_empty() {
        assert_eq!(reference_exclusive(Add, &[] as &[i32]), Vec::<i32>::new());
        assert_eq!(reference_inclusive(Add, &[] as &[i32]), Vec::<i32>::new());
    }

    #[test]
    fn max_scan_is_running_maximum() {
        let data = [2, 9, 1, 9, 12, 3];
        assert_eq!(reference_inclusive(Max, &data), vec![2, 9, 9, 9, 12, 12]);
    }

    #[test]
    fn min_scan_is_running_minimum() {
        let data = [5i64, 3, 8, 2, 9];
        assert_eq!(reference_inclusive(Min, &data), vec![5, 3, 3, 2, 2]);
    }

    #[test]
    fn mul_scan_products() {
        let data = [1u64, 2, 3, 4];
        assert_eq!(reference_inclusive(Mul, &data), vec![1, 2, 6, 24]);
    }

    #[test]
    fn add_wraps_instead_of_panicking() {
        let data = [i32::MAX, 1];
        let out = reference_inclusive(Add, &data);
        assert_eq!(out[1], i32::MIN, "integer scan wraps like the CUDA kernel would");
    }

    #[test]
    fn add_is_invertible_max_is_not() {
        assert_eq!(ScanOp::<i32>::uncombine(&Add, 10, 4), Some(6));
        assert_eq!(ScanOp::<i32>::uncombine(&Max, 10, 4), None);
    }

    #[test]
    fn reduce_matches_scan_last() {
        let data: Vec<i32> = (1..=100).collect();
        let total = reference_reduce(Add, &data);
        let scanned = reference_inclusive(Add, &data);
        assert_eq!(total, *scanned.last().unwrap());
        assert_eq!(total, 5050);
    }

    #[test]
    fn float_operators_use_infinities() {
        assert_eq!(ScanOp::<f64>::identity(&Max), f64::NEG_INFINITY);
        assert_eq!(ScanOp::<f64>::identity(&Min), f64::INFINITY);
        let out = reference_inclusive(Max, &[1.5f64, -2.0, 3.0]);
        assert_eq!(out, vec![1.5, 1.5, 3.0]);
    }

    #[test]
    fn bitwise_scans_match_reference() {
        let data: [u32; 6] = [0b0001, 0b0110, 0b0100, 0b1000, 0b0011, 0b0101];
        assert_eq!(
            reference_inclusive(BitOr, &data),
            vec![0b0001, 0b0111, 0b0111, 0b1111, 0b1111, 0b1111]
        );
        assert_eq!(
            reference_inclusive(BitXor, &data),
            vec![0b0001, 0b0111, 0b0011, 0b1011, 0b1000, 0b1101]
        );
        let masks: [u32; 3] = [0b1110, 0b0111, 0b0110];
        assert_eq!(reference_inclusive(BitAnd, &masks), vec![0b1110, 0b0110, 0b0110]);
    }

    #[test]
    fn xor_is_self_inverse() {
        assert_eq!(ScanOp::<u64>::uncombine(&BitXor, 0b1010, 0b0110), Some(0b1100));
        assert_eq!(ScanOp::<u32>::uncombine(&BitOr, 1, 1), None);
    }

    #[test]
    fn float_add_is_not_invertible() {
        // (a + b) - b rounds for floats; reporting invertibility would let
        // the §3.1 exclusive trick corrupt low bits, so `uncombine` must
        // decline and force the shifted-propagation fallback.
        assert_eq!(ScanOp::<f64>::uncombine(&Add, 10.0, 4.0), None);
        assert_eq!(ScanOp::<f32>::uncombine(&Add, 1.0, 0.1), None);
        // Integers keep the fast path.
        assert_eq!(ScanOp::<i64>::uncombine(&Add, 10, 4), Some(6));
    }

    #[test]
    fn only_float_add_and_gated_agree_within_rounding() {
        let near = 1.0 + 1e-12;
        assert!(ScanOp::<f64>::agrees(&Add, near, 1.0));
        assert!(ScanOp::<f64>::agrees(&Add, 2e3 + 1e-7, 2e3), "relative to |want|");
        assert!(!ScanOp::<f64>::agrees(&Add, 1.0 + 1e-8, 1.0));
        assert!(!ScanOp::<f64>::agrees(&Add, f64::NAN, f64::NAN));
        assert!(ScanOp::<f64>::agrees(&Add, f64::INFINITY, f64::INFINITY));
        assert!(!ScanOp::<i64>::agrees(&Add, 1_000_000_001, 1_000_000_000));
        assert!(!ScanOp::<f64>::agrees(&Max, near, 1.0), "max is exact-only");
        let gated = |a, b| AffinePair::new(a, b);
        assert!(GatedOp.agrees(gated(near, 5.0), gated(1.0, 5.0 + 1e-12)));
        assert!(!GatedOp.agrees(gated(1.0, 5.0), gated(1.0, 5.1)), "each component counts");
        assert!(!GatedOp.agrees(AffinePair::new(1i32, 5), AffinePair::new(1, 6)));
    }

    #[test]
    fn gated_scan_solves_the_recurrence() {
        // x[t] = gate[t]·x[t-1] + token[t], x[-1] = 0 — the scanned `b`
        // component must match the naive sequential loop exactly (integer
        // arithmetic, so bit-exact).
        let gates: Vec<i64> = vec![3, -2, 5, 1, 0, 7, 2];
        let tokens: Vec<i64> = vec![4, 1, -3, 9, 2, 5, -1];
        let pairs: Vec<AffinePair<i64>> =
            gates.iter().zip(&tokens).map(|(&a, &b)| AffinePair::new(a, b)).collect();
        let scanned = reference_inclusive(GatedOp, &pairs);
        let mut x = 0i64;
        for (t, p) in scanned.iter().enumerate() {
            x = gates[t].wrapping_mul(x).wrapping_add(tokens[t]);
            assert_eq!(p.b, x, "element {t}");
        }
    }

    #[test]
    fn gated_op_is_exactly_associative_over_integers() {
        let vals = [
            AffinePair::new(3i32, 7),
            AffinePair::new(-2, i32::MAX),
            AffinePair::new(i32::MIN, 11),
        ];
        let [p, q, r] = vals;
        let op = GatedOp;
        assert_eq!(op.combine(op.combine(p, q), r), op.combine(p, op.combine(q, r)));
        for v in vals {
            assert_eq!(op.combine(op.identity(), v), v);
            assert_eq!(op.combine(v, op.identity()), v);
        }
    }

    #[test]
    fn segmented_scan_restarts_at_flags() {
        let data = [
            SegPair::new(3i32, true),
            SegPair::new(1, false),
            SegPair::new(7, false),
            SegPair::new(0, true),
            SegPair::new(4, false),
            SegPair::new(1, true),
            SegPair::new(6, false),
        ];
        let out = reference_inclusive(SegmentedAdd, &data);
        let sums: Vec<i32> = out.iter().map(|p| p.v).collect();
        assert_eq!(sums, vec![3, 4, 11, 0, 4, 1, 7]);
    }

    #[test]
    fn segmented_op_is_associative() {
        let vals = [
            SegPair::new(5i32, false),
            SegPair::new(-3, true),
            SegPair::new(8, false),
            SegPair::new(2, true),
        ];
        let op = SegmentedAdd;
        for &p in &vals {
            for &q in &vals {
                for &r in &vals {
                    assert_eq!(op.combine(op.combine(p, q), r), op.combine(p, op.combine(q, r)));
                }
            }
        }
        for v in vals {
            assert_eq!(op.combine(op.identity(), v), v);
        }
    }

    #[test]
    fn identities_are_neutral() {
        fn check<O: ScanOp<i32>>(op: O, vals: &[i32]) {
            for &v in vals {
                assert_eq!(op.combine(op.identity(), v), v);
                assert_eq!(op.combine(v, op.identity()), v);
            }
        }
        let vals = [-5, 0, 1, 42, i32::MAX, i32::MIN];
        check(Add, &vals);
        check(Max, &vals);
        check(Min, &vals);
        check(Mul, &[-5, 0, 1, 42]);
        check(BitOr, &vals);
        check(BitAnd, &vals);
        check(BitXor, &vals);
    }
}
