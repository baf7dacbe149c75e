//! Portable SIMD lane type and the [`Lane`] trait kernel bodies are
//! written over.
//!
//! `VecF32<W>` is a `[f32; W]` newtype whose element-wise arithmetic
//! compiles to SIMD at `opt-level ≥ 2` (LLVM auto-vectorizes fixed-size
//! array loops reliably), transcendentals included: [`Lane::exp`],
//! [`Lane::ln`] and [`Lane::sin_cos`] are branch-free polynomials. The
//! study's kernels use it for both the OpenCL implicit
//! vectorization path (lanes = adjacent workitems) and the vectorized OpenMP
//! loops (lanes = adjacent iterations).

use std::ops::{Add, Div, Index, IndexMut, Mul, Neg, Sub};

/// A fixed-width vector of `f32` lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(16))]
pub struct VecF32<const W: usize>(pub [f32; W]);

/// The values a kernel body computes on: one workitem (`f32`) or `W`
/// x-adjacent workitems, one per SIMD lane (`VecF32<W>`).
///
/// A body written once over `T: Lane` is the scalar item at `f32` and the
/// lane step at `VecF32<W>`. Every `VecF32` op is the `f32` op applied to
/// each lane, so a lane step is bit-identical to `W` scalar items.
pub trait Lane:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Items per value.
    const WIDTH: usize;
    /// Every lane set to `v`.
    fn splat(v: f32) -> Self;
    /// Lane `k` set to `f(k)`.
    fn from_fn(f: impl FnMut(usize) -> f32) -> Self;
    /// `src[i .. i + WIDTH]`.
    fn load(src: &[f32], i: usize) -> Self;
    /// Lane `k` from `src[i + k·stride]` (the gather of non-contiguous
    /// access the paper's Section III-F discusses).
    #[inline(always)]
    fn load_strided(src: &[f32], i: usize, stride: usize) -> Self {
        Self::from_fn(|k| src[i + k * stride])
    }
    /// Write the lanes to `dst[i .. i + WIDTH]`.
    fn store(self, dst: &mut [f32], i: usize);
    fn sqrt(self) -> Self;
    /// [`crate::exp`]: branch-free, SIMD across lanes.
    fn exp(self) -> Self;
    /// [`crate::ln`]: branch-free, SIMD across lanes.
    fn ln(self) -> Self;
    /// [`crate::sin_cos`]: branch-free, SIMD across lanes.
    fn sin_cos(self) -> (Self, Self);
    fn abs(self) -> Self;
    fn min(self, o: Self) -> Self;
    fn max(self, o: Self) -> Self;
    /// Lane-wise `if self > rhs { then } else { other }` (branchless
    /// divergence handling, as a predicating vectorizer emits).
    fn select_gt(self, rhs: Self, then: Self, other: Self) -> Self;
}

impl Lane for f32 {
    const WIDTH: usize = 1;
    #[inline(always)]
    fn splat(v: f32) -> Self {
        v
    }
    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> f32) -> Self {
        f(0)
    }
    #[inline(always)]
    fn load(src: &[f32], i: usize) -> Self {
        src[i]
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32], i: usize) {
        dst[i] = self;
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        crate::exp(self)
    }
    #[inline(always)]
    fn ln(self) -> Self {
        crate::ln(self)
    }
    #[inline(always)]
    fn sin_cos(self) -> (Self, Self) {
        crate::sin_cos(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        f32::min(self, o)
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        f32::max(self, o)
    }
    #[inline(always)]
    fn select_gt(self, rhs: Self, then: Self, other: Self) -> Self {
        if self > rhs {
            then
        } else {
            other
        }
    }
}

// `map` and `zip` loop over a local array rather than call
// `std::array::from_fn`: with a closure as large as `exp`'s, LLVM leaves
// `from_fn` out of line and the lanes pass through memory.
impl<const W: usize> VecF32<W> {
    #[inline(always)]
    fn map(self, f: impl Fn(f32) -> f32) -> Self {
        let mut out = [0.0f32; W];
        for (o, &a) in out.iter_mut().zip(&self.0) {
            *o = f(a);
        }
        VecF32(out)
    }

    #[inline(always)]
    fn zip(self, rhs: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        let mut out = [0.0f32; W];
        for ((o, &a), &b) in out.iter_mut().zip(&self.0).zip(&rhs.0) {
            *o = f(a, b);
        }
        VecF32(out)
    }
}

impl<const W: usize> Lane for VecF32<W> {
    const WIDTH: usize = W;
    #[inline(always)]
    fn splat(v: f32) -> Self {
        VecF32([v; W])
    }
    #[inline(always)]
    fn from_fn(f: impl FnMut(usize) -> f32) -> Self {
        VecF32(std::array::from_fn(f))
    }
    #[inline(always)]
    fn load(src: &[f32], i: usize) -> Self {
        let mut out = [0.0f32; W];
        out.copy_from_slice(&src[i..i + W]);
        VecF32(out)
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32], i: usize) {
        dst[i..i + W].copy_from_slice(&self.0);
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        self.map(f32::sqrt)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        self.map(crate::exp)
    }
    #[inline(always)]
    fn ln(self) -> Self {
        self.map(crate::ln)
    }
    // `always`: as an out-of-line call it passes the lanes through memory.
    #[inline(always)]
    fn sin_cos(self) -> (Self, Self) {
        let mut s = [0.0f32; W];
        let mut c = [0.0f32; W];
        for k in 0..W {
            (s[k], c[k]) = crate::sin_cos(self.0[k]);
        }
        (VecF32(s), VecF32(c))
    }
    #[inline(always)]
    fn abs(self) -> Self {
        self.map(f32::abs)
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        self.zip(o, f32::min)
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        self.zip(o, f32::max)
    }
    #[inline(always)]
    fn select_gt(self, rhs: Self, then: Self, other: Self) -> Self {
        VecF32(std::array::from_fn(|k| {
            self.0[k].select_gt(rhs.0[k], then.0[k], other.0[k])
        }))
    }
}

macro_rules! lane_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<const W: usize> $trait for VecF32<W> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: Self) -> Self {
                self.zip(rhs, |a, b| a $op b)
            }
        }
    };
}

lane_op!(Add, add, +);
lane_op!(Sub, sub, -);
lane_op!(Mul, mul, *);
lane_op!(Div, div, /);

impl<const W: usize> Neg for VecF32<W> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        self.map(|a| -a)
    }
}

impl<const W: usize> Index<usize> for VecF32<W> {
    type Output = f32;
    #[inline]
    fn index(&self, i: usize) -> &f32 {
        &self.0[i]
    }
}

impl<const W: usize> IndexMut<usize> for VecF32<W> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.0[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_lane_wise() {
        let a = VecF32([1.0, 2.0, 3.0, 4.0]);
        let b = VecF32([10.0, 20.0, 30.0, 40.0]);
        assert_eq!((a + b).0, [11.0, 22.0, 33.0, 44.0]);
        assert_eq!((b - a).0, [9.0, 18.0, 27.0, 36.0]);
        assert_eq!((a * b).0, [10.0, 40.0, 90.0, 160.0]);
        assert_eq!((b / a).0, [10.0, 10.0, 10.0, 10.0]);
        assert_eq!((-a).0, [-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn load_store_roundtrip() {
        let src = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let v = VecF32::<4>::load(&src, 1);
        assert_eq!(v.0, [1.0, 2.0, 3.0, 4.0]);
        let mut dst = [0.0f32; 6];
        v.store(&mut dst, 2);
        assert_eq!(dst, [0.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f32::load(&src, 5), 5.0);
        7.0f32.store(&mut dst, 0);
        assert_eq!(dst[0], 7.0);
    }

    #[test]
    fn gather_pulls_scattered_lanes() {
        let src = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0];
        assert_eq!(
            VecF32::<4>::load_strided(&src, 1, 2).0,
            [11.0, 13.0, 15.0, 17.0]
        );
        assert_eq!(VecF32::<4>::load_strided(&src, 0, 0).0, [10.0; 4]);
        assert_eq!(f32::load_strided(&src, 3, 5), 13.0);
    }

    #[test]
    fn math_lanes_match_scalar() {
        let v = VecF32([1.0, 4.0, 9.0, 16.0]);
        assert_eq!(v.sqrt().0, [1.0, 2.0, 3.0, 4.0]);
        for k in 0..4 {
            assert!((v.exp()[k] - v[k].exp()).abs() < v[k].exp() * 1e-6);
            assert!((v.ln()[k] - v[k].ln()).abs() < 1e-6);
        }
    }

    #[test]
    fn select_blends() {
        let a = VecF32::<4>::splat(1.0);
        let b = VecF32::<4>::splat(2.0);
        let x = VecF32([1.0, -1.0, 0.5, 0.0]);
        let r = x.select_gt(VecF32::<4>::splat(0.0), a, b);
        assert_eq!(r.0, [1.0, 2.0, 1.0, 2.0]);
        assert_eq!(1.0f32.select_gt(0.0, 3.0, 4.0), 3.0);
        assert_eq!(0.0f32.select_gt(0.0, 3.0, 4.0), 4.0);
    }

    #[test]
    fn min_max() {
        let a = VecF32([1.0, 5.0, 3.0, 8.0]);
        let b = VecF32([2.0, 4.0, 3.0, 7.0]);
        assert_eq!(a.min(b).0, [1.0, 4.0, 3.0, 7.0]);
        assert_eq!(a.max(b).0, [2.0, 5.0, 3.0, 8.0]);
    }

    #[test]
    fn width_is_const() {
        assert_eq!(<f32 as Lane>::WIDTH, 1);
        assert_eq!(VecF32::<4>::WIDTH, 4);
        assert_eq!(VecF32::<8>::WIDTH, 8);
    }

    /// One body over `T: Lane` exercising every op.
    fn body<T: Lane>(x: T, y: T) -> [T; 4] {
        let d = x - y * T::splat(0.5);
        let (s, c) = (x * T::splat(3.1)).sin_cos();
        let m = d.abs().sqrt().min(x.max(y)) / (y.abs() + T::splat(1.0));
        let e = (-(x * x)).exp() + (y.abs() + T::splat(0.1)).ln();
        [m, e, d.select_gt(T::splat(0.0), s, c), s * c]
    }

    #[test]
    fn lane_ops_are_f32_ops_bit_for_bit() {
        let xs: Vec<f32> = (0..64).map(|i| (i as f32 - 31.5) * 0.37).collect();
        let ys: Vec<f32> = (0..64)
            .map(|i| ((i * 7) % 64) as f32 * 0.21 - 5.0)
            .collect();
        for i in (0..64).step_by(4) {
            let lanes = body(VecF32::<4>::load(&xs, i), VecF32::<4>::load(&ys, i));
            for k in 0..4 {
                let scalar = body(xs[i + k], ys[i + k]);
                for (l, s) in lanes.iter().zip(scalar) {
                    assert_eq!(
                        l[k].to_bits(),
                        s.to_bits(),
                        "x {} y {}",
                        xs[i + k],
                        ys[i + k]
                    );
                }
            }
        }
    }
}
