//! Portable SIMD lane type.
//!
//! `VecF32<W>` is a `[f32; W]` newtype whose element-wise arithmetic
//! compiles to SIMD at `opt-level ≥ 2` (LLVM auto-vectorizes fixed-size
//! array loops reliably); [`VecF32::exp`] and [`VecF32::ln`] call libm once
//! per lane. The study's kernels use it for both the OpenCL implicit
//! vectorization path (lanes = adjacent workitems) and the vectorized OpenMP
//! loops (lanes = adjacent iterations).

use std::ops::{Add, Div, Index, IndexMut, Mul, Neg, Sub};

/// A fixed-width vector of `f32` lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(16))]
pub struct VecF32<const W: usize>(pub [f32; W]);

/// SSE-width vector (the paper's machine: SSE 4.2, 4 × f32).
pub type F32x4 = VecF32<4>;
/// AVX-width vector (for the SIMD-width ablation).
pub type F32x8 = VecF32<8>;

impl<const W: usize> VecF32<W> {
    /// All lanes set to `v`.
    #[inline]
    pub fn splat(v: f32) -> Self {
        VecF32([v; W])
    }

    /// All lanes zero.
    #[inline]
    pub fn zero() -> Self {
        Self::splat(0.0)
    }

    /// Load `W` consecutive elements from `src` starting at `offset`.
    #[inline]
    pub fn load(src: &[f32], offset: usize) -> Self {
        let mut out = [0.0f32; W];
        out.copy_from_slice(&src[offset..offset + W]);
        VecF32(out)
    }

    /// Gather `src[idx[k]]` into lane `k` (the slow path of non-contiguous
    /// access the paper's Section III-F discusses).
    #[inline]
    pub fn gather(src: &[f32], idx: &[usize; W]) -> Self {
        let mut out = [0.0f32; W];
        for k in 0..W {
            out[k] = src[idx[k]];
        }
        VecF32(out)
    }

    /// Store all lanes to `dst` starting at `offset`.
    #[inline]
    pub fn store(self, dst: &mut [f32], offset: usize) {
        dst[offset..offset + W].copy_from_slice(&self.0);
    }

    /// Fused-style multiply-add: `self * a + b` (lowered to FMA when the
    /// target has it; otherwise mul+add — lane semantics are what matter).
    #[inline]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        VecF32(std::array::from_fn(|k| self.0[k] * a.0[k] + b.0[k]))
    }

    /// Lane-wise square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        VecF32(std::array::from_fn(|k| self.0[k].sqrt()))
    }

    /// Lane-wise reciprocal square root.
    #[inline]
    pub fn rsqrt(self) -> Self {
        VecF32(std::array::from_fn(|k| 1.0 / self.0[k].sqrt()))
    }

    /// Lane-wise natural exponential: one libm call per lane, not SIMD.
    #[inline]
    pub fn exp(self) -> Self {
        VecF32(std::array::from_fn(|k| self.0[k].exp()))
    }

    /// Lane-wise natural logarithm: one libm call per lane, not SIMD.
    #[inline]
    pub fn ln(self) -> Self {
        VecF32(std::array::from_fn(|k| self.0[k].ln()))
    }

    /// Lane-wise minimum.
    #[inline]
    pub fn min(self, o: Self) -> Self {
        VecF32(std::array::from_fn(|k| self.0[k].min(o.0[k])))
    }

    /// Lane-wise maximum.
    #[inline]
    pub fn max(self, o: Self) -> Self {
        VecF32(std::array::from_fn(|k| self.0[k].max(o.0[k])))
    }

    /// Lane-wise select: lane `k` is `a[k]` where `mask[k]`, else `b[k]`
    /// (branchless divergence handling, as a predicating vectorizer emits).
    #[inline]
    pub fn select(mask: [bool; W], a: Self, b: Self) -> Self {
        VecF32(std::array::from_fn(
            |k| if mask[k] { a.0[k] } else { b.0[k] },
        ))
    }

    /// Horizontal sum of all lanes.
    #[inline]
    pub fn hsum(self) -> f32 {
        self.0.iter().sum()
    }

    /// Number of lanes.
    pub const fn width() -> usize {
        W
    }
}

macro_rules! lane_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<const W: usize> $trait for VecF32<W> {
            type Output = Self;
            #[inline]
            fn $method(self, rhs: Self) -> Self {
                VecF32(std::array::from_fn(|k| self.0[k] $op rhs.0[k]))
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
    #[inline]
    fn neg(self) -> Self {
        VecF32(std::array::from_fn(|k| -self.0[k]))
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

/// Apply `f` lane-wise over `src`, writing `dst`, in `W`-wide chunks with a
/// scalar remainder loop — the canonical vectorized elementwise map.
pub fn simd_apply<const W: usize>(
    src: &[f32],
    dst: &mut [f32],
    f: impl Fn(VecF32<W>) -> VecF32<W>,
    scalar: impl Fn(f32) -> f32,
) {
    assert_eq!(src.len(), dst.len());
    let n = src.len();
    let main = n - n % W;
    let mut i = 0;
    while i < main {
        f(VecF32::load(src, i)).store(dst, i);
        i += W;
    }
    for k in main..n {
        dst[k] = scalar(src[k]);
    }
}

/// Two-input variant of [`simd_apply`].
pub fn simd_apply2<const W: usize>(
    a: &[f32],
    b: &[f32],
    dst: &mut [f32],
    f: impl Fn(VecF32<W>, VecF32<W>) -> VecF32<W>,
    scalar: impl Fn(f32, f32) -> f32,
) {
    assert_eq!(a.len(), dst.len());
    assert_eq!(b.len(), dst.len());
    let n = a.len();
    let main = n - n % W;
    let mut i = 0;
    while i < main {
        f(VecF32::load(a, i), VecF32::load(b, i)).store(dst, i);
        i += W;
    }
    for k in main..n {
        dst[k] = scalar(a[k], b[k]);
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
        let v = F32x4::load(&src, 1);
        assert_eq!(v.0, [1.0, 2.0, 3.0, 4.0]);
        let mut dst = [0.0f32; 6];
        v.store(&mut dst, 2);
        assert_eq!(dst, [0.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn gather_pulls_scattered_lanes() {
        let src = [10.0, 11.0, 12.0, 13.0, 14.0];
        let v = F32x4::gather(&src, &[4, 0, 2, 2]);
        assert_eq!(v.0, [14.0, 10.0, 12.0, 12.0]);
    }

    #[test]
    fn mul_add_and_hsum() {
        let a = F32x4::splat(2.0);
        let b = VecF32([1.0, 2.0, 3.0, 4.0]);
        let c = F32x4::splat(1.0);
        let r = a.mul_add(b, c);
        assert_eq!(r.0, [3.0, 5.0, 7.0, 9.0]);
        assert_eq!(r.hsum(), 24.0);
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
        let a = F32x4::splat(1.0);
        let b = F32x4::splat(2.0);
        let r = F32x4::select([true, false, true, false], a, b);
        assert_eq!(r.0, [1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn min_max() {
        let a = VecF32([1.0, 5.0, 3.0, 8.0]);
        let b = VecF32([2.0, 4.0, 3.0, 7.0]);
        assert_eq!(a.min(b).0, [1.0, 4.0, 3.0, 7.0]);
        assert_eq!(a.max(b).0, [2.0, 5.0, 3.0, 8.0]);
    }

    #[test]
    fn simd_apply_handles_remainder() {
        let src: Vec<f32> = (0..11).map(|i| i as f32).collect();
        let mut dst = vec![0.0f32; 11];
        simd_apply::<4>(&src, &mut dst, |v| v * v, |x| x * x);
        for (i, &d) in dst.iter().enumerate() {
            assert_eq!(d, (i * i) as f32);
        }
    }

    #[test]
    fn simd_apply2_adds() {
        let a: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..9).map(|i| (2 * i) as f32).collect();
        let mut dst = vec![0.0f32; 9];
        simd_apply2::<4>(&a, &b, &mut dst, |x, y| x + y, |x, y| x + y);
        for (i, &d) in dst.iter().enumerate() {
            assert_eq!(d, (3 * i) as f32);
        }
    }

    #[test]
    fn width_is_const() {
        assert_eq!(F32x4::width(), 4);
        assert_eq!(F32x8::width(), 8);
    }
}
