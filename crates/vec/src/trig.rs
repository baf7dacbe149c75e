//! Branch-free `sin`/`cos` for kernel bodies.
//!
//! The CPU OpenCL compiler vectorizes transcendental calls across
//! workitems instead of calling libm once per lane (the paper's Section
//! III-F). [`sin_cos`] is that math for one item, and `Lane::sin_cos` runs
//! it on each of `W` lanes: the steps have no call and no branch, so they
//! run as SIMD and a lane step agrees with its scalar items bit for bit.

const SIGN: u32 = 0x8000_0000;
const FRAC_2_PI: f32 = std::f32::consts::FRAC_2_PI;
/// `1.5·2²³`: adding it to a float in `[0, 2²²)` rounds away the fraction
/// and leaves the nearest integer in the low mantissa bits.
const ROUND: f32 = 12_582_912.0;
/// π/2 in three pieces (Cody–Waite). The first two have 8 and 11
/// significant bits, so `q·PIO2_HI` and `q·PIO2_MID` are exact for
/// `q < 2¹³`.
const PIO2_HI: f32 = 1.570_312_5;
const PIO2_MID: f32 = 4.837_513e-4;
const PIO2_LO: f32 = 7.549_79e-8;
/// Minimax `sin` and `cos` polynomials on `[−π/4, π/4]` (Cephes `sinf`,
/// `cosf`).
const S1: f32 = -1.666_665_5e-1;
const S2: f32 = 8.332_161e-3;
const S3: f32 = -1.951_529_6e-4;
const C1: f32 = 4.166_664_6e-2;
const C2: f32 = -1.388_731_6e-3;
const C3: f32 = 2.443_315_7e-5;

/// `(sin x, cos x)` with no libm call and no branch.
///
/// Accurate for `|x| ≤ 1e4`: within 2e-7 absolute of the exact values
/// (the reduction's quadrant count must stay below 2¹³). Past that the
/// result degrades; NaN and infinite inputs give NaN.
///
/// The steps: reduce `|x|` by π/2 — quadrant `q = round(|x|·2/π)` by the
/// `1.5·2²³` add/subtract trick, then `r = |x| − q·π/2` Cody–Waite — and
/// evaluate both polynomials on `r`. Odd quadrants swap the two results;
/// the signs flip by XOR-ing bit 31 with `q & 2` (sine) and `(q + 1) & 2`
/// (cosine), and the sine takes the sign of `x`, so `sin_cos(−x)` is
/// exactly `(−sin x, cos x)`.
#[inline(always)]
pub fn sin_cos(x: f32) -> (f32, f32) {
    let sign = x.to_bits() & SIGN;
    let ax = f32::from_bits(x.to_bits() & !SIGN);
    let t = ax * FRAC_2_PI + ROUND;
    let q = t.to_bits();
    let qf = t - ROUND;
    let r = ax - qf * PIO2_HI - qf * PIO2_MID - qf * PIO2_LO;
    let z = r * r;
    let s = ((S3 * z + S2) * z + S1) * z * r + r;
    let c = ((C3 * z + C2) * z + C1) * z * z - 0.5 * z + 1.0;
    let swap = 0u32.wrapping_sub(q & 1);
    let (sb, cb) = (s.to_bits(), c.to_bits());
    let sin = ((sb & !swap) | (cb & swap)) ^ ((q & 2) << 30) ^ sign;
    let cos = ((cb & !swap) | (sb & swap)) ^ ((q.wrapping_add(1) & 2) << 30);
    (f32::from_bits(sin), f32::from_bits(cos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lane, VecF32};
    use std::f64::consts::PI;

    /// Largest absolute difference of `sin_cos(x)` from f64 `sin`/`cos`.
    fn error(x: f32) -> f64 {
        let (s, c) = sin_cos(x);
        let (es, ec) = (x as f64).sin_cos();
        (s as f64 - es).abs().max((c as f64 - ec).abs())
    }

    /// The quadrant edges ±π/4, ±π/2, ±π, ±3π/2 as f32, with their two
    /// neighbours on each side.
    fn edges() -> Vec<f32> {
        let mut xs = Vec::new();
        for m in [0.25, 0.5, 1.0, 1.5] {
            for sign in [1.0, -1.0] {
                let bits = ((sign * m * PI) as f32).to_bits();
                xs.extend((bits - 2..=bits + 2).map(f32::from_bits));
            }
        }
        xs
    }

    #[test]
    fn within_2e7_of_f64_on_a_dense_sweep() {
        let n = 2_000_000;
        let mut worst = (0.0f64, 0.0f32);
        for i in 0..=n {
            let x = (-1e4 + 2e4 * (i as f64 / n as f64)) as f32;
            let e = error(x);
            if e > worst.0 {
                worst = (e, x);
            }
        }
        assert!(worst.0 < 2e-7, "error {:e} at x = {}", worst.0, worst.1);
    }

    #[test]
    fn quadrant_edges_are_accurate() {
        for x in edges() {
            assert!(error(x) < 2e-7, "error {:e} at x = {x}", error(x));
        }
    }

    #[test]
    fn signed_zeros_and_symmetry() {
        assert_eq!(sin_cos(0.0).0.to_bits(), 0.0f32.to_bits());
        assert_eq!(sin_cos(-0.0).0.to_bits(), (-0.0f32).to_bits());
        assert_eq!(sin_cos(0.0).1, 1.0);
        assert_eq!(sin_cos(-0.0).1, 1.0);
        // sin is odd and cos even, bit for bit.
        for i in 0..=20_000 {
            let x = i as f32 * 0.5137;
            let ((s, c), (ns, nc)) = (sin_cos(x), sin_cos(-x));
            assert_eq!((-s).to_bits(), ns.to_bits(), "sin at ±{x}");
            assert_eq!(c.to_bits(), nc.to_bits(), "cos at ±{x}");
        }
    }

    fn lanes_match<const W: usize>(xs: &[f32]) {
        for chunk in xs.chunks(W) {
            let v = VecF32::<W>(std::array::from_fn(|k| chunk[k % chunk.len()]));
            let (s, c) = v.sin_cos();
            for k in 0..W {
                let (ws, wc) = sin_cos(v[k]);
                assert_eq!(s[k].to_bits(), ws.to_bits(), "sin lane {k} of {:?}", v.0);
                assert_eq!(c[k].to_bits(), wc.to_bits(), "cos lane {k} of {:?}", v.0);
            }
        }
    }

    #[test]
    fn lanes_are_bit_identical_to_scalar() {
        let mut xs = edges();
        xs.extend([0.0, -0.0, 1e4, -1e4]);
        xs.extend((0..4096).map(|i| (i as f32 - 2048.0) * 4.887));
        lanes_match::<4>(&xs);
        lanes_match::<8>(&xs);
    }
}
