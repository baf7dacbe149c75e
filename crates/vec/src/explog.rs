//! Branch-free `exp` and `ln` for kernel bodies.
//!
//! Like [`crate::sin_cos`], these are the transcendental calls a CPU
//! OpenCL compiler vectorizes across workitems (the paper's Section
//! III-F): no libm call and no branch, so `Lane::exp`/`Lane::ln` run them
//! on each of `W` lanes as SIMD, and a lane step agrees with its scalar
//! items bit for bit. Special inputs are folded in by selects.

const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// `1.5·2²³`: adding it to a float in `[−2²², 2²²)` rounds away the
/// fraction and leaves the nearest integer in the low mantissa bits.
const ROUND: f32 = 12_582_912.0;
/// ln 2 in two pieces (Cody–Waite), for `exp`'s reduction and `ln`'s
/// `e·ln 2`. The first is 0.693359375, 9 significant bits, so `n·LN2_HI`
/// is exact for `|n| < 2¹⁵`.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Inputs clamped to `[EXP_LO, EXP_HI]`: `exp` rounds to 0 below and
/// overflows to `+inf` above, so the clamp changes no result.
const EXP_LO: f32 = -104.0;
const EXP_HI: f32 = 89.0;
/// Minimax `exp` polynomial on `[−ln 2/2, ln 2/2]` (Cephes `expf`).
const E: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_6e-1,
    0.5,
];
/// Minimax coefficients of `R(z) = LG[0]·z + LG[1]·z² + LG[2]·z³ +
/// LG[3]·z⁴`, `z = s²`, in `ln(1 + f) = f − f²/2 + s·(f²/2 + R)` with
/// `s = f/(2 + f)`, on `|s| ≤ 0.1716` (FreeBSD msun's `logf`).
const LG: [f32; 4] = [6.666_666e-1, 4.000_097_2e-1, 2.849_878_7e-1, 2.427_907_9e-1];
/// The bits of √½. `ln` adds `bits(1.0) − bits(√½)` to the bits of `x`, so
/// that the exponent field steps up at mantissa √½ rather than at 1 and
/// the mantissa `m` lies in `[√½, √2)`.
const SQRT_HALF_BITS: u32 = 0x3f35_04f3;
/// `2²⁵`: scales a subnormal input into the normal range.
const SUBNORMAL_SCALE: f32 = 33_554_432.0;

/// `if c { a } else { b }` as a bit blend under the all-ones or all-zeros
/// mask of `c`. Written as `if`, the selects of `ln`'s special inputs
/// compile to branches and the lane loop stays scalar.
#[inline(always)]
fn select(c: bool, a: f32, b: f32) -> f32 {
    let m = 0u32.wrapping_sub(c as u32);
    f32::from_bits((a.to_bits() & m) | (b.to_bits() & !m))
}

/// `2ⁿ` for `n` in `[−126, 127]`, built in the exponent bits.
#[inline(always)]
fn pow2(n: i32) -> f32 {
    f32::from_bits((n.wrapping_add(127) as u32) << 23)
}

/// `eˣ` with no libm call and no branch.
///
/// Within 1e-7 relative of the exact value (one ulp of the correctly
/// rounded result; 8.1e-8 measured over every 7th f32) wherever the result
/// is a normal float; a subnormal result is off by at most one unit of the
/// subnormal step. `x` above
/// ln(`f32::MAX`) gives `+inf`, below −103.97 gives `+0`, `±inf` gives
/// `+inf`/`+0` and NaN gives NaN.
///
/// The steps: clamp `x` (the clamp keeps NaN), take `n = round(x·log₂e)`
/// by the `1.5·2²³` add/subtract trick, reduce `r = x − n·ln 2` Cody–Waite,
/// evaluate the polynomial on `r`, and scale by `2ⁿ` as two factors
/// `2^(n>>1)·2^(n − n>>1)` built in the exponent bits, so that a subnormal
/// or overflowing result is rounded once, by the last multiply.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let x = select(x < EXP_LO, EXP_LO, x);
    let x = select(x > EXP_HI, EXP_HI, x);
    let t = x * LOG2_E + ROUND;
    let n = (t.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let nf = t - ROUND;
    let r = x - nf * LN2_HI - nf * LN2_LO;
    let mut p = E[0];
    for c in &E[1..] {
        p = p * r + c;
    }
    let p = p * (r * r) + r + 1.0;
    let half = n >> 1;
    p * pow2(half) * pow2(n.wrapping_sub(half))
}

/// `ln x` with no libm call and no branch.
///
/// Within 5e-8 absolute of the exact value for `x` in `[0.5, 2]`, and
/// within 1e-7 relative elsewhere, subnormal `x` included. `ln(+inf) =
/// +inf`, `ln(±0) = −inf`, and a negative `x`, `−inf` or NaN gives NaN.
///
/// The steps: scale a subnormal `x` by 2²⁵, split it as `m·2ᵉ` with `m`
/// in `[√½, √2)` by integer operations on its bits, and with `f = m − 1`
/// and `s = f/(2 + f)` evaluate `ln m = f − f²/2 + s·(f²/2 + R(s²))`; add
/// `e·ln 2` Cody–Waite. The special inputs replace the result by selects.
///
/// This is the `logf` of FreeBSD msun rather than Cephes': Cephes' nine
/// term polynomial in `f` is one long Horner chain, and LLVM vectorizes
/// only part of it across four lanes, so its lane step ran about half
/// scalar and took twice as long.
#[inline(always)]
pub fn ln(x: f32) -> f32 {
    let sub = x < f32::MIN_POSITIVE;
    let bits = select(sub, x * SUBNORMAL_SCALE, x).to_bits();
    let bits = bits.wrapping_add(0x3f80_0000 - SQRT_HALF_BITS);
    let e = (bits >> 23) as i32 - 127 - 25 * sub as i32;
    let f = f32::from_bits((bits & 0x007f_ffff) + SQRT_HALF_BITS) - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let r = z * (LG[0] + w * LG[2]) + w * (LG[1] + w * LG[3]);
    let half_f2 = 0.5 * f * f;
    let ef = e as f32;
    let r = s * (half_f2 + r) + ef * LN2_LO - half_f2 + f + ef * LN2_HI;
    // Special inputs: +inf and NaN return themselves, ±0 gives −inf and a
    // negative `x` (−inf included) gives NaN.
    let r = select(x < f32::INFINITY, r, x);
    let r = select(x == 0.0, f32::NEG_INFINITY, r);
    select(x < 0.0, f32::NAN, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lane, VecF32};

    /// `|got − want| / |want|` in f64, or the absolute difference where the
    /// exact value is 0.
    fn rel(got: f32, want: f64) -> f64 {
        let d = (got as f64 - want).abs();
        if want == 0.0 {
            d
        } else {
            d / want.abs()
        }
    }

    #[test]
    fn exp_within_1e7_relative_on_a_dense_sweep() {
        // Every normal result: x in [−87.3, 88.7].
        let n = 2_000_000;
        let mut worst = (0.0f64, 0.0f32);
        for i in 0..=n {
            let x = (-87.3 + 176.0 * (i as f64 / n as f64)) as f32;
            let e = rel(exp(x), (x as f64).exp());
            if e > worst.0 {
                worst = (e, x);
            }
        }
        assert!(worst.0 < 1e-7, "error {:e} at x = {}", worst.0, worst.1);
    }

    #[test]
    fn exp_subnormal_results_round_once() {
        // Results below f32::MIN_POSITIVE: within one subnormal step.
        let step = f32::from_bits(1) as f64;
        for i in 0..=20_000 {
            let x = -87.4 - 16.6 * (i as f32 / 20_000.0);
            let d = (exp(x) as f64 - (x as f64).exp()).abs();
            assert!(d <= step, "exp({x}) = {:e}, off by {d:e}", exp(x));
        }
    }

    #[test]
    fn ln_within_bounds_on_a_dense_sweep() {
        // [0.5, 2] absolute, then every binade from the smallest subnormal
        // to f32::MAX relative (through the bits, so each binade is hit).
        for i in 0..=1_000_000 {
            let x = 0.5 + 1.5 * (i as f32 / 1_000_000.0);
            let d = (ln(x) as f64 - (x as f64).ln()).abs();
            assert!(d < 5e-8, "ln({x}) off by {d:e}");
        }
        let mut worst = (0.0f64, 0.0f32);
        let mut bits = 1u32;
        while bits < f32::INFINITY.to_bits() {
            let x = f32::from_bits(bits);
            if !(0.5..=2.0).contains(&x) {
                let e = rel(ln(x), (x as f64).ln());
                if e > worst.0 {
                    worst = (e, x);
                }
            }
            bits += 997;
        }
        assert!(worst.0 < 1e-7, "error {:e} at x = {:e}", worst.0, worst.1);
    }

    #[test]
    fn special_values() {
        let inf = f32::INFINITY;
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(inf), inf);
        assert_eq!(exp(-inf).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(88.8), inf, "overflow");
        assert_eq!(exp(1e30), inf);
        assert_eq!(exp(-104.0).to_bits(), 0.0f32.to_bits(), "underflow");
        assert_eq!(exp(-1e30).to_bits(), 0.0f32.to_bits());
        assert!(exp(88.7).is_finite() && exp(-103.9) > 0.0);
        assert_eq!(exp(f32::from_bits(1)), 1.0, "subnormal input");
        assert!(exp(f32::NAN).is_nan());

        assert_eq!(ln(1.0), 0.0);
        assert_eq!(ln(inf), inf);
        assert_eq!(ln(0.0), -inf);
        assert_eq!(ln(-0.0), -inf);
        assert!(ln(-1.0).is_nan());
        assert!(ln(-f32::from_bits(1)).is_nan());
        assert!(ln(-inf).is_nan());
        assert!(ln(f32::NAN).is_nan());
        let tiny = f32::from_bits(1);
        assert!(rel(ln(tiny), (tiny as f64).ln()) < 1e-7, "subnormal");
        assert!(rel(ln(f32::MAX), (f32::MAX as f64).ln()) < 1e-7);
    }

    /// Inputs for the bit-identity check: the special values, the clamp
    /// edges, and sweeps across both functions' ranges.
    fn inputs() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::MAX,
            EXP_LO,
            EXP_HI,
            -87.4,
            88.72,
        ];
        xs.extend((0..4096).map(|i| (i as f32 - 2048.0) * 0.0511));
        xs.extend((1..4096u32).map(|i| f32::from_bits(i * 0x7_f7ff)));
        xs
    }

    fn lanes_match<const W: usize>(xs: &[f32]) {
        for chunk in xs.chunks(W) {
            let v = VecF32::<W>(std::array::from_fn(|k| chunk[k % chunk.len()]));
            let (e, l) = (v.exp(), v.ln());
            for k in 0..W {
                assert_eq!(
                    e[k].to_bits(),
                    exp(v[k]).to_bits(),
                    "exp lane {k} of {:?}",
                    v.0
                );
                assert_eq!(
                    l[k].to_bits(),
                    ln(v[k]).to_bits(),
                    "ln lane {k} of {:?}",
                    v.0
                );
            }
        }
    }

    #[test]
    fn lanes_are_bit_identical_to_scalar() {
        let xs = inputs();
        lanes_match::<4>(&xs);
        lanes_match::<8>(&xs);
        for &x in &xs {
            assert_eq!(<f32 as Lane>::exp(x).to_bits(), exp(x).to_bits());
            assert_eq!(<f32 as Lane>::ln(x).to_bits(), ln(x).to_bits());
        }
    }
}
