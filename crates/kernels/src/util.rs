//! Seeded workload generation and numeric comparison helpers.

/// Deterministic vector of `n` floats in `[lo, hi)`.
pub fn random_f32(seed: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    cl_util::rng::random_f32(seed, n, lo, hi)
}

/// Deterministic vector of `n` u32 values below `bound`.
pub fn random_u32(seed: u64, n: usize, bound: u32) -> Vec<u32> {
    cl_util::rng::random_u32(seed, n, bound)
}

/// Largest relative error between two float slices (absolute error where
/// the reference magnitude is below `floor`). A NaN in either slice counts
/// as an infinite error, so the result is never finite and an `err < tol`
/// or `err > tol` check rejects it.
pub fn max_rel_error(got: &[f32], want: &[f32], floor: f32) -> f32 {
    assert_eq!(got.len(), want.len(), "length mismatch");
    got.iter()
        .zip(want)
        .map(|(&g, &w)| {
            let denom = w.abs().max(floor);
            let e = (g - w).abs() / denom;
            // `f32::max` below would drop a NaN; a select keeps the fold
            // vectorizable, unlike a NaN-propagating branch.
            if e.is_nan() {
                f32::INFINITY
            } else {
                e
            }
        })
        .fold(0.0, f32::max)
}

/// Panic with the first offending index if `got` and `want` differ by more
/// than `tol` relative error.
pub fn assert_close(got: &[f32], want: &[f32], tol: f32) {
    assert_eq!(got.len(), want.len(), "length mismatch");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let denom = w.abs().max(1e-5);
        let rel = (g - w).abs() / denom;
        assert!(
            rel <= tol,
            "index {i}: got {g}, want {w} (rel err {rel:.3e} > {tol:.1e})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_per_seed() {
        assert_eq!(random_f32(7, 16, 0.0, 1.0), random_f32(7, 16, 0.0, 1.0));
        assert_ne!(random_f32(7, 16, 0.0, 1.0), random_f32(8, 16, 0.0, 1.0));
    }

    #[test]
    fn random_respects_bounds() {
        let v = random_f32(1, 1000, -2.0, 3.0);
        assert!(v.iter().all(|&x| (-2.0..3.0).contains(&x)));
        let u = random_u32(1, 1000, 10);
        assert!(u.iter().all(|&x| x < 10));
    }

    #[test]
    fn rel_error_math() {
        let e = max_rel_error(&[1.0, 2.2], &[1.0, 2.0], 1e-5);
        assert!((e - 0.1).abs() < 1e-6);
    }

    #[test]
    fn rel_error_of_an_all_nan_output_is_not_finite() {
        assert!(!max_rel_error(&[f32::NAN; 4], &[1.0; 4], 1e-5).is_finite());
    }

    #[test]
    fn rel_error_of_a_single_nan_is_not_finite() {
        let got = [1.0, f32::NAN, 3.0, 4.0];
        let want = [1.0, 2.0, 3.0, 4.0];
        assert!(!max_rel_error(&got, &want, 1e-5).is_finite());
        assert!(!max_rel_error(&want, &got, 1e-5).is_finite());
    }

    #[test]
    #[should_panic(expected = "index 1")]
    fn assert_close_names_the_culprit() {
        assert_close(&[1.0, 9.0], &[1.0, 2.0], 1e-3);
    }
}
