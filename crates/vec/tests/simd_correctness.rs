//! Property tests: every SIMD lane operation agrees with its scalar
//! counterpart on seeded-random inputs, for both supported widths.
//!
//! The workspace builds offline, so these sweeps are hand-rolled seeded
//! loops rather than proptest strategies.

use cl_vec::{Lane, VecF32};

/// Deterministic xorshift64* stream, kept local so cl-vec stays
/// dependency-free (it is the root of the workspace dependency graph).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi)`.
    fn f32(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + unit * (hi - lo)
    }

    fn usize(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Bounded to avoid inf/NaN arithmetic edge cases; lane ops are IEEE
    /// pass-throughs either way.
    fn finite(&mut self) -> f32 {
        self.f32(-1e6, 1e6)
    }

    fn pos(&mut self) -> f32 {
        self.f32(1e-3, 1e4)
    }

    fn array<const N: usize>(&mut self) -> [f32; N] {
        std::array::from_fn(|_| self.finite())
    }
}

const CASES: usize = 128;

#[test]
fn binary_ops_match_scalar_4() {
    let mut rng = Rng::new(0x51);
    for _ in 0..CASES {
        let a: [f32; 4] = rng.array();
        let b: [f32; 4] = rng.array();
        let va = VecF32(a);
        let vb = VecF32(b);
        for k in 0..4 {
            assert_eq!((va + vb)[k], a[k] + b[k]);
            assert_eq!((va - vb)[k], a[k] - b[k]);
            assert_eq!((va * vb)[k], a[k] * b[k]);
            assert_eq!(va.min(vb)[k], a[k].min(b[k]));
            assert_eq!(va.max(vb)[k], a[k].max(b[k]));
            assert_eq!((-va)[k], -a[k]);
        }
    }
}

#[test]
fn binary_ops_match_scalar_8() {
    let mut rng = Rng::new(0x52);
    for _ in 0..CASES {
        let a: [f32; 8] = rng.array();
        let b: [f32; 8] = rng.array();
        let va = VecF32(a);
        let vb = VecF32(b);
        for k in 0..8 {
            assert_eq!((va * vb + va)[k], a[k] * b[k] + a[k]);
        }
    }
}

#[test]
fn math_fns_match_scalar() {
    let mut rng = Rng::new(0x54);
    for _ in 0..CASES {
        let a: [f32; 4] = std::array::from_fn(|_| rng.pos());
        let v = VecF32(a);
        for (k, &x) in a.iter().enumerate() {
            assert_eq!(v.sqrt()[k], x.sqrt());
            assert_eq!(v.ln()[k], <f32 as Lane>::ln(x));
            assert_eq!(v.exp()[k], <f32 as Lane>::exp(x));
        }
    }
}

#[test]
fn select_is_lanewise() {
    let mut rng = Rng::new(0x56);
    for _ in 0..CASES {
        let x: [f32; 4] = std::array::from_fn(|_| if rng.bool() { 1.0 } else { -1.0 });
        let a: [f32; 4] = rng.array();
        let b: [f32; 4] = rng.array();
        let r = VecF32(x).select_gt(VecF32::splat(0.0), VecF32(a), VecF32(b));
        for k in 0..4 {
            assert_eq!(r[k], if x[k] > 0.0 { a[k] } else { b[k] });
        }
    }
}

#[test]
fn gather_matches_indexing() {
    let mut rng = Rng::new(0x59);
    for _ in 0..CASES {
        let len = 1 + rng.usize(63);
        let src: Vec<f32> = (0..len).map(|_| rng.finite()).collect();
        let stride = rng.usize(len.div_ceil(4));
        let first = rng.usize(len - 3 * stride);
        let v = VecF32::<4>::load_strided(&src, first, stride);
        for k in 0..4 {
            assert_eq!(v[k], src[first + k * stride]);
        }
    }
}

#[test]
fn load_store_roundtrip_any_offset() {
    let mut rng = Rng::new(0x5A);
    for _ in 0..CASES {
        let len = 8 + rng.usize(56);
        let data: Vec<f32> = (0..len).map(|_| rng.finite()).collect();
        let off = rng.usize(data.len() - 7);
        let v = VecF32::<8>::load(&data, off);
        let mut out = vec![0.0f32; data.len()];
        v.store(&mut out, off);
        assert_eq!(&out[off..off + 8], &data[off..off + 8]);
    }
}
