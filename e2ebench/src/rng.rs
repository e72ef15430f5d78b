//! A small deterministic generator, so every input is a pure function of
//! the `--seed` argument (independent of any library's stream).

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` below 2^32).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0 && n <= u32::MAX as u64 + 1);
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derive an independent stream seed from a seed and a stream index.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut r = Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    r.next_u64()
}
