//! Seeded input generation: the benchmark makes every input from
//! `--seed`; the program under test only ever receives the generated
//! inputs.

/// xorshift64* — small, fast, and good enough for workload shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`: distinct streams of one seed are
    /// decorrelated by a splitmix64 scramble.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Cumulative Zipf distribution over ranks `0..n` with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf(Vec<f64>);

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Zipf(cum)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = Rng::new(7, 4);
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut r = Rng::new(1, 0);
        let mut low = 0;
        for _ in 0..10_000 {
            let k = z.sample(&mut r);
            assert!(k < 100);
            if k < 10 {
                low += 1;
            }
        }
        // H(10)/H(100) is about 0.56.
        assert!((5_000..6_500).contains(&low), "low = {low}");
    }
}
