//! Deterministic randomness: a SplitMix64 generator and a Zipf sampler.
//!
//! Every input the benchmark generates derives from `--seed` through
//! these two types, so one seed always yields the same corpus and the
//! same operation stream.

/// SplitMix64: tiny, fast, and good enough for workload generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for sub-task `k` of the same seed.
    pub fn fork(&mut self, k: u64) -> Rng {
        Rng::new(self.next_u64() ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf popularity over `n` items: rank `r` (0-based) is drawn with weight
/// `1 / (r + 1)^s`. Ranks are mapped to items through a seeded
/// permutation, so popularity does not follow creation order.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<u32>,
}

impl Zipf {
    /// A sampler over `0..n` (`n > 0`) with exponent `s`.
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        assert!(n > 0, "Zipf over an empty set");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut item_of_rank: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut item_of_rank);
        Zipf { cdf, item_of_rank }
    }

    /// One item in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.item_of_rank[rank] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zipf_concentrates_on_few_items() {
        let mut r = Rng::new(1);
        let z = Zipf::new(1000, 1.0, &mut r);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = counts[..10].iter().sum();
        assert!(top10 > 20_000 / 5, "top 10 of 1000 items drew {top10}");
    }
}
