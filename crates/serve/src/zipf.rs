//! Zipf-distributed keys over the in-tree PCG (seeded, so both
//! backends replay the same key sequence) — what a client of the KV
//! or file server draws its next request from.

use chanos_rt::Pcg32;

/// A zipf(θ) sampler over ranks `0..n` (rank 0 most popular),
/// sampled by binary search over the precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the CDF for `n` keys with skew `theta` (0 = uniform;
    /// 0.99 is the YCSB default).
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank in `[0, n)`.
    pub fn sample(&self, rng: &mut Pcg32) -> u64 {
        let u = f64::from(rng.next_u32()) / (f64::from(u32::MAX) + 1.0);
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_complete() {
        let z = Zipf::new(1000, 0.99);
        assert!(z.cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Pcg32::new(42);
        let mut hot = 0u32;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                hot += 1;
            }
        }
        // Top-1% of ranks should carry far more than 1% of draws.
        assert!(hot > 2000, "only {hot}/10000 draws hit the hot set");
    }
}
