//! An exact latency histogram: one bin per integer cycle.
//!
//! `serve::hist::LatencyHist` has log buckets (~6 % wide), so its
//! quantiles read identically run after run; the benchmark's reported
//! quantiles must move when the distribution moves. Here every sample
//! keeps its exact value, and a quantile is interpolated by rank
//! inside the 1-cycle bin that holds it, so two runs with different
//! counts in that bin read differently in the fraction digits.

/// Values below this (65 us of modeled time) are counted in a
/// direct-indexed table that grows to the largest value seen; larger
/// ones are kept individually, which stays small where latencies are
/// spread over milliseconds and a table would be mostly empty.
const DIRECT_MAX: u64 = 1 << 16;

#[derive(Clone, Default)]
pub struct ExactHist {
    bins: Vec<u64>,
    /// Samples in `DIRECT_MAX..2^32`, unsorted.
    over: Vec<u32>,
    /// Samples of 2^32 cycles (4.3 s) and more, unsorted.
    huge: Vec<u64>,
    count: u64,
}

impl ExactHist {
    pub fn new() -> ExactHist {
        ExactHist::default()
    }

    pub fn record(&mut self, v: u64) {
        self.count += 1;
        if v >= DIRECT_MAX {
            match u32::try_from(v) {
                Ok(v) => self.over.push(v),
                Err(_) => self.huge.push(v),
            }
            return;
        }
        let i = v as usize;
        if i >= self.bins.len() {
            self.bins.resize((i + 1).next_power_of_two(), 0);
        }
        self.bins[i] += 1;
    }

    pub fn merge(&mut self, other: &ExactHist) {
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.huge.extend_from_slice(&other.huge);
        self.count += other.count;
    }

    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (0 < q <= 1) in cycles; 0.0 when empty.
    ///
    /// The target rank is `q * count`. The bin of value `v` holding
    /// ranks `(before, before + c]` spans `[v - 0.5, v + 0.5]`, and the
    /// result is `v - 0.5 + (rank - before) / c`: the middle rank of a
    /// bin reads `v` exactly, and the result is monotone in `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).clamp(f64::MIN_POSITIVE, self.count as f64);
        let mut before = 0u64;
        let at = |v: u64, before: u64, c: u64| v as f64 - 0.5 + (rank - before as f64) / c as f64;
        for (v, &c) in self.bins.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= rank {
                return at(v as u64, before, c);
            }
            before += c;
        }
        let mut over: Vec<u64> = self.over.iter().map(|&v| u64::from(v)).collect();
        over.extend_from_slice(&self.huge);
        over.sort_unstable();
        let mut i = 0;
        while i < over.len() {
            let v = over[i];
            let c = over[i..].iter().take_while(|&&x| x == v).count() as u64;
            if (before + c) as f64 >= rank {
                return at(v, before, c);
            }
            before += c;
            i += c as usize;
        }
        unreachable!("rank {rank} lies within count {}", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(samples: &[u64]) -> ExactHist {
        let mut h = ExactHist::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    #[test]
    fn empty_reads_zero() {
        assert_eq!(ExactHist::new().quantile(0.5), 0.0);
    }

    #[test]
    fn one_bin_interpolates_across_its_cycle() {
        // Four samples of 10: ranks (0, 4] span [9.5, 10.5].
        let h = hist(&[10, 10, 10, 10]);
        assert_eq!(h.quantile(0.5), 10.0); // rank 2 of 4: the middle
        assert_eq!(h.quantile(0.25), 9.75);
        assert_eq!(h.quantile(1.0), 10.5);
    }

    #[test]
    fn hand_counted_ranks_across_bins() {
        // Sorted: 1 2 2 3 3 3 7 7 9 100 (n = 10).
        let h = hist(&[3, 1, 2, 7, 3, 2, 9, 3, 100, 7]);
        // q=0.5: rank 5 lies in bin 3 (ranks (3, 6]): 2.5 + 2/3.
        assert!((h.quantile(0.5) - (2.5 + 2.0 / 3.0)).abs() < 1e-12);
        // q=0.1: rank 1 is all of bin 1: 0.5 + 1/1.
        assert_eq!(h.quantile(0.1), 1.5);
        // q=0.75: rank 7.5 lies in bin 7 (ranks (6, 8]): 6.5 + 1.5/2.
        assert_eq!(h.quantile(0.75), 7.25);
        // q=0.99: rank 9.9 lies in bin 100 (ranks (9, 10]): 99.5 + 0.9.
        assert!((h.quantile(0.99) - 100.4).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = hist(&[5, 9, 9, 12, 40, 40, 41, 300, 7, 7, 7]);
        let mut last = 0.0;
        for i in 1..=100 {
            let v = h.quantile(i as f64 / 100.0);
            assert!(v >= last, "q={i}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn values_past_the_direct_table_stay_exact() {
        let big = DIRECT_MAX + 12345;
        let huge = (1u64 << 32) + 7;
        let h = hist(&[1, big, big, DIRECT_MAX * 3, huge]);
        // rank 3 of 5 lies in `big` (ranks (1, 3]).
        assert_eq!(h.quantile(0.6), big as f64 - 0.5 + 2.0 / 2.0);
        assert_eq!(h.quantile(0.8), (DIRECT_MAX * 3) as f64 + 0.5);
        assert_eq!(h.quantile(1.0), huge as f64 + 0.5);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let a = hist(&[1, 5, 5, 70_000]);
        let b = hist(&[5, 9, DIRECT_MAX + 1, 1 << 40]);
        let mut m = a.clone();
        m.merge(&b);
        let all = hist(&[1, 5, 5, 70_000, 5, 9, DIRECT_MAX + 1, 1 << 40]);
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(m.quantile(q), all.quantile(q));
        }
        assert_eq!(m.count(), 8);
    }
}
