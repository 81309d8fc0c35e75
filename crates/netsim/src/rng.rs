//! Deterministic random number generation.
//!
//! Everything random in the workspace flows through this generator:
//! xoshiro256** seeded via SplitMix64, both implemented here so results are
//! identical across platforms and independent of external crate versions.
//! `Rng::fork` derives statistically independent child streams, which lets
//! campaigns shard work across threads while staying reproducible.

/// Deterministic PRNG (xoshiro256**).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent child generator, keyed by `stream`.
    ///
    /// Forking with distinct stream IDs from the same parent yields
    /// non-overlapping sequences (the child is re-seeded through SplitMix64
    /// with the parent's next output mixed with the stream ID).
    pub fn fork(&mut self, stream: u64) -> Rng {
        let mix = self.next_u64() ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
        Rng::new(mix)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`; panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's unbiased multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform usize index in `[0, len)`.
    pub fn index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(hi >= lo, "range_f64 requires hi >= lo");
        lo + self.f64() * (hi - lo)
    }

    /// Standard normal deviate (Box–Muller, one value per call).
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.f64().max(1e-300);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Log-normal deviate: `exp(N(mu, sigma))`.
    ///
    /// Heavy-tailed — used for end-host processing delays, the mechanism
    /// the paper holds responsible for spin-bit RTT overestimation.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential deviate with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        -mean * self.f64().max(1e-300).ln()
    }

    /// Samples an index from a slice of non-negative finite weights.
    /// Panics if a weight is negative or not finite, or if the weights
    /// are empty or all zero. For repeated draws from the same weights,
    /// build a [`WeightedTable`] once instead: it draws identically
    /// without re-summing the slice.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        scan(weights, checked_total(weights), self)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

/// A weight vector validated and summed once, for repeated weighted
/// draws. [`WeightedTable::sample`] consumes the same single `f64` draw
/// and returns the same index as [`Rng::weighted_index`] over the same
/// weights; it only skips re-summing them on every call.
#[derive(Debug, Clone)]
pub struct WeightedTable {
    weights: Vec<f64>,
    total: f64,
}

impl WeightedTable {
    /// Builds a table. Panics under the same conditions as
    /// [`Rng::weighted_index`].
    pub fn new(weights: Vec<f64>) -> Self {
        let total = checked_total(&weights);
        WeightedTable { weights, total }
    }

    /// Samples an index with probability proportional to its weight.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        scan(&self.weights, self.total, rng)
    }
}

/// The left-to-right sum of `weights`, after checking that every weight
/// is finite and non-negative and that the sum is positive and finite.
/// The order of the sum is part of the draw: a reordered or compensated
/// sum moves `target` by an ulp and can change the sampled index.
fn checked_total(weights: &[f64]) -> f64 {
    if let Some((i, w)) = weights
        .iter()
        .enumerate()
        .find(|(_, w)| !(w.is_finite() && **w >= 0.0))
    {
        panic!("weights must be finite and non-negative: weight {i} is {w}");
    }
    let total: f64 = weights.iter().sum();
    assert!(
        total > 0.0 && total.is_finite(),
        "weights must sum to a positive finite value"
    );
    total
}

/// One weighted draw: scale a uniform draw by `total`, then subtract
/// weights in order until the remainder falls below one. Rounding can
/// leave the remainder at or above every weight; the last index is then
/// the answer.
fn scan(weights: &[f64], total: f64, rng: &mut Rng) -> usize {
    let mut target = rng.f64() * total;
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut parent1 = Rng::new(7);
        let mut parent2 = Rng::new(7);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut parent = Rng::new(7);
        let mut x = parent.fork(1);
        let mut parent = Rng::new(7);
        let mut y = parent.fork(2);
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn next_below_in_bounds_and_covers() {
        let mut rng = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_is_unit_interval_and_roughly_uniform() {
        let mut rng = Rng::new(11);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_rate_matches_probability() {
        let mut rng = Rng::new(9);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(13);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let v = rng.normal();
            sum += v;
            sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_is_positive_and_heavy_tailed() {
        let mut rng = Rng::new(17);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.lognormal(0.0, 1.0)).collect();
        assert!(samples.iter().all(|&v| v > 0.0));
        // Median should be close to exp(mu) = 1.
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
        // Heavy tail: max far above median.
        assert!(sorted[sorted.len() - 1] > 10.0);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng::new(19);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Rng::new(23);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn weighted_index_rejects_zero_total() {
        Rng::new(1).weighted_index(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "weight 0 is -1")]
    fn weighted_index_rejects_negative_weight() {
        // The sum (1.0) is positive, so only the per-weight check catches
        // this; unchecked, every draw would land on index 1.
        Rng::new(1).weighted_index(&[-1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "weight 1 is NaN")]
    fn weighted_table_rejects_nan_weight() {
        WeightedTable::new(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "weight 2 is inf")]
    fn weighted_table_rejects_infinite_weight() {
        WeightedTable::new(vec![1.0, 2.0, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn weighted_table_rejects_empty() {
        WeightedTable::new(Vec::new());
    }

    /// The one-shot draw as it was before the table existed, kept as the
    /// reference both forms must match draw for draw.
    fn reference_weighted_index(rng: &mut Rng, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut target = rng.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Weights from `(selector, exponent)` pairs: zero when the selector
    /// is 0 (one time in four), otherwise `10^exponent`, so the weights
    /// span 1e-9..1e9.
    fn weights_from(raw: &[(u8, f64)]) -> Vec<f64> {
        raw.iter()
            .map(|&(k, e)| if k == 0 { 0.0 } else { 10f64.powf(e) })
            .collect()
    }

    /// Draws 32 times through the table, the slice form and the
    /// reference from equal generators; every index and the final
    /// generator state must agree.
    fn same_draws(seed: u64, weights: &[f64]) -> Result<(), proptest::TestCaseError> {
        proptest::prop_assume!(weights.iter().any(|&w| w > 0.0));
        let table = WeightedTable::new(weights.to_vec());
        let mut by_table = Rng::new(seed);
        let mut by_slice = Rng::new(seed);
        let mut by_reference = Rng::new(seed);
        for _ in 0..32 {
            let i = table.sample(&mut by_table);
            proptest::prop_assert_eq!(i, by_slice.weighted_index(weights));
            proptest::prop_assert_eq!(i, reference_weighted_index(&mut by_reference, weights));
        }
        proptest::prop_assert_eq!(format!("{by_table:?}"), format!("{by_slice:?}"));
        proptest::prop_assert_eq!(format!("{by_table:?}"), format!("{by_reference:?}"));
        Ok(())
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = Rng::new(29);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "unlikely identity shuffle");
    }

    proptest::proptest! {
        #[test]
        fn prop_next_below_bound(seed: u64, bound in 1u64..1_000_000) {
            let mut rng = Rng::new(seed);
            for _ in 0..16 {
                proptest::prop_assert!(rng.next_below(bound) < bound);
            }
        }

        #[test]
        fn prop_range_f64(seed: u64, lo in -100.0f64..100.0, span in 0.0f64..100.0) {
            let mut rng = Rng::new(seed);
            let hi = lo + span;
            let v = rng.range_f64(lo, hi);
            proptest::prop_assert!(v >= lo && (v < hi || span == 0.0));
        }

        #[test]
        fn prop_table_matches_one_shot_draw_short(
            seed: u64,
            raw in proptest::collection::vec((0u8..4, -9.0f64..=9.0), 1..=4),
        ) {
            same_draws(seed, &weights_from(&raw))?;
        }

        #[test]
        fn prop_table_matches_one_shot_draw_long(
            seed: u64,
            raw in proptest::collection::vec((0u8..4, -9.0f64..=9.0), 1..=2_000),
        ) {
            same_draws(seed, &weights_from(&raw))?;
        }
    }
}
