//! Seeded inputs the benchmark feeds the program: the open-loop arrival
//! schedule and the order queries are drawn in.
//!
//! The generator is the benchmark's own splitmix64, not the library's RNG,
//! so a change to the program under test can never change its inputs.

use std::time::Duration;

/// splitmix64: a small, fast, full-period generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, decorrelated from other streams of the same
    /// seed by `label`.
    pub fn new(seed: u64, label: u64) -> Self {
        let mut rng = Self(seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..bound` (`bound > 0`).
    pub fn next_index(&mut self, bound: usize) -> usize {
        (self.next_unit() * bound as f64) as usize
    }
}

/// Due times (offsets from the phase start) of a Poisson arrival process
/// at `rate` requests per second, covering `duration`.
pub fn poisson_arrivals(seed: u64, rate: f64, duration: Duration) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed, 0xA441_7A15);
    let end = duration.as_secs_f64();
    let mut t = 0.0f64;
    let mut due = Vec::with_capacity((rate * end * 1.2) as usize + 16);
    loop {
        t += -(1.0 - rng.next_unit()).ln() / rate;
        if t >= end {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// `count` row indices into a table of `rows` rows: consecutive seeded
/// shuffles of `0..rows`, so every row is drawn once per pass.
pub fn query_order(seed: u64, label: u64, rows: usize, count: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed, label);
    let mut order = Vec::with_capacity(count);
    let mut pass: Vec<usize> = (0..rows).collect();
    while order.len() < count {
        for i in (1..rows).rev() {
            pass.swap(i, rng.next_index(i + 1));
        }
        order.extend(pass.iter().take(count - order.len()));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_repeat_for_a_seed_and_differ_across_seeds() {
        let d = Duration::from_secs(2);
        let a = poisson_arrivals(7, 500.0, d);
        assert_eq!(a, poisson_arrivals(7, 500.0, d));
        assert_ne!(a, poisson_arrivals(8, 500.0, d));
    }

    #[test]
    fn arrivals_are_sorted_within_the_phase_at_the_requested_rate() {
        let d = Duration::from_secs(20);
        let due = poisson_arrivals(3, 500.0, d);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&t| t < d));
        // 10k expected arrivals; a Poisson count has sd 100.
        assert!((9_600..10_400).contains(&due.len()), "{}", due.len());
    }

    #[test]
    fn query_order_covers_every_row_once_per_pass() {
        let order = query_order(5, 1, 10, 25);
        assert_eq!(order.len(), 25);
        for pass in order.chunks(10).take(2) {
            let mut seen = pass.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..10).collect::<Vec<_>>());
        }
        assert_eq!(order, query_order(5, 1, 10, 25));
        assert_ne!(order, query_order(6, 1, 10, 25));
    }
}
