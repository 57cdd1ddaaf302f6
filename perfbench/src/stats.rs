//! The benchmark's own arithmetic: the percentile rule, the seeded input
//! generators (SplitMix64, Zipf ranks, permutations), open-loop latency
//! accounting, and knee detection on a rate ladder.
//!
//! Everything here is pure (no clocks, no sockets), so the unit tests at
//! the bottom pin each rule on synthetic data.

use std::time::Duration;

/// SplitMix64. The benchmark keeps its own generator so that its inputs
/// stay the same when the library's generators change.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Zipf-distributed ranks in `0..n`: rank `r` has weight `1/(r+1)^s`.
/// Sampling inverts a precomputed CDF, so a draw costs one binary search
/// and the sequence depends only on the generator's seed.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of sorted samples.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    // The tolerance keeps `0.999 × 10000` from rounding up past 9990.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank) of a non-empty sample, in any order.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

/// Samples that must lie beyond a reported percentile.
pub const TAIL_BEYOND: usize = 10;

/// The percentile rule: the `p`-th percentile of `samples` (nearest rank),
/// or `None` when fewer than [`TAIL_BEYOND`] samples lie beyond it. A
/// metric named for one percentile is read through this, so it is never
/// reported at another.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let beyond = samples.len() as f64 * (1.0 - p / 100.0);
    if beyond + 1e-9 < TAIL_BEYOND as f64 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(nearest_rank(&sorted, p / 100.0))
}

/// One request of an open-loop schedule, as the generator saw it. All
/// times are offsets from the start of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// When the schedule said the request should be sent.
    pub due: Duration,
    /// When the generator actually wrote it.
    pub sent: Duration,
    /// When its response was fully read; `None` if it never completed.
    pub done: Option<Duration>,
}

impl Outcome {
    /// Latency charged from the **due** time: a request that waited behind
    /// a stalled server or a late generator pays for the wait.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_sub(self.due))
    }

    /// How late the generator sent it.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Due times of a constant-rate open loop: request `i` is due at `i/rate`.
pub fn due_times(rate: f64, count: usize) -> Vec<Duration> {
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// One rung of the rate ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rate: f64,
    /// Non-200s, wrong answers and requests that never completed.
    pub failed: usize,
    /// The rung's read latency at the knee's percentile (µs); `None`
    /// when the rung has too few samples to resolve it.
    pub tail_us: Option<f64>,
    /// See [`backlog_grew`].
    pub backlog_grew: bool,
}

/// Whether the backlog grew over a rung: more requests were still
/// outstanding when the send window closed than the rate keeps in flight
/// at the latency limit (`rate × limit`, at least one).
pub fn backlog_grew(outstanding_at_close: usize, rate: f64, limit_us: f64) -> bool {
    let allowed = (rate * limit_us / 1e6).ceil().max(1.0);
    outstanding_at_close as f64 > allowed
}

/// The knee: the highest rate such that it and every lower rung met the
/// latency limit with no failures and no growing backlog. `None` when the
/// lowest rung already fails.
pub fn knee(rungs: &[Rung], limit_us: f64) -> Option<f64> {
    let mut sorted = rungs.to_vec();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let mut best = None;
    for r in &sorted {
        let meets = r.failed == 0 && !r.backlog_grew && r.tail_us.is_some_and(|t| t <= limit_us);
        if !meets {
            break;
        }
        best = Some(r.rate);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 1..=1000: p99 has exactly 10 samples beyond it, p99.9 only 1.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(percentile(&xs, 99.9), None);
        // 999 samples leave 9.99 beyond p99: no value rather than a p95.
        assert_eq!(percentile(&xs[..999], 99.0), None);
        assert_eq!(percentile(&xs[..999], 95.0), Some(950.0));
        // 10000 samples reach p99.9, and still give p99 when asked for it.
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.9), Some(9990.0));
        assert_eq!(percentile(&xs, 99.0), Some(9900.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(median(&xs), 500.0);
    }

    #[test]
    fn zipf_sampler_is_deterministic_per_seed_and_skewed() {
        let z = Zipf::new(10_000, 1.1);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..2000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7), "same seed, same sequence");
        assert_ne!(draw(7), draw(8), "another seed, another sequence");
        let xs = draw(7);
        assert!(xs.iter().all(|&r| r < 10_000));
        let top = xs.iter().filter(|&&r| r == 0).count();
        let tail = xs.iter().filter(|&&r| r == 9_999).count();
        assert!(
            top > 100 && tail < 5,
            "rank 0 drawn {top}×, rank 9999 {tail}×"
        );
        // The permutation that maps ranks to vertices is seeded the same way.
        let p = permutation(100, &mut SplitMix64::new(3));
        assert_eq!(p, permutation(100, &mut SplitMix64::new(3)));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn a_stalled_server_is_charged_from_the_due_time() {
        // Ten requests due every 10 ms; the generator sends each on time,
        // but the server stalls until t = 200 ms and then answers all of
        // them at once.
        let ms = Duration::from_millis;
        let outcomes: Vec<Outcome> = due_times(100.0, 10)
            .into_iter()
            .map(|due| Outcome {
                due,
                sent: due,
                done: Some(ms(200)),
            })
            .collect();
        let lat: Vec<Duration> = outcomes.iter().map(|o| o.latency().unwrap()).collect();
        assert_eq!(lat[0], ms(200), "the first request waited the whole stall");
        assert_eq!(lat[9], ms(110));
        // A late generator does not hide the wait either: latency still
        // counts from `due`, and the lateness is reported on its own.
        let late = Outcome {
            due: ms(10),
            sent: ms(60),
            done: Some(ms(61)),
        };
        assert_eq!(late.latency(), Some(ms(51)));
        assert_eq!(late.lateness(), ms(50));
        assert_eq!(Outcome { done: None, ..late }.latency(), None);
    }

    #[test]
    fn knee_is_the_last_rung_of_the_passing_prefix() {
        let rung = |rate, tail: f64, failed, grew| Rung {
            rate,
            failed,
            tail_us: Some(tail),
            backlog_grew: grew,
        };
        let limit = 50_000.0;
        let ladder = [
            rung(400.0, 90_000.0, 0, true),
            rung(50.0, 8_000.0, 0, false),
            rung(100.0, 12_000.0, 0, false),
            rung(200.0, 40_000.0, 0, false),
        ];
        assert_eq!(knee(&ladder, limit), Some(200.0));
        // A failure, a growing backlog, or a missing tail ends the prefix,
        // even when a higher rung happens to pass again.
        let mut bumpy = ladder;
        bumpy[2].failed = 1;
        bumpy[0] = rung(400.0, 10_000.0, 0, false);
        assert_eq!(knee(&bumpy, limit), Some(50.0));
        let mut grew = ladder;
        grew[3].backlog_grew = true;
        assert_eq!(knee(&grew, limit), Some(100.0));
        let mut thin = ladder;
        thin[1].tail_us = None;
        assert_eq!(knee(&thin, limit), None);
        // The backlog rule allows what the rate keeps in flight at the limit.
        assert!(!backlog_grew(5, 100.0, 50_000.0));
        assert!(backlog_grew(6, 100.0, 50_000.0));
        assert!(!backlog_grew(1, 1.0, 1_000.0));
    }
}
