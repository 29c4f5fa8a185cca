//! Shared pieces: the seeded generator, order statistics, the metric
//! record every workload reports, and the process's peak memory.

use std::time::Duration;

/// SplitMix64: a small, fast, seedable generator. The benchmark's inputs
/// come only from this stream, so one `--seed` gives one input set.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// A generator for a named sub-stream, so adding draws to one part
    /// of the input never shifts another part.
    pub fn fork(seed: u64, stream: &str) -> Self {
        let salt = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        Rng::new(seed ^ salt)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// An exponential variate with the given rate: the gap between two
    /// arrivals of a Poisson process.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by the nearest-rank rule;
/// `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The median over `windows` of each window's `q`-quantile: a burst of
/// host noise (a stall, a spell of CPU steal) moves the quantile of the
/// windows it hits, not the median window.
pub fn windowed_quantile(windows: &[Vec<f64>], q: f64) -> f64 {
    let per: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, q))
        .collect();
    median(&per)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Whether the result line carries it; every metric is in the
    /// run's table and its result record.
    pub gated: bool,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            gated: true,
        }
    }

    /// A metric the result line leaves out: on a small shared host, the
    /// host's noise moves it between runs of the same code by more than
    /// any bound worth holding it to (see `perfbench/README.md`, Noise).
    pub fn ungated(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            gated: false,
            ..Metric::new(name, unit, value)
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cumulative CPU ticks `(steal, total)` from `/proc/stat`, where the
/// host reports them: time a hypervisor ran something else while this
/// machine's CPUs wanted to run.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn windowed_quantiles_ignore_a_noisy_window() {
        let calm: Vec<f64> = (1..=10).map(f64::from).collect();
        let noisy: Vec<f64> = (1..=10).map(|x| 100.0 * f64::from(x)).collect();
        let windows = vec![calm.clone(), noisy, calm];
        assert_eq!(windowed_quantile(&windows, 0.9), 9.0);
    }

    #[test]
    fn streams_are_seeded_and_independent() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::fork(7, "a");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::fork(7, "a");
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::fork(7, "b").next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }
}
