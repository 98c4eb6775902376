//! Host-speed correction.
//!
//! The benchmark runs on a shared host whose execution speed drifts by
//! tens of percent over seconds to minutes, with the same code and the
//! same inputs. A fixed computation of the benchmark's own, the probe, is
//! timed between the workload's operations. Its code does not depend on
//! the program under test, so its time tracks only how fast the host ran
//! at that moment. A CPU-bound time measured next to probe sample `i` is
//! multiplied by [`Probe::scale_at`]`(i)`, the workload's nominal probe
//! time over the median of the probe samples around `i`, which states it
//! at nominal host speed: on a host that runs the probe in the nominal
//! time the corrected time is the wall time.
//!
//! The probe's time also depends on what the workload leaves in the
//! caches and the heap, so each workload has its own nominal time: the
//! probe time of its fastest runs on a 2-vCPU Intel Xeon VM, where the
//! corrected times equal the wall times.

use crate::stats::median;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Samples on each side of `i` that [`Probe::scale_at`] takes the median of.
const WINDOW: usize = 16;

pub struct Probe {
    /// Probe time, in microseconds, that defines nominal host speed.
    nominal_us: f64,
    ns: Vec<f64>,
}

impl Probe {
    pub fn new(nominal_us: f64) -> Self {
        Probe {
            nominal_us,
            ns: Vec::new(),
        }
    }

    /// Time the probe once; returns the sample's index.
    pub fn run(&mut self) -> usize {
        let t = Instant::now();
        black_box(probe_work(black_box(0x9e37_79b9)));
        self.ns.push(t.elapsed().as_nanos() as f64);
        self.ns.len() - 1
    }

    /// Time the probe `n` times; returns the samples' index range.
    pub fn run_n(&mut self, n: usize) -> Range<usize> {
        let first = self.ns.len();
        for _ in 0..n {
            self.run();
        }
        first..self.ns.len()
    }

    /// Correction factor from the samples in `range`.
    pub fn scale_of(&self, range: Range<usize>) -> f64 {
        let end = range.end.min(self.ns.len());
        let mut window = self.ns[range.start.min(end)..end].to_vec();
        let m = median(&mut window);
        if m > 0.0 {
            self.nominal_us * 1e3 / m
        } else {
            1.0
        }
    }

    /// Correction factor for a time measured next to sample `at`.
    pub fn scale_at(&self, at: usize) -> f64 {
        self.scale_of(at.saturating_sub(WINDOW)..at + WINDOW + 1)
    }

    /// Median probe time of the run, in microseconds.
    pub fn median_us(&self) -> f64 {
        median(&mut self.ns.clone()) / 1e3
    }
}

/// Integer, branchy, allocating work over many library code paths, like
/// the compiler's: sorting, ordered and hashed maps, float formatting and
/// parsing, and string handling over pseudo-random keys. A dense
/// floating-point loop and a pointer chase over a large table each
/// tracked the workloads' drift worse; the integer half alone tracked
/// `compile` less closely than both halves together.
fn probe_work(seed: u64) -> u64 {
    use std::collections::{BTreeMap, HashMap};
    use std::fmt::Write as _;
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u64> = (0..2048).map(|_| next() % 100_000).collect();
    keys.sort_unstable();
    let mut map = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        *map.entry(k ^ (i as u64 & 0xff)).or_insert(0u64) += 1;
    }
    let mut acc = 0u64;
    for _ in 0..2048 {
        acc += map.get(&(next() % 100_000)).copied().unwrap_or(0);
    }

    let mut words: Vec<String> = (0..600)
        .map(|_| {
            let v = next();
            let mut w = String::new();
            let _ = write!(w, "{:.6e}/{}", (v % 1_000_000) as f64 / 7.0, v % 977);
            w
        })
        .collect();
    words.sort_unstable_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    let mut by_tail: HashMap<&str, Vec<u32>> = HashMap::new();
    let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
    for (i, w) in words.iter().enumerate() {
        by_tail.entry(&w[w.len() / 2..]).or_default().push(i as u32);
        let (a, b) = w.split_once('/').unwrap_or((w, "0"));
        let k: u64 = b.parse().unwrap_or(0);
        *sums.entry(k).or_insert(0.0) += a.parse::<f64>().unwrap_or(0.0).sqrt();
        acc += w.chars().filter(char::is_ascii_digit).count() as u64;
    }
    acc + by_tail.len() as u64 + sums.values().map(|v| *v as u64).sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_local_median() {
        let p = Probe {
            nominal_us: 650.0,
            ns: vec![1300e3, 1300e3, 650e3, 325e3, 325e3],
        };
        assert_eq!(p.scale_of(0..2), 0.5);
        assert_eq!(p.scale_of(3..5), 2.0);
        assert_eq!(p.scale_at(2), 1.0);
    }
}
