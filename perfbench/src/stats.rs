//! Small statistics shared by every workload: medians, the tail
//! percentile rule, failure accounting, metric records and the seeded
//! generator that turns `--seed` into inputs.

/// Percentiles tried for a tail latency, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// A tail percentile is reported only when at least this many samples
/// lie strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// The median of `xs` (mean of the middle two for an even count).
/// Returns `None` for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The median of values truncated to whole units, where `v` stands for
/// the interval `[v, v + 1)`: interpolated within the median's unit as
/// for grouped data. Returns `None` for no values.
#[must_use]
pub fn binned_median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let bin = *v.get(v.len() / 2)?;
    let below = v.partition_point(|&x| x < bin);
    let within = v.partition_point(|&x| x <= bin) - below;
    Some(bin + (v.len() as f64 / 2.0 - below as f64) / within as f64)
}

/// The 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (99 when the samples allow it).
    pub pct: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Samples in total.
    pub count: usize,
}

/// The nearest-rank value at percentile `pct`, with the count of samples
/// beyond it. `None` for no samples.
#[must_use]
pub fn tail_at(samples: &[f64], pct: f64) -> Option<Tail> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (n > 0).then(|| {
        let r = rank(pct, n);
        Tail {
            pct,
            value: v[r - 1],
            beyond: n - r,
            count: n,
        }
    })
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it. `None` when even the median lacks
/// them, i.e. fewer than `2 * MIN_BEYOND` samples.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<Tail> {
    TAIL_LADDER
        .iter()
        .filter_map(|&pct| tail_at(samples, pct))
        .find(|t| t.beyond >= MIN_BEYOND)
}

/// Operations attempted and failed. A failure is an error, a non-ok
/// reply, a timeout or a correctness mismatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations over attempted ones (0 when none were
    /// attempted).
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Shorthand for building a [`Metric`].
#[must_use]
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// `part / whole`, or 0 when `whole` is 0.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// SplitMix64: a tiny seeded generator, enough to derive inputs and
/// sampling decisions from `--seed` reproducibly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (stream `stream` lets independent users of
    /// one seed draw unrelated sequences).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn binned_median_interpolates_within_the_median_unit() {
        assert_eq!(binned_median(&[]), None);
        assert_eq!(binned_median(&[5.0]), Some(5.5));
        assert_eq!(
            binned_median(&[19.0, 18.0, 18.0, 18.0]),
            Some(18.0 + 2.0 / 3.0)
        );
        assert_eq!(binned_median(&[1.0, 1.0, 2.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_reports_p99_only_with_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand).expect("1000 samples give a tail");
        assert_eq!((t.pct, t.value, t.beyond, t.count), (99.0, 990.0, 10, 1000));

        // 999 samples leave 9 beyond p99: fall back to p95 and say so.
        let t = tail(&thousand[..999]).expect("999 samples give a tail");
        assert_eq!(t.pct, 95.0);
        assert!(t.beyond >= MIN_BEYOND);
        assert_eq!(t.count, 999);
    }

    #[test]
    fn tail_falls_back_down_the_ladder_and_gives_up_below_twenty() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred).map(|t| t.pct), Some(90.0));
        assert_eq!(tail(&hundred[..20]).map(|t| t.pct), Some(50.0));
        assert_eq!(tail(&hundred[..19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0, "no attempts is no failures");
        for ok in [true, false, true, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
        t.merge(Tally {
            attempted: 4,
            failed: 3,
        });
        assert_eq!(t.failed_frac(), 0.5);
    }

    #[test]
    fn names_allow_only_letters_digits_underscore_dot_and_dash() {
        for ok in [
            "sim_mips",
            "bt.step_ns",
            "trace.overhead_frac",
            "p50-ms",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "ms%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn rng_is_reproducible_per_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        let mut items: Vec<u32> = (0..29).collect();
        Rng::new(1, 0).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..29).collect::<Vec<_>>(), "a permutation");
    }
}
