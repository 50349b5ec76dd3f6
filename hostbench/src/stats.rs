//! Summary statistics, the exact-statistics digest and process memory.

/// Median of `v` (mean of the middle pair for an even count; 0 when empty).
pub(crate) fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The latency at the highest percentile that still has at least
/// [`TAIL_BEYOND`] ops above it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// The latency at that rank.
    pub value: f64,
    /// The percentile the rank corresponds to (0–100).
    pub percentile: f64,
    /// Ops the tail was taken over.
    pub ops: usize,
}

/// Ops that must lie beyond the reported tail latency.
pub const TAIL_BEYOND: usize = 10;

/// See [`Tail`]; `v` holds one latency per op. With too few ops to leave
/// ten beyond any rank, the maximum is reported (percentile 100).
pub(crate) fn tail(v: &[f64]) -> Tail {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return Tail {
            value: s.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            ops: n,
        };
    }
    let rank = n - TAIL_BEYOND - 1;
    Tail {
        value: s[rank],
        percentile: (rank + 1) as f64 * 100.0 / n as f64,
        ops: n,
    }
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where `/proc` is
/// unavailable.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// An order-independent digest of exact statistics: one line per
/// (program, mode) entry, sorted, then hashed with 64-bit FNV-1a. Two runs
/// of the same code give the same digest; any change to a simulated count
/// changes it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Digest {
    lines: Vec<String>,
}

impl Digest {
    pub(crate) fn add(&mut self, line: String) {
        self.lines.push(line);
    }

    pub(crate) fn finish(&self) -> u64 {
        let mut lines: Vec<&str> = self.lines.iter().map(String::as_str).collect();
        lines.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for line in lines {
            for b in line.bytes().chain(std::iter::once(b'\n')) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_ops_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(tail(&[3.0, 1.0]).value, 3.0);
    }

    #[test]
    fn median_and_digest_ignore_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut a = Digest::default();
        a.add("x".into());
        a.add("y".into());
        let mut b = Digest::default();
        b.add("y".into());
        b.add("x".into());
        assert_eq!(a.finish(), b.finish());
        b.add("z".into());
        assert_ne!(a.finish(), b.finish());
    }
}
