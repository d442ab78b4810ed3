//! Small std-only helpers: order statistics, a process-independent
//! hasher, `/proc` readers and JSON text.

use std::hash::{Hash, Hasher};

use rdf_model::Term;

/// Median of a sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Geometric mean; every value must be positive.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile by the "exclusive" method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so `stability` prints the
/// spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// FNV-1a as a `Hasher`, so `Term`'s derived `Hash` gives the same value
/// in every process (the default `RandomState` would not).
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash of one result row of decoded terms (unbound cells hash as `None`).
pub fn row_hash(row: &[Option<Term>]) -> u64 {
    let mut h = Fnv::default();
    row.hash(&mut h);
    h.finish()
}

/// Hash of a one-cell row holding `term`, equal to `row_hash(&[Some(term)])`.
pub fn term_row_hash(term: &Term) -> u64 {
    row_hash(std::slice::from_ref(&Some(term.clone())))
}

/// Order-independent checksum of a result: wrapping sum of row hashes.
pub fn rows_checksum(rows: &[Vec<Option<Term>>]) -> u64 {
    rows.iter()
        .fold(0u64, |acc, r| acc.wrapping_add(row_hash(r)))
}

/// FNV-1a of a string, for plan fingerprints.
pub fn str_hash(s: &str) -> u64 {
    let mut h = Fnv::default();
    h.write(s.as_bytes());
    h.finish()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
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

/// A fixed binary-search + hash + format kernel over a 64 MB table: like
/// the engine's index probes it lives on cache misses, so its time follows
/// the memory system of the shared host, which is what drifts on this box
/// (a cache-resident kernel stays flat while this one moves by 1.7x).
pub struct Calibrator {
    table: Vec<u64>,
    state: u64,
}

impl Calibrator {
    const ENTRIES: u64 = 8 << 20;
    const PROBES: usize = 20_000;
    /// What one run of the kernel takes on this box in a quiet hour, in ms.
    /// End-to-end timings are scaled by `REFERENCE_MS / measured`.
    pub const REFERENCE_MS: f64 = 15.0;

    pub fn new() -> Calibrator {
        Calibrator {
            table: (0..Self::ENTRIES).map(|i| i * 3).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Runs the kernel once and returns its wall time in ms.
    pub fn sample_ms(&mut self) -> f64 {
        use std::fmt::Write;
        let t0 = std::time::Instant::now();
        let mut acc = 0u64;
        let mut text = String::with_capacity(32);
        for i in 0..Self::PROBES {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let probe = (self.state % Self::ENTRIES) * 3;
            acc = acc.wrapping_add(self.table.partition_point(|&k| k < probe) as u64);
            if i % 16 == 0 {
                text.clear();
                let _ = write!(text, "<http://pg/n{probe}>");
                acc = acc.wrapping_add(str_hash(&text));
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Escapes a string for a JSON document.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number that keeps every digit measured and is never `NaN`/`inf`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn checksum_ignores_row_order() {
        let a = vec![
            vec![Some(Term::iri("http://a"))],
            vec![Some(Term::string("b"))],
        ];
        let b: Vec<_> = a.iter().rev().cloned().collect();
        assert_eq!(rows_checksum(&a), rows_checksum(&b));
        assert_eq!(term_row_hash(&Term::iri("http://a")), row_hash(&a[0]));
    }
}
