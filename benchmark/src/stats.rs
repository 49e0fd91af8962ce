//! Order statistics and the fingerprint hash.

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` does (its default
/// "exclusive" method), so spreads printed here match the ones an
/// outside reader computes from the same values. `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len() as i64;
    match n {
        0 => None,
        1 => Some([d[0]; 3]),
        _ => {
            let m = n + 1;
            let mut out = [0.0; 3];
            for (k, q) in out.iter_mut().enumerate() {
                let i = k as i64 + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

/// The median (the middle quartile); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |q| q[1])
}

/// The `p`-th percentile (0–100) by nearest rank; 0 when empty.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// FNV-1a 64, the fingerprint scheme of `sim_throughput`: two runs that
/// disagree on any simulated nanosecond disagree on the hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold in one value, byte by byte.
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in a length-prefixed byte string.
    pub fn bytes(&mut self, s: &[u8]) {
        self.u64(s.len() as u64);
        for &b in s {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A fast word-wise digest of a byte string, for checking that repeated
/// set-ups build identical inputs: each word passes through a bijection
/// of the running value, so any single differing word changes it.
pub fn digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(w);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Render a fingerprint the way result files store it.
pub fn hex(fp: u64) -> String {
    format!("{fp:016x}")
}
