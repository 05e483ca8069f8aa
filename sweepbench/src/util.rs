//! Small helpers: order statistics, the seeded shuffle, CSV digests and
//! the `/proc` readers behind CPU time and peak RSS.

use std::path::Path;

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0 (rates over layers a workload never enters).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// SplitMix64: the benchmark's only source of input randomness, so a seed
/// fixes every input on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// FNV-1a over `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Rewrites a `results.csv` whose grid enumerated scenes in a permuted
/// order into the CSV the grid in `canonical` scene order produces: rows
/// are regrouped by scene (column 2) in canonical order and the id column
/// renumbered. Within one scene the rows already follow the axis order, so
/// the result is byte-identical to a run of the canonical grid.
pub fn canonical_csv(csv: &str, canonical: &[&str]) -> String {
    let mut lines = csv.lines();
    let header = lines.next().unwrap_or_default();
    let rows: Vec<&str> = lines.collect();
    let scene_of = |row: &str| row.split(',').nth(1).unwrap_or_default().to_string();
    let mut out = String::with_capacity(csv.len());
    out.push_str(header);
    out.push('\n');
    let mut id = 0usize;
    for scene in canonical {
        for row in rows.iter().filter(|r| scene_of(r) == *scene) {
            let rest = row.split_once(',').map_or("", |(_, rest)| rest);
            out.push_str(&format!("{id},{rest}\n"));
            id += 1;
        }
    }
    out
}

/// This process's user + system CPU time in seconds, all threads (live
/// and exited) included, from `/proc/self/stat` (clock ticks, 100 Hz).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size in bytes of the regular files under `dir` (0 if absent).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Removes `dir` and everything under it; a missing directory is fine.
pub fn clear(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

pub const MB: f64 = 1024.0 * 1024.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn canonical_csv_restores_scene_order() {
        let permuted = "id,scene,x\n0,b,1\n1,b,2\n2,a,3\n";
        assert_eq!(
            canonical_csv(permuted, &["a", "b"]),
            "id,scene,x\n0,a,3\n1,b,1\n2,b,2\n"
        );
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..10).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        a.sort_unstable();
        assert_eq!(a, (0..10).collect::<Vec<_>>());
    }
}
