//! Outcomes, metrics, the result line, and the cross-run digest check.

use slingshot_des::mix64;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one repetition of a workload produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Host seconds from the first `send`/`add_job` to quiescence, summed
    /// over the repetition's rounds or cells; output checks excluded.
    pub run_s: f64,
    /// Operations attempted: messages on the raw-network workloads, cells
    /// on `congestion_128`.
    pub attempted: u64,
    /// Operations that hit a `SimError`, went undelivered, or failed an
    /// output check.
    pub failed: u64,
    /// Whether every whole-run check passed.
    pub correct: bool,
    /// Digest of the simulated outputs (host time excluded).
    pub digest: u64,
}

/// Order-sensitive digest of simulated outputs.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0x5EED_D16E_57AB_CDEF)
    }
}

impl Digest {
    pub fn add(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Named metrics with units, printed in name order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// Add to an existing metric (or start it at `value`).
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.entry(name.to_string()).or_insert((0.0, unit)).0 += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }
}

/// The run's result line.
pub struct Result {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `sim_digest` of the simulated outputs, the same for every
    /// repetition.
    pub digest: u64,
    pub metrics: Metrics,
}

impl Result {
    /// Fold repetitions (untraced and traced alike): every one must pass,
    /// and all must agree on the digest, since every repetition runs the
    /// same inputs and the simulation is deterministic.
    pub fn from_outcomes(outcomes: &[Outcome], metrics: Metrics) -> Self {
        let digest = outcomes[0].digest;
        let mut agree = true;
        for o in outcomes.iter().filter(|o| o.digest != digest) {
            eprintln!(
                "error: repetitions produced sim_digests {digest:016x} and {:016x}",
                o.digest
            );
            agree = false;
        }
        let failed = outcomes.iter().map(|o| o.failed).sum::<u64>();
        Result {
            correct: agree && failed == 0 && outcomes.iter().all(|o| o.correct),
            attempted: outcomes.iter().map(|o| o.attempted).sum(),
            failed,
            digest,
            metrics,
        }
    }

    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest string that reads back as the same
            // f64, so no digit is lost; non-finite values are not JSON.
            let value = if value.is_finite() { *value } else { -1.0 };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Compare `digest` with the one an earlier run of the same executable
/// recorded for this workload and seed, recording it if none exists. The
/// record sits next to the executable (inside the build directory) and
/// is keyed by the executable's size and modification time, so a rebuild
/// starts afresh while two runs of one build must agree.
pub fn digest_agrees_with_earlier_runs(workload: &str, seed: u64, digest: u64) -> bool {
    let Ok(exe) = std::env::current_exe() else {
        return true;
    };
    let Ok(meta) = std::fs::metadata(&exe) else {
        return true;
    };
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos() as u64);
    let Some(dir) = exe.parent().map(|p| p.join("perfbench-digests")) else {
        return true;
    };
    let path = dir.join(format!("{workload}-{seed}-{:x}-{mtime:x}", meta.len()));
    let current = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.trim() == current => true,
        Ok(earlier) => {
            eprintln!(
                "error: sim_digest {current} differs from {} recorded by an earlier run of this build",
                earlier.trim()
            );
            false
        }
        Err(_) => {
            // Best effort: an unwritable build directory skips the check.
            let _ = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &current));
            true
        }
    }
}
