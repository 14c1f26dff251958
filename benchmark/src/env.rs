//! What the numbers depend on: recorded with every result file.

use std::process::Command;

use serde_json::{json, Value};

/// The machine and build a set of results was taken on.
#[derive(Debug, Clone)]
pub struct Environment {
    pub nproc: usize,
    pub cpu_model: String,
    pub simd_tier: String,
    /// `--threads` given to every measured child.
    pub child_threads: usize,
    /// Fewer processors than the two the workloads are sized for: thread
    /// scaling numbers mean nothing.
    pub undersized: bool,
    pub rustc: String,
    pub git_commit: String,
    /// Last-level cache size from sysfs, if it says.
    pub llc_bytes: Option<u64>,
    pub mem_total_bytes: Option<u64>,
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .flatten()
}

/// `"260M"`, `"4096K"`, `"512"` → bytes.
fn parse_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, scale) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(scale)
}

fn llc_bytes() -> Option<u64> {
    // The highest cache index cpu0 lists is its last level.
    (0..8)
        .rev()
        .filter_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .find_map(|s| parse_size(&s))
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
}

impl Environment {
    pub fn capture() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            nproc,
            cpu_model: proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".into()),
            simd_tier: gfl_tensor::simd::active_tier().name().to_string(),
            child_threads: nproc.min(2),
            undersized: nproc < 2,
            rustc: first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_commit: first_line_of("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            llc_bytes: llc_bytes(),
            mem_total_bytes: proc_field("/proc/meminfo", "MemTotal")
                .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
                .map(|kib| kib * 1024),
        }
    }

    pub fn to_json(&self) -> Value {
        json!({
            "nproc": self.nproc,
            "cpu_model": self.cpu_model,
            "simd_tier": self.simd_tier,
            "child_threads": self.child_threads,
            "undersized": self.undersized,
            "rustc": self.rustc,
            "git_commit": self.git_commit,
            "llc_bytes": self.llc_bytes,
            "mem_total_bytes": self.mem_total_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("260M\n"), Some(260 << 20));
        assert_eq!(parse_size("4096K"), Some(4096 << 10));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("xK"), None);
    }
}
