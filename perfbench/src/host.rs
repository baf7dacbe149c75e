//! Host facts recorded with every result, the environment guard, and peak
//! memory.

use std::process::Command;

use crate::json::Json;

/// Refuse to run under any `CL_*` variable: several runtime paths read
/// them process-wide (`CL_EXACT_GID` on every launch), so a stray variable
/// would silently change what is measured. Returns the first offender.
pub fn forbidden_env(vars: impl IntoIterator<Item = (String, String)>) -> Option<String> {
    let mut names: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("CL_"))
        .collect();
    names.sort();
    names.into_iter().next()
}

/// Worker count of the benchmark's device: the host's available
/// parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size in bytes of the unified/data cache at `level` as cpu0 reports it.
pub fn cache_bytes(level: u32) -> Option<u64> {
    (0..8).find_map(|i| {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let lvl: u32 = read(&format!("{base}/level"))?.trim().parse().ok()?;
        let kind = read(&format!("{base}/type"))?;
        if lvl != level || kind.trim() == "Instruction" {
            return None;
        }
        parse_size(read(&format!("{base}/size"))?.trim())
    })
}

fn parse_size(s: &str) -> Option<u64> {
    let (num, mul) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1u64 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mul)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `VmHWM` of this process in MiB (peak resident set).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// `VmRSS` of this process in MiB (resident set now).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU time of the machine so far, in clock ticks, from
/// the first line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    parse_cpu_line(read("/proc/stat")?.lines().next()?)
}

/// `cpu user nice system idle iowait irq softirq steal [guest guest_nice]`;
/// guest time is already counted in user time.
fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let v: Vec<u64> = fields.map(|f| f.parse().ok()).collect::<Option<_>>()?;
    Some((*v.get(7)?, v.iter().take(8).sum()))
}

/// Share of the machine's CPU time that the hypervisor gave to other
/// tenants while this machine's vCPUs wanted to run (steal) between two
/// [`cpu_ticks`] readings. On a shared host it is what moves every timing
/// between runs, so every result records it.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Host provenance: CPU, core count, workers, caches, toolchain, source
/// revision and seed.
pub fn provenance(workers: usize, seed: u64) -> Json {
    let cache = |l| cache_bytes(l).map_or(Json::str("unknown"), Json::Int);
    Json::obj([
        ("cpu_model", Json::str(cpu_model())),
        ("nproc", Json::Int(nproc() as u64)),
        ("workers", Json::Int(workers as u64)),
        ("l2_bytes", cache(2)),
        ("l3_bytes", cache(3)),
        (
            "git_rev",
            Json::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("seed", Json::Int(seed)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cl_variables_are_named() {
        let env = |pairs: &[(&str, &str)]| {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(forbidden_env(env(&[("PATH", "/bin"), ("HOME", "/")])), None);
        assert_eq!(
            forbidden_env(env(&[("PATH", "/bin"), ("CL_EXACT_GID", "1")])),
            Some("CL_EXACT_GID".into())
        );
    }

    #[test]
    fn steal_is_read_from_the_cpu_line() {
        let before = parse_cpu_line("cpu  100 0 50 800 0 0 10 40 7 0").unwrap();
        assert_eq!(before, (40, 1000));
        let after = parse_cpu_line("cpu  200 0 60 900 0 0 10 70 9 0").unwrap();
        assert_eq!(steal_share(before, after), 0.125);
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_cpu_line("cpu  1 2 3"), None);
    }

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("307200K"), Some(300 << 20));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("x"), None);
    }
}
