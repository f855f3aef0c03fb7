//! What the operating system knows about this process, and the
//! environment header every output carries.

use std::process::Command;

/// Linux reports process CPU times in ticks of `USER_HZ`, which is 100 on
/// every supported architecture.
const TICKS_PER_SECOND: f64 = 100.0;

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process in MB (`VmHWM`); 0 where
/// `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// `(user, system)` CPU seconds this process has used so far.
pub fn cpu_seconds() -> (f64, f64) {
    let parse = || -> Option<(f64, f64)> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // The command name may hold spaces; the fields after its closing
        // parenthesis are fixed: utime and stime are the 12th and 13th.
        let rest = &stat[stat.rfind(')')? + 1..];
        let mut fields = rest.split_whitespace().skip(11);
        let utime: f64 = fields.next()?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some((utime / TICKS_PER_SECOND, stime / TICKS_PER_SECOND))
    };
    parse().unwrap_or((0.0, 0.0))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Cores the scheduler gives this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The environment as `"key": value` JSON members, without braces, so a
/// workload can append its own settings.
pub fn environment_json() -> String {
    format!(
        "\"git_rev\": \"{}\", \"rustc\": \"{}\", \"available_parallelism\": {}, \
         \"parallel_workers\": {}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
        cores(),
        doclite_docstore::parallel_workers(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5);
        let (user, system) = cpu_seconds();
        assert!(user >= 0.0 && system >= 0.0);
        assert!(cores() >= 1);
    }
}
