//! Process CPU time and host steal, read from `/proc` (Linux only; no
//! libc binding is available, so the clock-tick rate is the Linux
//! `USER_HZ` of 100 that `/proc` reports in).

use std::fs;

/// Clock ticks per second in `/proc/*/stat` and `/proc/stat`.
const USER_HZ: f64 = 100.0;

/// CPU time of this process, summed over all its threads (including
/// threads that have exited), in seconds. Resolution is one tick.
pub fn process_cpu_s() -> Result<f64, String> {
    let text =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("read /proc/self/stat: {e}"))?;
    parse_process_cpu_s(&text)
}

fn parse_process_cpu_s(text: &str) -> Result<f64, String> {
    // The command name is parenthesised and may itself hold spaces or
    // parentheses: fields resume after the last `)`. There, field 0 is
    // the state; utime and stime are fields 11 and 12.
    let rest = text
        .rfind(')')
        .map(|i| &text[i + 1..])
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("malformed /proc/self/stat field {i}"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Host-wide CPU tick totals from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostTicks {
    /// All ticks (user through steal; guest time is already inside
    /// user and nice).
    pub total: u64,
    /// Ticks the hypervisor gave to other guests while this one wanted
    /// to run.
    pub steal: u64,
}

impl HostTicks {
    /// Reads `/proc/stat` now.
    pub fn now() -> Result<HostTicks, String> {
        let text = fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
        parse_host_ticks(&text)
    }

    /// Share of CPU time stolen between `earlier` and `self`.
    pub fn steal_share_since(self, earlier: HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

fn parse_host_ticks(text: &str) -> Result<HostTicks, String> {
    let line = text
        .lines()
        .find(|l| l.starts_with("cpu "))
        .ok_or("no aggregate cpu line in /proc/stat")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| {
            f.parse::<u64>()
                .map_err(|_| format!("bad /proc/stat field `{f}`"))
        })
        .collect::<Result<_, _>>()?;
    if ticks.len() < 8 {
        return Err("short cpu line in /proc/stat".into());
    }
    Ok(HostTicks {
        total: ticks[..8].iter().sum(),
        steal: ticks[7],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_stat_fields_follow_the_last_parenthesis() {
        let line = "4242 (perf (bench) x) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3";
        assert!((parse_process_cpu_s(line).unwrap() - 3.0).abs() < 1e-12);
        assert!(parse_process_cpu_s("4242 (x) R 1").is_err());
    }

    #[test]
    fn host_steal_share_is_a_tick_ratio() {
        let a = parse_host_ticks("cpu  100 0 50 800 0 0 0 50 0 0\ncpu0 1 2 3").unwrap();
        let b = parse_host_ticks("cpu  200 0 100 1600 0 0 0 100 0 0\n").unwrap();
        assert_eq!(a.total, 1000);
        assert!((b.steal_share_since(a) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(process_cpu_s().is_ok());
        assert!(HostTicks::now().is_ok());
    }
}
