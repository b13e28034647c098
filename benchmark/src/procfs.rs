//! CPU time and peak memory of this process, read from `/proc`.
//!
//! CPU time is the sum of every live thread's on-CPU nanoseconds
//! (`/proc/self/task/*/schedstat`); where the kernel keeps no scheduler
//! statistics it falls back to the 10 ms ticks of `/proc/self/stat`.
//! Threads are stable during a measured phase, so deltas are exact.

/// First field of a `schedstat` line: nanoseconds spent on a CPU.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `utime + stime` in clock ticks from a `/proc/<pid>/stat` line. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Clock ticks per second; Linux has used 100 on every architecture this
/// runs on, and the fallback path is the only reader.
const TICK_NS: u64 = 10_000_000;

/// On-CPU nanoseconds of the whole process (all live threads).
pub fn process_cpu_ns() -> u64 {
    let mut total = 0u64;
    let mut seen = false;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let path = task.path().join("schedstat");
            if let Some(ns) = std::fs::read_to_string(path)
                .ok()
                .as_deref()
                .and_then(parse_schedstat_ns)
            {
                total += ns;
                seen = true;
            }
        }
    }
    if seen {
        return total;
    }
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_stat_ticks)
        .map_or(0, |ticks| ticks * TICK_NS)
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    if let Some(ns) = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .as_deref()
        .and_then(parse_schedstat_ns)
    {
        return ns;
    }
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .as_deref()
        .and_then(parse_stat_ticks)
        .map_or(0, |ticks| ticks * TICK_NS)
}

/// Peak resident set of this process so far, MB (10^6 bytes would hide
/// nothing; this is kB / 1024 like every other tool prints it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vm_hwm_kb)
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured on the 2-vCPU sandbox this benchmark was written on.
    const STAT: &str = "11369 (snn bench) x) R 11363 11369 11363 0 -1 4194304 79 0 0 0 51 7 0 0 20 0 \
                        1 0 3080250 2703360 286 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
    const STATUS: &str =
        "Name:\tcat\nVmPeak:\t    2640 kB\nVmSize:\t    2640 kB\nVmLck:\t       0 kB\n\
                          VmHWM:\t    1748 kB\nVmRSS:\t    1748 kB\nThreads:\t1\n";

    #[test]
    fn schedstat_first_field_is_cpu_ns() {
        assert_eq!(
            parse_schedstat_ns("520950406 1527564 31\n"),
            Some(520_950_406)
        );
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn stat_ticks_survive_a_hostile_command_name() {
        assert_eq!(parse_stat_ticks(STAT), Some(58));
        assert_eq!(parse_stat_ticks("1 (a) R 1 2"), None);
        assert_eq!(parse_stat_ticks("no paren"), None);
    }

    #[test]
    fn vm_hwm_is_found_by_key() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(1748));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 12 kB\n"), None);
    }

    #[test]
    fn live_readers_return_something_on_linux() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 20 {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu_ns() > 0);
        assert!(thread_cpu_ns() > 0);
        assert!(peak_rss_mb() > 0.0);
    }
}
