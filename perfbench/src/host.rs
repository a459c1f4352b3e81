//! The host clock, process figures from `/proc`, and the provenance every
//! result records.

use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process's threads have used so far.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A start point on the process CPU clock, the clock of every host time
/// the benchmark reports. Unlike wall time it stops while another process
/// holds the CPU, so a machine with more runnable threads than cores does
/// not count its time slices against the program.
#[derive(Debug, Clone, Copy)]
pub struct CpuClock(f64);

impl CpuClock {
    /// The current CPU time.
    #[must_use]
    pub fn now() -> Self {
        CpuClock(process_cpu_s())
    }

    /// CPU seconds since `self`.
    #[must_use]
    pub fn elapsed_s(self) -> f64 {
        process_cpu_s() - self.0
    }

    /// CPU seconds from `earlier` to `self`.
    #[must_use]
    pub fn since(self, earlier: CpuClock) -> f64 {
        self.0 - earlier.0
    }
}

/// `VmHWM` (peak resident set) of this process in MiB, 0 if unreadable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Minor page faults of this process so far (`/proc/self/stat` field 10).
#[must_use]
pub fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name start at field 3.
            let rest = &s[s.rfind(')')? + 1..];
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Names of the `PSIM_*` environment variables set. They select other
/// engine or synchronisation back-ends, so a run must refuse them.
#[must_use]
pub fn psim_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PSIM_"))
        .collect()
}

/// The commit checked out in the working directory, from `.git` directly
/// (no process is started), or `"none"` outside a git checkout.
#[must_use]
pub fn git_revision() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&Path::new(".git").join(refname))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(Path::new(".git/packed-refs"))?
                .lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a over the simulator's sources (`Cargo.toml`, `Cargo.lock` and
/// every file under `crates/`, in path order): identifies the program
/// measured even where no git metadata exists.
#[must_use]
pub fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::CpuClock;
    use std::time::{Duration, Instant};

    #[test]
    fn cpu_clock_counts_work_and_not_sleep() {
        let t0 = CpuClock::now();
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            t0.elapsed_s() < 0.05,
            "sleeping used {} CPU s",
            t0.elapsed_s()
        );
        let (t1, wall) = (CpuClock::now(), Instant::now());
        while t1.elapsed_s() < 0.01 {
            assert!(
                wall.elapsed() < Duration::from_secs(10),
                "the CPU clock stood still"
            );
        }
    }
}
