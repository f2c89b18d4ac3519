//! Child processes: run one to completion with its wall time and peak
//! resident memory.
//!
//! Peak memory is the kernel's high-water mark, `VmHWM` in
//! `/proc/<pid>/status`. It disappears when the process exits, so a
//! sampler thread reads it every few milliseconds while the child runs
//! and keeps the last value; growth in the final interval before exit is
//! missed.

use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often the sampler reads `VmHWM`.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// `VmHWM` of process `pid` in MB, if the process is alive.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    vm_hwm_mb_at(Path::new(&format!("/proc/{pid}/status")))
}

/// `VmHWM` of this process in MB.
pub fn own_vm_hwm_mb() -> Option<f64> {
    vm_hwm_mb_at(Path::new("/proc/self/status"))
}

/// Reset this process's `VmHWM` to its current resident size, so the
/// next reading is the peak since now.
pub fn reset_own_vm_hwm() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

fn vm_hwm_mb_at(path: &Path) -> Option<f64> {
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A finished child process.
#[derive(Debug)]
pub struct Finished {
    /// Spawn to reaped exit.
    pub wall: Duration,
    /// Exit status.
    pub status: ExitStatus,
    /// Everything the child wrote to standard output.
    pub stdout: String,
    /// Highest `VmHWM` sampled, in MB (0 if the child exited before the
    /// first sample).
    pub peak_mb: f64,
}

/// Run `cmd` to completion, capturing standard output and discarding
/// standard error.
pub fn run(cmd: &mut Command) -> Result<Finished, String> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let start = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn {cmd:?}: {e}"))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::Relaxed) {
                if let Some(mb) = vm_hwm_mb(pid) {
                    peak = peak.max(mb);
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
            peak
        });
        let waited = wait_capturing(&mut child);
        let wall = start.elapsed();
        done.store(true, Ordering::Relaxed);
        let peak_mb = sampler.join().expect("the memory sampler panicked");
        let (status, stdout) = waited?;
        Ok(Finished {
            wall,
            status,
            stdout,
            peak_mb,
        })
    })
}

fn wait_capturing(child: &mut Child) -> Result<(ExitStatus, String), String> {
    let mut stdout = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut stdout)
            .map_err(|e| format!("read child output: {e}"))?;
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    Ok((status, stdout))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_high_water_mark() {
        let mb = own_vm_hwm_mb().expect("Linux /proc");
        assert!(mb > 0.0);
    }

    #[test]
    fn resets_own_high_water_mark() {
        let block = vec![1u8; 64 << 20];
        let touched = block.iter().step_by(4096).map(|b| *b as u64).sum::<u64>();
        assert_eq!(touched, 16384);
        let before = own_vm_hwm_mb().expect("Linux /proc");
        drop(block);
        reset_own_vm_hwm().expect("clear_refs");
        let after = own_vm_hwm_mb().expect("Linux /proc");
        assert!(after < before - 32.0, "{before} MB -> {after} MB");
    }

    #[test]
    fn runs_a_child_and_captures_its_output() {
        let done = run(Command::new("sh").args(["-c", "echo hi; sleep 0.05"])).expect("sh");
        assert!(done.status.success());
        assert_eq!(done.stdout, "hi\n");
        assert!(done.wall >= Duration::from_millis(50));
        assert!(done.peak_mb > 0.0, "sampled while the child slept");
    }
}
