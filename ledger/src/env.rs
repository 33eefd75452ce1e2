//! What one run is given: seed, measuring time, size class, thread budget
//! and where it may write. Everything the benchmark writes lands under
//! the directory holding its own executable (the cargo target directory),
//! so a checkout is left as it was found.

use std::path::{Path, PathBuf};

use eh_lubm::GeneratorConfig;

#[derive(Debug, Clone)]
pub struct Env {
    pub seed: u64,
    /// Length of the timed section, split into [`crate::harness::REPS`]
    /// equal repetitions.
    pub seconds: f64,
    /// `--smoke`: the LUBM `tiny(1)` profile, one repetition, one set-up.
    pub smoke: bool,
    /// Hardware threads reported by the OS; load is sized to it.
    pub nproc: usize,
    /// Where `ledger.json` and `trace_<workload>.jsonl` go.
    pub out_dir: PathBuf,
}

impl Env {
    /// Engine worker threads for the one workload that runs the join in
    /// parallel: two, or `nproc` if fewer.
    pub fn engine_threads(&self) -> usize {
        self.nproc.clamp(1, 2)
    }

    /// The LUBM profile at `scale` universities under this run's seed. The
    /// published profile draws 15–25 departments per university; at the one
    /// to five universities used here that alone would swing the data size
    /// by a quarter between seeds, so the count is pinned to its midpoint.
    /// Everything inside a department is still drawn from the seed.
    pub fn lubm(&self, scale: u32) -> GeneratorConfig {
        let profile = if self.smoke {
            GeneratorConfig { depts_per_univ: (3, 3), ..GeneratorConfig::tiny(1) }
        } else {
            GeneratorConfig { depts_per_univ: (20, 20), ..GeneratorConfig::scale(scale) }
        };
        profile.with_seed(self.seed)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn exe_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark can locate its own executable");
    exe.parent().expect("an executable lives in a directory").to_path_buf()
}

/// Default output directory: `ledger-out` beside the executable.
pub fn default_out_dir() -> PathBuf {
    exe_dir().join("ledger-out")
}

/// A fresh private directory for files a workload writes (snapshots,
/// logs), beside the executable; removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let dir = exe_dir().join("ledger-work").join(format!("{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create the workload's scratch directory");
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Leftovers sit in the build directory and are replaced next run.
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread it starts afterwards, to the
/// last CPU it is allowed on; `false` where the kernel refuses or the
/// platform has no such call (the run goes on unpinned).
///
/// For a closed-loop client and the server session answering it in one
/// process: each side runs only while the other waits, so sharing a core
/// costs nothing, and a reply then takes a context switch instead of
/// waking an idle CPU — which on a shared host is a trip through the
/// hypervisor that takes anything from 20 to 200 µs and drifts by the
/// minute.
pub fn pin_to_one_cpu() -> bool {
    #[cfg(target_os = "linux")]
    {
        /// 64-bit words of the kernel's CPU mask looked at: 1024 CPUs.
        const MASK_WORDS: usize = 16;
        let mut mask = [0u64; MASK_WORDS];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live buffer of exactly `bytes` bytes; the
        // kernel writes at most that many into it.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return false;
        }
        let Some(word) = mask.iter().rposition(|w| *w != 0) else { return false };
        let mut one = [0u64; MASK_WORDS];
        one[word] = 1 << (63 - mask[word].leading_zeros());
        // SAFETY: `one` is a live buffer of exactly `bytes` bytes, only read.
        unsafe { sched_setaffinity(0, bytes, one.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` does not offer it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
