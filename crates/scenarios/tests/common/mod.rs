//! Support shared by this crate's integration tests.

// Each test binary compiles its own copy of this module and uses only
// part of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use green_scenarios::{MethodSpec, PolicySpec, ShardAssignment, ShardJob, Sweep};

/// The small test grid: Greedy, Energy and EFT under EBA and CBA, six
/// configurations × `seeds` replicates. The name is part of the spec
/// hash, so each suite keeps its own.
pub fn small_grid(name: &str, seeds: &[u64]) -> Sweep {
    let mut sweep = Sweep::new(name);
    sweep.policies = vec![PolicySpec::Greedy, PolicySpec::Energy, PolicySpec::Eft];
    sweep.methods = vec![MethodSpec::Eba, MethodSpec::Cba];
    sweep.seeds = seeds.to_vec();
    sweep
}

/// A fresh shard job over `assignment` that checkpoints after every row,
/// so crash and resume tests see a checkpoint at each row boundary.
/// Callers set `resume` or `columnar` with struct-update syntax.
pub fn shard_job<'a>(sweep: &'a Sweep, assignment: ShardAssignment, csv: &'a Path) -> ShardJob<'a> {
    ShardJob {
        sweep,
        filter: None,
        assignment,
        csv,
        resume: false,
        checkpoint_every: 1,
        columnar: false,
    }
}

/// A scratch directory owned by one test, removed on drop.
///
/// Its name joins the process id, a process-wide counter and the test's
/// name, so tests running in parallel threads of one binary never share
/// a directory — a pid alone would let one test's set-up or drop delete
/// the files another is still writing.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(name: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("green-scenarios-{}-{n}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    /// A file inside the directory.
    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }

    /// [`path`](Scratch::path) as a string, for command-line arguments.
    pub fn arg(&self, file: &str) -> String {
        self.path(file).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
