//! Tiled Cholesky task-graph generation.
//!
//! For a lower-triangular factorization over a `T × T` tile grid, step `k`
//! produces:
//!
//! * `POTRF(k)` — factor the diagonal tile; depends on the last update of
//!   `A[k][k]`;
//! * `TRSM(i, k)` for `i > k` — triangular solves against the panel;
//! * `SYRK(i, k)` for `i > k` — symmetric rank-k update of diagonal tiles;
//! * `GEMM(i, j, k)` for `i > j > k` — trailing-matrix updates.

/// Index of a task within its DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// The four Cholesky kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Diagonal-tile factorization.
    Potrf,
    /// Panel triangular solve.
    Trsm,
    /// Diagonal symmetric update.
    Syrk,
    /// Off-diagonal update.
    Gemm,
}

impl KernelKind {
    /// Kernel flop count for a `b × b` tile.
    pub fn flops(self, tile: u64) -> f64 {
        let b = tile as f64;
        match self {
            KernelKind::Potrf => b * b * b / 3.0,
            KernelKind::Trsm => b * b * b,
            KernelKind::Syrk => b * b * b,
            KernelKind::Gemm => 2.0 * b * b * b,
        }
    }

    /// Tiles moved over the host link per task (operands in + result out)
    /// for the out-of-core regime where nothing stays resident.
    pub fn tiles_moved(self) -> u32 {
        match self {
            KernelKind::Potrf => 2, // in + out
            KernelKind::Trsm => 3,
            KernelKind::Syrk => 3,
            KernelKind::Gemm => 4,
        }
    }

    /// Scheduling priority class: panel work unblocks the most.
    pub fn priority(self) -> u8 {
        match self {
            KernelKind::Potrf => 3,
            KernelKind::Trsm => 2,
            KernelKind::Syrk => 1,
            KernelKind::Gemm => 0,
        }
    }
}

/// One node of the DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Task id (index).
    pub id: TaskId,
    /// Kernel type.
    pub kind: KernelKind,
    /// Elimination step `k`.
    pub step: u32,
    /// Tasks that must complete first.
    pub deps: Vec<TaskId>,
}

/// A generated tiled-Cholesky DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct CholeskyDag {
    /// Tile grid dimension `T`.
    pub tiles: u32,
    /// Tile edge length `b` (elements).
    pub tile_size: u64,
    /// Tasks, topologically ordered by construction.
    pub tasks: Vec<Task>,
}

impl CholeskyDag {
    /// Builds the DAG for a `tiles × tiles` grid of `tile_size²` tiles.
    // The k/i/j index walk mirrors the textbook tiled-Cholesky loop nest;
    // iterator adaptors would obscure the dependency structure.
    #[allow(clippy::needless_range_loop)]
    pub fn new(tiles: u32, tile_size: u64) -> CholeskyDag {
        assert!(tiles >= 1, "need at least one tile");
        let t = tiles as usize;
        let mut tasks: Vec<Task> = Vec::new();
        // writer[i][j] = last task that wrote tile (i, j).
        let mut writer: Vec<Vec<Option<TaskId>>> = vec![vec![None; t]; t];
        let push = |kind: KernelKind, step: u32, deps: Vec<TaskId>, tasks: &mut Vec<Task>| {
            let id = TaskId(tasks.len() as u32);
            tasks.push(Task {
                id,
                kind,
                step,
                deps,
            });
            id
        };

        for k in 0..t {
            // POTRF(k): consumes A[k][k].
            let deps: Vec<TaskId> = writer[k][k].into_iter().collect();
            let potrf = push(KernelKind::Potrf, k as u32, deps, &mut tasks);
            writer[k][k] = Some(potrf);

            // TRSM(i, k): consumes POTRF(k) and A[i][k].
            for i in k + 1..t {
                let mut deps = vec![potrf];
                deps.extend(writer[i][k]);
                let trsm = push(KernelKind::Trsm, k as u32, deps, &mut tasks);
                writer[i][k] = Some(trsm);
            }

            // Updates: SYRK on diagonals, GEMM off-diagonal.
            for i in k + 1..t {
                let panel_i = writer[i][k].expect("TRSM wrote A[i][k]");
                // SYRK(i,k): A[i][i] -= A[i][k]·A[i][k]ᵀ.
                let mut deps = vec![panel_i];
                deps.extend(writer[i][i]);
                let syrk = push(KernelKind::Syrk, k as u32, deps, &mut tasks);
                writer[i][i] = Some(syrk);
                // GEMM(i,j,k) for k < j < i: A[i][j] -= A[i][k]·A[j][k]ᵀ.
                for j in k + 1..i {
                    let panel_j = writer[j][k].expect("TRSM wrote A[j][k]");
                    let mut deps = vec![panel_i, panel_j];
                    deps.extend(writer[i][j]);
                    let gemm = push(KernelKind::Gemm, k as u32, deps, &mut tasks);
                    writer[i][j] = Some(gemm);
                }
            }
        }

        CholeskyDag {
            tiles,
            tile_size,
            tasks,
        }
    }

    /// The paper's problem: a 42 GB single-precision matrix. 40 × 40 tiles
    /// of 2560² floats ⇒ n = 102,400, n²·4 B ≈ 42 GB.
    pub fn paper_problem() -> CholeskyDag {
        CholeskyDag::new(40, 2_560)
    }

    /// Bytes per tile (single precision).
    pub fn tile_bytes(&self) -> f64 {
        (self.tile_size * self.tile_size * 4) as f64
    }

    /// Total flop count of the factorization.
    pub fn total_flops(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.kind.flops(self.tile_size))
            .sum()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True for an empty DAG (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Count of tasks of one kind.
    pub fn count(&self, kind: KernelKind) -> usize {
        self.tasks.iter().filter(|t| t.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_counts_match_closed_forms() {
        let t = 10u64;
        let dag = CholeskyDag::new(t as u32, 64);
        assert_eq!(dag.count(KernelKind::Potrf) as u64, t);
        assert_eq!(dag.count(KernelKind::Trsm) as u64, t * (t - 1) / 2);
        assert_eq!(dag.count(KernelKind::Syrk) as u64, t * (t - 1) / 2);
        assert_eq!(
            dag.count(KernelKind::Gemm) as u64,
            t * (t - 1) * (t - 2) / 6
        );
    }

    #[test]
    fn construction_order_is_topological() {
        let dag = CholeskyDag::new(8, 64);
        for task in &dag.tasks {
            for dep in &task.deps {
                assert!(dep.0 < task.id.0, "dep {dep:?} after {:?}", task.id);
            }
        }
    }

    #[test]
    fn total_flops_close_to_n_cubed_over_three() {
        let dag = CholeskyDag::new(40, 2_560);
        let n = 40.0 * 2_560.0;
        let expect = n * n * n / 3.0;
        let got = dag.total_flops();
        assert!(
            (got - expect).abs() / expect < 0.05,
            "{got:e} vs {expect:e}"
        );
    }

    #[test]
    fn paper_problem_is_42_gb() {
        let dag = CholeskyDag::paper_problem();
        let total_bytes = dag.tile_bytes() * (dag.tiles as f64).powi(2);
        assert!((total_bytes / 1e9 - 41.9).abs() < 1.0, "{total_bytes:e}");
    }

    #[test]
    fn single_tile_is_one_potrf() {
        let dag = CholeskyDag::new(1, 128);
        assert_eq!(dag.len(), 1);
        assert_eq!(dag.tasks[0].kind, KernelKind::Potrf);
        assert!(dag.tasks[0].deps.is_empty());
    }

    #[test]
    fn kernel_flops_ratios() {
        // GEMM does 2b³, TRSM/SYRK b³, POTRF b³/3.
        let b = 256;
        assert!((KernelKind::Gemm.flops(b) / KernelKind::Trsm.flops(b) - 2.0).abs() < 1e-12);
        assert!((KernelKind::Trsm.flops(b) / KernelKind::Potrf.flops(b) - 3.0).abs() < 1e-12);
    }
}
