//! Property tests for the orchestrator's work ledger: any sequence of
//! work-stealing splits applied to `shard_ranges`' initial partition
//! leaves the tasks a disjoint exact cover of `0..total_cells`, and
//! running the fragment ranges through `run_shard` + `merge_shards`
//! tiles back into bytes identical to the unsharded `--stream` run —
//! fault-tolerant scheduling is never allowed to buy a different
//! answer.

use std::path::PathBuf;

use green_scenarios::{merge_shards, run_shard, Plan, ShardAssignment, Sweep, SweepRunner};
use proptest::prelude::*;

mod common;
use common::{shard_job, small_grid, Scratch};

/// Applies a pseudo-random split sequence to a plan: each step picks a
/// task and a config-aligned interior cut from the `choices` stream.
/// Returns how many splits actually landed (some choices miss — a
/// too-small task has no interior cut).
fn apply_splits(plan: &mut Plan, choices: &[(usize, usize)]) -> usize {
    let mut applied = 0;
    for &(task_choice, cut_choice) in choices {
        let id = task_choice % plan.tasks.len();
        let cells = plan.tasks[id].cells.clone();
        let configs = (cells.end - cells.start) / plan.replicates;
        if configs < 2 {
            continue; // no interior config boundary to cut at
        }
        let cut = cells.start + (1 + cut_choice % (configs - 1)) * plan.replicates;
        plan.split(id, cut).expect("aligned interior cut");
        applied += 1;
    }
    applied
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary split sequences preserve the disjoint-exact-cover
    /// invariant, for any grid shape and worker count.
    #[test]
    fn split_sequences_keep_a_disjoint_exact_cover(
        configs in 1usize..200,
        replicates in 1usize..5,
        workers in 1usize..9,
        choices in prop::collection::vec((0usize..1000, 0usize..1000), 0..12),
    ) {
        let mut plan = Plan::partition(configs, replicates, workers);
        plan.verify_exact_cover().expect("initial partition covers");
        apply_splits(&mut plan, &choices);
        plan.verify_exact_cover().expect("cover survives splits");
        // The cover property, spelled out: total size preserved and
        // every boundary config-aligned.
        let total: usize = plan.tasks.iter().map(|t| t.cells.len()).sum();
        prop_assert_eq!(total, configs * replicates);
        for task in &plan.tasks {
            prop_assert_eq!(task.cells.start % replicates, 0);
            prop_assert_eq!(task.cells.end % replicates, 0);
        }
    }
}

/// A 6-configuration × 2-replicate grid (the `shard_golden` grid).
fn grid() -> Sweep {
    small_grid("orchestrate-props", &[1, 2])
}

/// Deterministic end-to-end tiling: split the plan a few times, run
/// every fragment range through `run_shard`, and merge — the bytes must
/// match the single-process streamed run exactly.
#[test]
fn split_fragments_merge_back_to_streamed_bytes() {
    let sweep = grid();
    let mut reference = Vec::new();
    SweepRunner::new(1)
        .run_streamed_range(&sweep, None, None, true, None, &mut reference)
        .expect("reference run");

    let mut plan = Plan::partition(6, 2, 2); // 0..6, 6..12
    plan.split(0, 2).expect("split head task"); // 0..2 | 2..6
    plan.split(1, 8).expect("split tail task"); // 6..8 | 8..12
    plan.split(2, 4).expect("split a split tail"); // 2..4 | 4..6
    plan.verify_exact_cover().expect("cover intact");
    assert_eq!(plan.tasks.len(), 5);

    let scratch = Scratch::new("tiling");
    let mut fragments: Vec<(usize, PathBuf)> = Vec::new();
    for task in &plan.tasks {
        let csv = scratch.0.join(format!("frag-{:04}.csv", task.id));
        let job = shard_job(&sweep, ShardAssignment::Cells(task.cells.clone()), &csv);
        run_shard(&SweepRunner::new(1), &job, None).expect("fragment runs");
        fragments.push((task.cells.start, csv));
    }
    fragments.sort_by_key(|(start, _)| *start);
    let inputs: Vec<PathBuf> = fragments.into_iter().map(|(_, csv)| csv).collect();
    let merged = scratch.0.join("merged.csv");
    merge_shards(&inputs, &merged, false).expect("fragments tile");
    assert_eq!(
        std::fs::read(&merged).expect("merged bytes"),
        reference,
        "merged fragment output must be byte-identical to the streamed run"
    );
}
