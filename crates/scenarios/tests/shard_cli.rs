//! End-to-end CLI exercise of the sharded workflow: the exact command
//! sequence CI and operators run — N `scenarios --shard` invocations,
//! a kill + `--resume`, and a `scenarios merge` — compared byte-for-byte
//! against the single-process `--stream` run.

use green_scenarios::shard::Fnv1a;
use std::process::Command;

mod common;
use common::Scratch;

const SWEEP: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/sweeps/sensitivity.toml"
);

fn scenarios(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args(args)
        .output()
        .expect("scenarios binary runs")
}

fn run_ok(args: &[&str]) {
    let out = scenarios(args);
    assert!(
        out.status.success(),
        "scenarios {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cli_shard_resume_merge_is_byte_identical() {
    let scratch = Scratch::new("roundtrip");
    let reference = scratch.arg("reference.csv");
    run_ok(&[SWEEP, "--stream", "--out", &reference, "--quiet"]);

    // Three shard workers.
    let shards: Vec<String> = (0..3)
        .map(|i| {
            let csv = scratch.arg(&format!("shard_{i}.csv"));
            run_ok(&[
                SWEEP,
                "--shard",
                &format!("{i}/3"),
                "--out",
                &csv,
                "--quiet",
            ]);
            csv
        })
        .collect();

    // "Kill" worker 1: keep only its header in the CSV and reset the
    // manifest to the header-only checkpoint every fresh worker writes
    // first — exactly the state a SIGKILL right after startup leaves.
    let body = std::fs::read_to_string(&shards[1]).unwrap();
    let header_len = body.find('\n').unwrap() + 1;
    std::fs::write(&shards[1], &body[..header_len]).unwrap();
    let manifest_file = format!("{}.manifest", shards[1]);
    let manifest = std::fs::read_to_string(&manifest_file).unwrap();
    let manifest = manifest
        .lines()
        .map(|line| {
            if line.starts_with("rows = ") {
                "rows = 0".to_string()
            } else if line.starts_with("bytes = ") {
                format!("bytes = {header_len}")
            } else if line.starts_with("hash = ") {
                format!(
                    "hash = \"{:016x}\"",
                    Fnv1a::hash(&body.as_bytes()[..header_len])
                )
            } else if line.starts_with("complete = ") {
                "complete = false".to_string()
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    std::fs::write(&manifest_file, manifest + "\n").unwrap();

    // Resume the killed worker, then merge all three.
    run_ok(&[
        SWEEP, "--shard", "1/3", "--out", &shards[1], "--resume", "--quiet",
    ]);
    let merged = scratch.arg("merged.csv");
    run_ok(&[
        "merge", "--out", &merged, &shards[0], &shards[1], &shards[2], "--quiet",
    ]);
    assert_eq!(
        std::fs::read(&merged).unwrap(),
        std::fs::read(&reference).unwrap(),
        "CLI shard/resume/merge bytes diverged from the single-process stream"
    );
}

#[test]
fn cli_cell_range_matches_the_shard_partition() {
    let scratch = Scratch::new("range");
    let by_shard = scratch.arg("by_shard.csv");
    let by_range = scratch.arg("by_range.csv");
    // sensitivity.toml: 12 configs × 3 seeds = 36 cells; shard 1/3
    // covers cells 12..24.
    run_ok(&[SWEEP, "--shard", "1/3", "--out", &by_shard, "--quiet"]);
    run_ok(&[
        SWEEP,
        "--cell-range",
        "12..24",
        "--out",
        &by_range,
        "--quiet",
    ]);
    assert_eq!(
        std::fs::read(&by_shard).unwrap(),
        std::fs::read(&by_range).unwrap()
    );
}

#[test]
fn cli_rejects_bad_shard_and_misaligned_range() {
    let scratch = Scratch::new("badargs");
    let out_csv = scratch.arg("out.csv");
    for args in [
        vec![SWEEP, "--shard", "3/3", "--out", out_csv.as_str()],
        vec![SWEEP, "--shard", "1of3", "--out", out_csv.as_str()],
        vec![SWEEP, "--cell-range", "1..5", "--out", out_csv.as_str()],
        vec![SWEEP, "--shard", "0/2"], // no --out
    ] {
        let out = scenarios(&args);
        assert!(!out.status.success(), "scenarios {args:?} should fail");
    }
}

/// A sweep the engine cannot represent — a non-finite value, a finite
/// scale past its bound, arrays nested past the parser's cap — is a sweep
/// error (exit 2) found before the shard writes anything, not a panic or
/// a stack overflow partway through the shard.
#[test]
fn cli_rejects_a_nan_intensity_scale_before_writing() {
    let scratch = Scratch::new("nan");
    let deep = format!("name = {}{}\n", "[".repeat(200_000), "]".repeat(200_000));
    for (i, (toml, message)) in [
        ("[grid]\nintensity_scales = [nan]\n", "intensity scales"),
        ("[grid]\nintensity_scales = [1e307]\n", "intensity scales"),
        ("[grid]\nintensity_jitter = 1e308\n", "intensity jitter"),
        ("[grid]\nworkload_scales = [1e300]\n", "workload scales"),
        (deep.as_str(), "line 1: arrays nest deeper"),
    ]
    .into_iter()
    .enumerate()
    {
        let sweep = scratch.path(&format!("sweep-{i}.toml"));
        std::fs::write(&sweep, toml).unwrap();
        let frag = scratch.arg("frag.csv");
        let out = scenarios(&[
            &sweep.to_string_lossy(),
            "--shard",
            "0/1",
            "--out",
            &frag,
            "--quiet",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "input {i}: {stderr}");
        assert!(stderr.contains(message), "input {i}: {stderr}");
        for file in ["frag.csv", "frag.csv.manifest", "frag.csv.progress"] {
            assert!(!scratch.path(file).exists(), "input {i} wrote {file}");
        }
    }
}

/// `--list` resolves cells exactly as a run does, so it refuses the
/// ranges a run refuses, with the run's message: a range that splits a
/// replicate group of 3, and one past the grid's 36 cells.
#[test]
fn cli_list_refuses_the_ranges_a_run_refuses() {
    let scratch = Scratch::new("list");
    let out_csv = scratch.arg("out.csv");
    for (range, message) in [
        (
            "1..4",
            "cell range 1..4 is not aligned to replicate groups of 3",
        ),
        ("30..90", "cell range 30..90 outside the grid's 36 cells"),
    ] {
        let listed = scenarios(&[SWEEP, "--list", "--cell-range", range]);
        let run = scenarios(&[SWEEP, "--cell-range", range, "--out", &out_csv, "--quiet"]);
        for (what, out) in [("--list", &listed), ("run", &run)] {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{what} {range} should fail");
            assert!(stderr.contains(message), "{what} {range}: {stderr}");
        }
        assert!(listed.stdout.is_empty(), "nothing listed for {range}");
    }
    // An aligned range inside the grid lists exactly its cells.
    let listed = scenarios(&[SWEEP, "--list", "--cell-range", "12..24"]);
    assert!(listed.status.success());
    let stdout = String::from_utf8_lossy(&listed.stdout);
    assert_eq!(stdout.lines().count(), 1 + 12, "{stdout}");
    assert!(
        stdout.contains("[  12]") && stdout.contains("[  23]"),
        "{stdout}"
    );
}

/// The orchestrator as operators run it: one `scenarios orchestrate`
/// command replaces the whole manual shard/resume/merge sequence, and
/// `scenarios watch` renders its event log.
#[test]
fn cli_orchestrate_merges_byte_identical_and_watch_renders_it() {
    let scratch = Scratch::new("orchestrate");
    let reference = scratch.arg("reference.csv");
    run_ok(&[SWEEP, "--stream", "--out", &reference, "--quiet"]);

    let out_dir = scratch.arg("run");
    run_ok(&[
        "orchestrate",
        SWEEP,
        "--workers",
        "2",
        "--out-dir",
        &out_dir,
        "--checkpoint-every",
        "1",
        "--poll-interval",
        "20",
        "--quiet",
    ]);
    let merged = std::fs::read(scratch.arg("run/merged.csv")).expect("merged output");
    assert_eq!(
        merged,
        std::fs::read(&reference).unwrap(),
        "orchestrated output must be byte-identical to the streamed run"
    );
    assert!(
        std::fs::read_to_string(scratch.arg("run/orchestrate.jsonl"))
            .expect("event log")
            .contains("\"event\": \"complete\""),
        "event log records completion"
    );

    let watch = scenarios(&["watch", &out_dir, "--once"]);
    assert!(watch.status.success());
    let table = String::from_utf8_lossy(&watch.stdout);
    assert!(table.contains("orchestrator: complete"), "{table}");
    assert!(table.contains("att"), "{table}");
}

/// Chaos specs are compiled from the `--chaos` flag right after argument
/// parsing: a malformed spec exits 2 before any work, even where nothing
/// would be armed, and a spec that arms a failpoint takes the
/// checkpointed path. The flag is the only source: an inherited
/// `SCENARIOS_CHAOS` arms nothing, malformed or not.
#[test]
fn cli_chaos_specs_fail_early_and_arm_only_from_the_flag() {
    let scratch = Scratch::new("chaos-spec");
    let aggregate = scratch.arg("aggregate.csv");
    run_ok(&[SWEEP, "--out", &aggregate, "--quiet"]);
    let expect = |what: &str, out: std::process::Output, code: i32, message: &str| {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{what}: {stderr}");
        assert!(stderr.contains(message), "{what}: {stderr}");
        assert!(out.stdout.is_empty(), "{what} printed a report");
    };

    expect(
        "analyze --chaos garbage",
        scenarios(&["analyze", &aggregate, "--chaos", "garbage"]),
        2,
        "bad chaos spec",
    );

    let streamed = scratch.arg("streamed.csv");
    let stream = [SWEEP, "--out", streamed.as_str(), "--stream", "--quiet"];
    let with_chaos = |spec: &'static str| [&stream[..], &["--chaos", spec]].concat();
    expect(
        "--stream --chaos garbage",
        scenarios(&with_chaos("garbage")),
        2,
        "bad chaos spec",
    );
    assert!(
        !scratch.path("streamed.csv").exists(),
        "wrote before failing"
    );

    // Armed by the flag, the run checkpoints (the streamed path writes
    // no manifest) and the first row commit fails it.
    expect(
        "--stream --chaos parallel_commit=err@hit:1",
        scenarios(&with_chaos("parallel_commit=err@hit:1")),
        1,
        "chaos: injected failure at parallel_commit",
    );
    let manifest = std::fs::read_to_string(scratch.path("streamed.csv.manifest"))
        .expect("the armed run checkpoints");
    assert!(manifest.contains("rows = 0"), "{manifest}");

    // The variable the flag replaced arms nothing: the run streams the
    // clean bytes, with no manifest.
    let clean = scratch.arg("clean.csv");
    run_ok(&[SWEEP, "--out", &clean, "--stream", "--quiet"]);
    for spec in ["parallel_commit=err@hit:1", "garbage"] {
        let inherited = scratch.arg("inherited.csv");
        let out = Command::new(env!("CARGO_BIN_EXE_scenarios"))
            .args([SWEEP, "--out", &inherited, "--stream", "--quiet"])
            .env("SCENARIOS_CHAOS", spec)
            .output()
            .expect("scenarios binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(0),
            "SCENARIOS_CHAOS={spec}: {stderr}"
        );
        assert_eq!(
            std::fs::read(&inherited).unwrap(),
            std::fs::read(&clean).unwrap(),
            "SCENARIOS_CHAOS={spec} changed the bytes"
        );
        assert!(!scratch.path("inherited.csv.manifest").exists());
    }
}

/// `orchestrate --chaos` arms its workers as it arms itself: each worker
/// gets the spec on its command line, so a `fragment_row` rule fails the
/// only worker whether or not the spec adds a supervisor rule of its own.
#[test]
fn cli_orchestrate_arms_workers_from_the_flag() {
    let scratch = Scratch::new("orchestrate-chaos");
    for (i, spec) in [
        "fragment_row=err@hit:1",
        "merge_write=delay:1@hit:1;fragment_row=err@hit:1",
    ]
    .into_iter()
    .enumerate()
    {
        let out_dir = scratch.arg(&format!("run-{i}"));
        let out = scenarios(&[
            "orchestrate",
            SWEEP,
            "--workers",
            "1",
            "--max-attempts",
            "1",
            "--out-dir",
            &out_dir,
            "--quiet",
            "--chaos",
            spec,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--chaos {spec}: {stderr}");
        assert!(
            !scratch.path(&format!("run-{i}/merged.csv")).exists(),
            "--chaos {spec} merged despite the failing worker"
        );
        let worker_log =
            std::fs::read_to_string(scratch.path(&format!("run-{i}/frag-0000.csv.log")))
                .expect("the worker's stderr log");
        assert!(
            worker_log.contains("chaos: injected failure at fragment_row"),
            "--chaos {spec}: {worker_log}"
        );
    }
}

/// `orchestrate --stall-after` takes a positive number of seconds: NaN
/// would switch stall detection off, and zero or less would kill every
/// worker at its first poll. Each is refused before any work.
#[test]
fn cli_orchestrate_refuses_a_stall_threshold_that_is_not_positive() {
    let scratch = Scratch::new("stall-after");
    let out_dir = scratch.arg("run");
    for seconds in ["-1", "0", "-0.5", "nan", "NaN", "inf"] {
        let out = scenarios(&[
            "orchestrate",
            SWEEP,
            "--workers",
            "1",
            "--out-dir",
            &out_dir,
            "--stall-after",
            seconds,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--stall-after {seconds}: {stderr}"
        );
        assert!(stderr.contains("--stall-after"), "{seconds}: {stderr}");
        assert!(
            !scratch.path("run").exists(),
            "--stall-after {seconds} did work"
        );
    }
}

/// Every subcommand reads its flags through the one reader: an unknown
/// flag and a value-taking flag at the end of the line each exit 2,
/// name the flag on stderr and print nothing on stdout.
#[test]
fn cli_rejects_unknown_and_valueless_flags_on_every_subcommand() {
    let scratch = Scratch::new("reader");
    let dir = scratch.arg("");
    let cases: [(&[&str], &str); 10] = [
        (&[SWEEP, "--bogus"], "--bogus"),
        (&[SWEEP, "--threads"], "--threads"),
        (&["merge", "--out", "m.csv", "--bogus"], "--bogus"),
        (&["merge", "--out"], "--out"),
        (&["analyze", &dir, "--bogus"], "--bogus"),
        (&["analyze", &dir, "--format"], "--format"),
        (&["orchestrate", SWEEP, "--bogus"], "--bogus"),
        (&["orchestrate", SWEEP, "--workers"], "--workers"),
        (&["watch", &dir, "--bogus"], "--bogus"),
        (&["watch", &dir, "--interval"], "--interval"),
    ];
    for (args, flag) in cases {
        let out = scenarios(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(flag),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

/// `--obs` and `--checkpoint-every` act only on the checkpointed path,
/// so a plain run refuses them (exit 2, naming the flag) before writing
/// anything, instead of ignoring them.
#[test]
fn cli_refuses_obs_and_checkpoint_every_off_the_checkpointed_path() {
    let scratch = Scratch::new("ignored-flags");
    let out_csv = scratch.arg("out.csv");
    for flag in [vec!["--obs"], vec!["--checkpoint-every", "4"]] {
        for mode in [None, Some("--stream")] {
            let mut args = vec![SWEEP, "--out", out_csv.as_str(), "--quiet"];
            args.extend(&flag);
            args.extend(mode);
            let out = scenarios(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains(flag[0]), "{args:?}: {stderr}");
            assert!(!scratch.path("out.csv").exists(), "{args:?} wrote output");
        }
    }
    // On a checkpointed run both are accepted.
    run_ok(&[
        SWEEP,
        "--shard",
        "0/1",
        "--out",
        &out_csv,
        "--obs",
        "--checkpoint-every",
        "4",
        "--quiet",
    ]);
}

/// `--quiet` leaves stderr empty on every whole-grid path: the buffered
/// `--out` run, the `--stream` run and a checkpointed `--shard` run
/// print neither progress nor their summary line.
#[test]
fn cli_quiet_runs_leave_stderr_empty() {
    let scratch = Scratch::new("quiet");
    let out_csv = scratch.arg("out.csv");
    for mode in [vec![], vec!["--stream"], vec!["--shard", "0/1"]] {
        let mut args = vec![SWEEP, "--out", out_csv.as_str(), "--quiet"];
        args.extend(&mode);
        let out = scenarios(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert_eq!(stderr, "", "{args:?}");
    }
}
