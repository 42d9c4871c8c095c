//! `repro`'s command line: every flag it does not know and every
//! experiment id it does not run is refused (exit 2, naming the flag or
//! id) before any experiment runs, and `--help` prints the usage.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn bad_command_lines_exit_2_before_any_experiment() {
    let ids = "all fig1 fig2 fig4 table1 table2 table3 table4 table5 fig5 fig6 fig7 table6 fig8 \
               fig9 fig10";
    let cases: [(&[&str], &str); 7] = [
        (&["--bogus"], "--bogus"),
        (&["--experimnet", "fig1", "--ful"], "--experimnet"),
        (&["--full", "--ful"], "--ful"),
        (&["--experiment"], "--experiment"),
        (&["--export"], "--export"),
        (&["table5"], "table5"),
        (&["--experiment", "fig3"], ids),
    ];
    for (args, named) in cases {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(named),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
        assert!(
            !stderr.contains("running"),
            "{args:?} ran an experiment: {stderr}"
        );
    }
}

#[test]
fn help_prints_the_usage_and_runs_nothing() {
    for flag in ["--help", "-h"] {
        let out = repro(&["--full", flag]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(
            stdout.contains("USAGE:") && stdout.contains("--experiment <id>"),
            "{stdout}"
        );
        assert!(
            !stdout.contains("Table"),
            "{flag} ran an experiment: {stdout}"
        );
        assert!(out.stderr.is_empty(), "{flag}");
    }
}
