//! `green-perf`'s command line: an unknown flag and a value-taking flag
//! with no value each exit 2 before any bench runs, naming the flag on
//! stderr and printing nothing on stdout.

use std::process::Command;

#[test]
fn bad_command_lines_exit_2_before_any_bench() {
    let cases: [(&[&str], &str); 7] = [
        (&["--bogus"], "--bogus"),
        (&["--quiet", "--phases"], "--phases"),
        (&["BENCH_11.json"], "BENCH_11.json"),
        (&["--out"], "--out"),
        (&["--check"], "--check"),
        (&["--summary"], "--summary"),
        (&["--only", "sim_year", "--only"], "--only"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_green-perf"))
            .args(args)
            .output()
            .expect("green-perf binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(flag),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let ran = stderr
            .lines()
            .any(|l| l.starts_with("bench ") || l.starts_with("host: "));
        assert!(!ran, "{args:?} ran a bench: {stderr}");
    }
}
