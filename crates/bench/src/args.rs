//! The one command-line reader of the workspace's binaries (`scenarios`,
//! `green-perf`, `repro`).
//!
//! A binary matches each flag [`Args::next`] returns against its own
//! `"--flag"` arms and reads a value with [`Args::value`],
//! [`Args::parsed`] or [`Args::parsed_by`]. Every misuse exits 2 with an
//! `error:` line naming the flag, followed by the binary's usage, on
//! stderr: a value-taking flag at the end of the line, a value that does
//! not parse, an unknown flag, a stray or second positional argument.
//! `--help` (or `-h`) prints the usage on stdout and exits 0.
//!
//! ```no_run
//! use green_bench::args::Args;
//!
//! let mut args = Args::from_env("usage: demo [--threads <n>] [--quiet] <file>\n");
//! let (mut threads, mut quiet, mut file) = (1usize, false, None);
//! while let Some(arg) = args.next() {
//!     match arg.as_str() {
//!         "--threads" => threads = args.parsed("thread count"),
//!         "--quiet" => quiet = true,
//!         _ => args.positional_once(&mut file, "input file"),
//!     }
//! }
//! ```

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// Prints `error: <message>` and then `usage` on stderr, and exits 2.
pub fn fail(usage: &str, message: &str) -> ! {
    eprintln!("error: {message}\n\n{usage}");
    std::process::exit(2);
}

/// A command line, read one argument at a time.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    rest: std::vec::IntoIter<String>,
    /// The argument [`Args::next`] returned last: the flag a value
    /// belongs to, or a positional.
    current: String,
}

impl Args {
    /// Reads `args`; errors print `usage`.
    pub fn new(usage: &'static str, args: Vec<String>) -> Args {
        Args {
            usage,
            rest: args.into_iter(),
            current: String::new(),
        }
    }

    /// Reads the process's arguments after the program name.
    pub fn from_env(usage: &'static str) -> Args {
        Args::new(usage, std::env::args().skip(1).collect())
    }

    /// The value of the flag just read; exits 2 when the line ends
    /// before it.
    pub fn value(&mut self) -> String {
        match self.rest.next() {
            Some(value) => value,
            None => self.fail(&format!("{} needs a value", self.current)),
        }
    }

    /// The value of the flag just read, parsed; exits 2 with
    /// ``<flag>: bad <what> `<value>` `` when it does not parse.
    pub fn parsed<T: FromStr>(&mut self, what: &str) -> T {
        self.parsed_by(|v| v.parse().map_err(|_| format!("bad {what} `{v}`")))
    }

    /// The value of the flag just read, converted by `parse`; exits 2
    /// with `<flag>: <error>` when it fails.
    pub fn parsed_by<T, E: Display>(&mut self, parse: impl FnOnce(&str) -> Result<T, E>) -> T {
        let value = self.value();
        parse(&value).unwrap_or_else(|e| self.fail(&format!("{}: {e}", self.current)))
    }

    /// The argument just read as a positional path; exits 2 when it is
    /// a flag, since every flag the binary knows matched an earlier arm.
    pub fn positional(&self) -> PathBuf {
        if self.current.starts_with('-') {
            self.unknown();
        }
        PathBuf::from(&self.current)
    }

    /// [`positional`](Args::positional), for a command that takes one:
    /// stores it in `slot`, and exits 2 when `slot` is already filled.
    pub fn positional_once(&self, slot: &mut Option<PathBuf>, what: &str) {
        if slot.replace(self.positional()).is_some() {
            self.fail(&format!("more than one {what} given"));
        }
    }

    /// Exits 2: the argument just read is no flag the binary knows.
    pub fn unknown(&self) -> ! {
        self.fail(&format!("unknown option `{}`", self.current))
    }

    /// Exits 2 with `message` and the usage.
    pub fn fail(&self, message: &str) -> ! {
        fail(self.usage, message)
    }
}

impl Iterator for Args {
    type Item = String;

    /// The next argument, a flag or a positional. `--help` and `-h`
    /// print the usage on stdout and exit 0.
    fn next(&mut self) -> Option<String> {
        let arg = self.rest.next()?;
        if arg == "--help" || arg == "-h" {
            print!("{}", self.usage);
            std::process::exit(0);
        }
        self.current = arg.clone();
        Some(arg)
    }
}
