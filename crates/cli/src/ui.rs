//! Console output policy: **stdout carries data, stderr carries
//! diagnostics**.
//!
//! Commands whose result is a value (`guarantee`, `solve`, `breach`,
//! `utility`) print it to stdout so it can be piped. Commands whose result
//! is a file (`generate`, `publish`, `resume`) print only progress, and
//! progress always goes to stderr — `--quiet` silences it, `--verbose`
//! adds detail (including the telemetry run summary when tracing is on).

use crate::flags::Flags;
use std::fmt::Display;

/// Verbosity policy parsed from `--quiet` / `--verbose`.
#[derive(Debug, Clone, Copy)]
pub struct Ui {
    quiet: bool,
    verbose: bool,
}

impl Ui {
    /// Reads the two switches; they are mutually exclusive.
    pub fn from_flags(flags: &Flags) -> Result<Self, String> {
        let quiet = flags.has("quiet");
        let verbose = flags.has("verbose");
        if quiet && verbose {
            return Err("--quiet and --verbose are mutually exclusive".to_string());
        }
        Ok(Ui { quiet, verbose })
    }

    /// Whether `--verbose` was given.
    pub fn verbose(&self) -> bool {
        self.verbose
    }

    /// A progress line: stderr, suppressed by `--quiet`.
    pub fn progress(&self, msg: impl Display) {
        if !self.quiet {
            eprintln!("{msg}");
        }
    }

    /// A pre-formatted multi-line block (e.g. a pipeline report): stderr,
    /// suppressed by `--quiet`.
    pub fn progress_block(&self, text: impl Display) {
        if !self.quiet {
            eprint!("{text}");
        }
    }

    /// A pre-formatted multi-line detail block: stderr, only with
    /// `--verbose`.
    pub fn detail_block(&self, text: impl Display) {
        if self.verbose {
            eprint!("{text}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_and_verbose_conflict() {
        let f = Flags::parse(["--quiet", "--verbose"]).unwrap();
        assert!(Ui::from_flags(&f).unwrap_err().contains("mutually exclusive"));
        let f = Flags::parse(["--verbose"]).unwrap();
        assert!(Ui::from_flags(&f).unwrap().verbose());
        let f = Flags::parse(Vec::<String>::new()).unwrap();
        assert!(!Ui::from_flags(&f).unwrap().verbose());
    }
}
