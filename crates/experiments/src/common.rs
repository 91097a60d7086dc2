//! Shared experiment plumbing: scales, seeds, output locations.

use std::path::{Path, PathBuf};

/// Experiment seed shared by the reproduction (chosen once; every
/// substream derives from it deterministically).
pub const REPRO_SEED: u64 = 20171112; // SC'17 opened November 12, 2017

/// Experiment dimensioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Shrunk dimensions for smoke runs and CI.
    Quick,
    /// The paper's dimensions.
    Paper,
}

impl Scale {
    /// Parses `--quick` style flags.
    pub fn from_args<I: Iterator<Item = String>>(args: I) -> Scale {
        for a in args {
            if a == "--quick" || a == "-q" {
                return Scale::Quick;
            }
        }
        Scale::Paper
    }

    /// Picks between the two scale variants.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

/// The output directory for rendered tables and CSVs (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("DRAFTS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a string artifact into the results dir and echoes its path.
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("write artifact");
    path
}

/// Formats seconds as `Hh MMm`.
pub fn fmt_hours(secs: u64) -> String {
    format!("{}h {:02}m", secs / 3600, (secs % 3600) / 60)
}

/// Pretty path for logs.
pub fn display(path: &Path) -> String {
    path.display().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            Scale::from_args(args(&["repro", "table1", "--quick"]).into_iter()),
            Scale::Quick
        );
        assert_eq!(
            Scale::from_args(args(&["repro", "table1"]).into_iter()),
            Scale::Paper
        );
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Paper.pick(1, 2), 2);
    }

    #[test]
    fn fmt_hours_formats() {
        assert_eq!(fmt_hours(3660), "1h 01m");
        assert_eq!(fmt_hours(0), "0h 00m");
        assert_eq!(fmt_hours(12 * 3600), "12h 00m");
    }

    #[test]
    fn artifacts_round_trip() {
        std::env::set_var(
            "DRAFTS_RESULTS_DIR",
            std::env::temp_dir().join("drafts_results"),
        );
        let p = write_artifact("test.txt", "hello");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "hello");
        std::env::remove_var("DRAFTS_RESULTS_DIR");
    }
}
