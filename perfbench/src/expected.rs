//! The hand-written reference verdicts (`expected.txt`) and the verdict
//! vocabulary both workloads compare against it.

use cdsspec_mc::{BugCategory, Stats, StopReason};

/// The reference file, compiled in so a run never depends on its
/// working directory.
pub const EXPECTED_TXT: &str = include_str!("../expected.txt");

/// One expected Figure 8 injection.
pub struct Injection {
    pub bench: String,
    pub site: String,
    /// `"<from> -> <to>"`, as the site enumeration weakens it.
    pub weakening: String,
    pub verdict: String,
}

pub struct Expected {
    /// `(benchmark, verdict)` per Figure 7 row.
    pub fig7: Vec<(String, String)>,
    pub inject: Vec<Injection>,
}

impl Expected {
    pub fn load() -> Result<Expected, String> {
        let mut out = Expected {
            fig7: Vec::new(),
            inject: Vec::new(),
        };
        for (n, line) in EXPECTED_TXT.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('|').map(str::trim).collect();
            match f.as_slice() {
                ["fig7", bench, verdict] => out.fig7.push((bench.to_string(), verdict.to_string())),
                ["inject", bench, site, weakening, verdict] => out.inject.push(Injection {
                    bench: bench.to_string(),
                    site: site.to_string(),
                    weakening: weakening.to_string(),
                    verdict: verdict.to_string(),
                }),
                _ => return Err(format!("expected.txt:{}: cannot parse {line:?}", n + 1)),
            }
        }
        Ok(out)
    }

    pub fn fig7_verdict(&self, bench: &str) -> Option<&str> {
        self.fig7
            .iter()
            .find(|(b, _)| b == bench)
            .map(|(_, v)| v.as_str())
    }

    pub fn injection(&self, bench: &str, site: &str) -> Option<&Injection> {
        self.inject
            .iter()
            .find(|i| i.bench == bench && i.site == site)
    }
}

pub fn category_label(c: BugCategory) -> &'static str {
    match c {
        BugCategory::BuiltIn => "builtin",
        BugCategory::Admissibility => "admissibility",
        BugCategory::Assertion => "assertion",
        BugCategory::Internal => "internal",
    }
}

/// Classify a rendered bug message (a `bug:` line of a campaign report)
/// by the rule `Bug::category` applies to the live bug: checker
/// diagnostics are `[plugin] …`, admissibility ones start with
/// `admissibility`, internal failures have fixed prefixes, and
/// everything else is a built-in check.
pub fn category_of_message(msg: &str) -> &'static str {
    if let Some(rest) = msg.strip_prefix('[') {
        let text = rest.split_once("] ").map(|(_, t)| t).unwrap_or(rest);
        if text.starts_with("admissibility") {
            "admissibility"
        } else {
            "assertion"
        }
    } else if msg.starts_with("AXIOM VIOLATION") || msg.starts_with("engine failure") {
        "internal"
    } else {
        "builtin"
    }
}

/// The verdict of an exploration: `clean` (fig7) or `undetected`
/// (injections) when it exhausted the tree without a bug,
/// `detected <category>` for its first bug, otherwise the stop reason.
pub fn verdict_of(stats: &Stats, no_bug: &str) -> String {
    match (stats.bugs.first(), stats.stop) {
        (_, StopReason::Errored) => "errored".into(),
        (Some(b), _) => format!("detected {}", category_label(b.bug.category())),
        (None, StopReason::Exhausted) => no_bug.into(),
        (None, stop) => format!("incomplete ({stop})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_file_parses_and_is_complete() {
        let e = Expected::load().unwrap();
        assert_eq!(e.fig7.len(), 10);
        assert!(e.fig7.iter().all(|(_, v)| v == "clean"));
        assert_eq!(e.inject.len(), 46);
    }

    #[test]
    fn messages_classify_like_bug_category() {
        let adm = "[cdsspec] admissibility: `enq#2` and `deq#3` must be ordered by r";
        assert_eq!(category_of_message(adm), "admissibility");
        assert_eq!(
            category_of_message("[cdsspec] postcondition of `deq#3` failed"),
            "assertion"
        );
        assert_eq!(category_of_message("data race on d0: T0 and T1"), "builtin");
        assert_eq!(
            category_of_message("AXIOM VIOLATION (internal): x"),
            "internal"
        );
    }
}
