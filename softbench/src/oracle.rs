//! The correctness oracle: what every audited test must produce.
//!
//! `expected.tsv` commits one tuple per test — paths explored per agent,
//! inconsistencies, unverified pairs, confirmed witnesses and root-cause
//! clusters — for `reference` vs `ovs`. All six fields were found not to
//! depend on the seed (seeds 1, 2, 3, 7, 12345 and 0x50F7 agree), so they
//! are checked at every seed.

use soft_harness::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// The committed expectations.
const COMMITTED: &str = include_str!("../expected.tsv");

/// One test's audit outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuple {
    /// Paths explored for agent A.
    pub paths_a: u64,
    /// Paths explored for agent B.
    pub paths_b: u64,
    /// Inconsistencies found by the crosscheck.
    pub inconsistencies: u64,
    /// Pairs left undecided.
    pub unverified: u64,
    /// Witnesses confirmed by concrete replay.
    pub confirmed: u64,
    /// Root-cause clusters among confirmed witnesses.
    pub clusters: u64,
}

impl std::fmt::Display for Tuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}/{}/{}",
            self.paths_a,
            self.paths_b,
            self.inconsistencies,
            self.unverified,
            self.confirmed,
            self.clusters
        )
    }
}

/// Expected tuples by test id.
#[derive(Debug, Clone)]
pub struct Expected(BTreeMap<String, Tuple>);

impl Expected {
    /// The tuples committed next to this benchmark.
    pub fn committed() -> Expected {
        Expected::parse(COMMITTED).expect("the committed expected.tsv parses")
    }

    /// Tuples from a file in the same format.
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Expected::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parse `test paths_a paths_b inconsistencies unverified confirmed
    /// clusters` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let nums: Result<Vec<u64>, _> = fields[1..].iter().map(|f| f.parse()).collect();
            match (fields.len(), nums) {
                (7, Ok(v)) => {
                    map.insert(
                        fields[0].to_string(),
                        Tuple {
                            paths_a: v[0],
                            paths_b: v[1],
                            inconsistencies: v[2],
                            unverified: v[3],
                            confirmed: v[4],
                            clusters: v[5],
                        },
                    );
                }
                _ => return Err(format!("line {}: expected a test id and six counts", n + 1)),
            }
        }
        Ok(Expected(map))
    }

    /// The expected tuple for `test`.
    pub fn get(&self, test: &str) -> Result<Tuple, String> {
        self.0
            .get(test)
            .copied()
            .ok_or_else(|| format!("no expected tuple for test '{test}'"))
    }

    /// `Ok` when `got` is what `test` must produce.
    pub fn check(&self, test: &str, got: &Tuple) -> Result<(), String> {
        let want = self.get(test)?;
        if want == *got {
            Ok(())
        } else {
            Err(format!("{test}: got {got}, expected {want} (paths_a/paths_b/inconsistencies/unverified/confirmed/clusters)"))
        }
    }
}

/// Read the tuple from `soft run`'s per-test outcome line:
/// `<test>: <a>+<b> paths, <n> inconsistencies, <n> unverified, <n>
/// confirmed witness(es) in <n> cluster(s) -> <corpus>`.
pub fn parse_run_line(stdout: &str, test: &str) -> Result<Tuple, String> {
    let prefix = format!("{test}: ");
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .ok_or_else(|| format!("{test}: no outcome line in soft run output"))?;
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .take(6)
        .map(|s| s.parse().expect("digit runs parse"))
        .collect();
    match nums[..] {
        [paths_a, paths_b, inconsistencies, unverified, confirmed, clusters] => Ok(Tuple {
            paths_a,
            paths_b,
            inconsistencies,
            unverified,
            confirmed,
            clusters,
        }),
        _ => Err(format!("{test}: malformed outcome line '{line}'")),
    }
}

/// Read the tuple from a serve reply's `summary` object.
pub fn tuple_from_summary(summary: &Json) -> Result<Tuple, String> {
    let u = |k: &str| summary.field(k).and_then(Json::as_u64);
    Ok(Tuple {
        paths_a: u("paths_a")?,
        paths_b: u("paths_b")?,
        inconsistencies: u("inconsistencies")?,
        unverified: u("unverified")?,
        confirmed: u("confirmed")?,
        clusters: u("clusters")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_table_covers_every_audited_test() {
        let e = Expected::committed();
        for t in crate::audit::INTEROP
            .tests
            .iter()
            .chain(crate::audit::ETH.tests)
        {
            assert!(e.get(t).is_ok(), "{t} has no expected tuple");
        }
        assert_eq!(
            e.get("packet_out").unwrap().to_string(),
            "161/212/92/0/92/2"
        );
    }

    #[test]
    fn run_lines_parse_and_mismatches_are_reported() {
        let out = "short_symb: 18+16 paths, 4 inconsistencies, 0 unverified, \
                   0 confirmed witness(es) in 0 cluster(s) -> w/p0_corpus_short_symb.json\n";
        let got = parse_run_line(out, "short_symb").expect("parses");
        let e = Expected::committed();
        assert_eq!(e.check("short_symb", &got), Ok(()));
        let off = Tuple {
            confirmed: 1,
            ..got
        };
        assert!(e.check("short_symb", &off).is_err());
        assert!(parse_run_line(out, "packet_out").is_err());
        assert!(Expected::parse("packet_out 1 2 3\n").is_err());
    }
}
