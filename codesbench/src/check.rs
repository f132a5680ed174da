//! Output checks, computed apart from the program under test.
//!
//! * Beam selection: the chosen SQL must be the highest-ranked beam
//!   candidate that the benchmark itself can execute through `sqlengine`
//!   under the same budget (or the top candidate when none executes).
//! * Execution accuracy: predicted and gold SQL are both executed and
//!   their results compared.
//! * Served answers: every SQL served through the stack must be
//!   byte-equal to a reference inference of the same request on the same
//!   database state, made in-process with no serving layer and no cache.
//! * Stale reads: a probe sent right after a write that comes back from
//!   the result cache is a failed operation.

use codes::model::ScoredCandidate;
use sqlengine::{
    catch_panics, execute_query_governed, preprice_query, with_retry, Database, ExecLimits,
};

/// Execute one beam candidate the way execution-guided selection must:
/// shed when pre-pricing refuses it, otherwise run it under `limits` with
/// `retries` halved-budget retries and panic isolation.
pub fn candidate_executes(db: &Database, sql: &str, limits: &ExecLimits, retries: u32) -> bool {
    preprice_query(db, sql, limits).is_ok()
        && with_retry(limits, retries, |attempt| {
            catch_panics(|| execute_query_governed(db, sql, attempt).map(|_| ()))
        })
        .is_ok()
}

/// The SQL selection must pick from `beam`: the first candidate that
/// executes, else the top candidate. `None` for an empty beam.
pub fn expected_choice<'a>(
    db: &Database,
    beam: &'a [ScoredCandidate],
    limits: &ExecLimits,
    retries: u32,
) -> Option<&'a str> {
    beam.iter()
        .find(|c| candidate_executes(db, &c.sql, limits, retries))
        .or_else(|| beam.first())
        .map(|c| c.sql.as_str())
}

/// Check a chosen SQL against its beam.
pub fn check_choice(
    db: &Database,
    chosen: &str,
    beam: &[ScoredCandidate],
    limits: &ExecLimits,
    retries: u32,
) -> Result<(), String> {
    match expected_choice(db, beam, limits, retries) {
        Some(expected) if expected != chosen => Err(format!(
            "chose `{chosen}` but the first executable beam candidate is `{expected}`"
        )),
        _ => Ok(()),
    }
}

/// Execution match: both statements execute and return the same result.
pub fn execution_match(db: &Database, predicted: &str, gold: &str) -> bool {
    let limits = ExecLimits::serving();
    let run = |sql: &str| catch_panics(|| execute_query_governed(db, sql, &limits));
    match (run(gold), run(predicted)) {
        (Ok((gold, _)), Ok((pred, _))) => pred.same_result(&gold),
        _ => false,
    }
}

/// Check one served answer against the reference inference.
pub fn check_served(served: &str, reference: &str) -> Result<(), String> {
    if served == reference {
        Ok(())
    } else {
        Err(format!(
            "served `{served}` but the in-process reference is `{reference}`"
        ))
    }
}

/// Operations attempted and failed, as the result line reports them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one ordinary read.
    pub fn read(&mut self) {
        self.attempted += 1;
    }

    /// Count one stale-read probe; a cached answer after a write fails.
    /// Returns whether the probe failed.
    pub fn probe(&mut self, cached: bool) -> bool {
        self.attempted += 1;
        if cached {
            self.failed += 1;
        }
        cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        sqlengine::database_from_script(
            "shop",
            "CREATE TABLE item (id INTEGER PRIMARY KEY, name TEXT, price REAL);
             INSERT INTO item VALUES (1, 'pen', 1.5);
             INSERT INTO item VALUES (2, 'ink', 7.0);",
        )
        .expect("fixture script parses")
    }

    fn beam(sqls: &[&str]) -> Vec<ScoredCandidate> {
        sqls.iter()
            .enumerate()
            .map(|(i, sql)| ScoredCandidate {
                sql: sql.to_string(),
                template_id: i,
                score: 1.0 - i as f64 * 0.1,
                executable: false,
            })
            .collect()
    }

    #[test]
    fn choice_must_be_first_executable_candidate() {
        let db = db();
        let limits = ExecLimits::serving();
        let b = beam(&[
            "SELECT nope FROM item",
            "SELECT name FROM item",
            "SELECT id FROM item",
        ]);
        assert_eq!(
            expected_choice(&db, &b, &limits, 1),
            Some("SELECT name FROM item")
        );
        assert!(check_choice(&db, "SELECT name FROM item", &b, &limits, 1).is_ok());
        // A wrong SQL is caught: executable but ranked below the first
        // executable candidate, or not executable at all.
        assert!(check_choice(&db, "SELECT id FROM item", &b, &limits, 1).is_err());
        assert!(check_choice(&db, "SELECT nope FROM item", &b, &limits, 1).is_err());
    }

    #[test]
    fn no_executable_candidate_falls_back_to_the_top_one() {
        let db = db();
        let limits = ExecLimits::serving();
        let b = beam(&["SELECT a FROM missing", "SELECT b FROM missing"]);
        assert!(check_choice(&db, "SELECT a FROM missing", &b, &limits, 1).is_ok());
        assert!(check_choice(&db, "SELECT b FROM missing", &b, &limits, 1).is_err());
        assert!(check_choice(&db, "anything", &[], &limits, 1).is_ok());
    }

    #[test]
    fn execution_match_compares_results() {
        let db = db();
        let gold = "SELECT name FROM item WHERE price > 2";
        assert!(execution_match(
            &db,
            "SELECT name FROM item WHERE id = 2",
            gold
        ));
        assert!(!execution_match(&db, "SELECT name FROM item", gold));
        assert!(!execution_match(&db, "SELECT nope FROM item", gold));
    }

    #[test]
    fn served_answer_must_equal_reference() {
        assert!(check_served("SELECT 1", "SELECT 1").is_ok());
        assert!(check_served("SELECT 1 ", "SELECT 1").is_err());
    }

    #[test]
    fn stale_probe_is_counted_as_failed() {
        let mut t = Tally::default();
        t.read();
        assert!(!t.probe(false));
        assert!(t.probe(true));
        t.read();
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
    }
}
