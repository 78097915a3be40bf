//! The answer checker.
//!
//! Every read the workloads issue is compared with the generator's model:
//!
//! - **exact** — the value must equal the model (reads nobody else can
//!   change concurrently: all of `browse`, own-partition `release` reads,
//!   static attributes, in-transaction `checkout` reads);
//! - **bounded** — a read of a transmitter another client writes. Written
//!   values only grow, one step per acknowledged write, and each writer has
//!   at most one write in flight, so the answer must lie between the model
//!   value before the request and one above the model value after the
//!   reply. An answer below that, or below a value this client has already
//!   seen for the same transmitter, is **stale** (the paper's instant
//!   visibility is broken); one above it is **wrong**.
//!
//! Nothing is ever suppressed: every wrong or stale answer is counted.

use std::collections::HashMap;

use ccdb_core::Value;

/// Counts of bad answers seen by one client.
#[derive(Clone, Debug, Default)]
pub struct Checker {
    /// Answers that differ from the model (or are not integers).
    pub wrong_values: u64,
    /// Answers older than a value already seen or acknowledged.
    pub stale_reads: u64,
    /// Answers checked against the bounds: how often a stale read could
    /// have shown.
    pub bounded_reads: u64,
    /// Highest value seen per transmitter `(level, index, attribute)`.
    seen: HashMap<(u8, u32, u8), i64>,
}

impl Checker {
    /// A checker with no history.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Wrong plus stale answers.
    pub fn bad(&self) -> u64 {
        self.wrong_values + self.stale_reads
    }

    /// Check an answer that must equal `want`. Returns whether it did.
    pub fn exact(&mut self, got: &Value, want: i64) -> bool {
        let ok = *got == Value::Int(want);
        if !ok {
            self.wrong_values += 1;
        }
        ok
    }

    /// Check an answer for transmitter `key` whose model value was
    /// `before` when the request was sent and `after` when the reply came
    /// back. Returns whether the answer was acceptable.
    pub fn bounded(
        &mut self,
        key: (usize, usize, usize),
        got: &Value,
        before: i64,
        after: i64,
    ) -> bool {
        self.bounded_reads += 1;
        let Value::Int(v) = *got else {
            self.wrong_values += 1;
            return false;
        };
        let key = (key.0 as u8, key.1 as u32, key.2 as u8);
        let floor = self.seen.get(&key).copied().unwrap_or(i64::MIN).max(before);
        if v < floor {
            self.stale_reads += 1;
            return false;
        }
        if v > after + 1 {
            self.wrong_values += 1;
            return false;
        }
        self.seen.insert(key, v);
        true
    }

    /// Fold another client's counts into this one.
    pub fn merge(&mut self, other: &Checker) {
        self.wrong_values += other.wrong_values;
        self.stale_reads += other.stale_reads;
        self.bounded_reads += other.bounded_reads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_flags_a_fabricated_wrong_value() {
        let mut c = Checker::new();
        assert!(c.exact(&Value::Int(5), 5));
        assert!(!c.exact(&Value::Int(6), 5));
        assert!(!c.exact(&Value::Missing, 5));
        assert_eq!((c.wrong_values, c.stale_reads), (2, 0));
    }

    #[test]
    fn bounded_flags_a_fabricated_stale_value() {
        let mut c = Checker::new();
        let key = (3, 17, 7);
        assert!(c.bounded(key, &Value::Int(10), 9, 9));
        // Already saw 10: a later 9 is stale even though the model allowed it.
        assert!(!c.bounded(key, &Value::Int(9), 9, 10));
        // Below the acknowledged model value: stale.
        assert!(!c.bounded(key, &Value::Int(11), 12, 12));
        assert_eq!((c.wrong_values, c.stale_reads), (0, 2));
        // Above anything written so far: wrong.
        assert!(!c.bounded(key, &Value::Int(20), 12, 12));
        assert_eq!(c.wrong_values, 1);
    }

    #[test]
    fn values_seen_are_per_transmitter() {
        let mut c = Checker::new();
        assert!(c.bounded((2, 1, 6), &Value::Int(50), 50, 50));
        assert!(c.bounded((2, 2, 6), &Value::Int(3), 3, 3));
        assert_eq!(c.bad(), 0);
    }
}
