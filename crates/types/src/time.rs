//! Logical timestamps issued by TafDB's time servers.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::wire;

/// A monotonically increasing logical timestamp (paper §3.2, "a group of time
/// servers assigning monotonically increasing timestamps to order metadata
/// transactions").
///
/// Timestamps order last-writer-wins merges of overwrite attributes such as
/// `mtime` and `mode` (paper §4.2). `Timestamp(0)` is the "beginning of time"
/// carried by freshly initialized records.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp, ordered before every assigned timestamp.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Returns the raw counter value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts@{}", self.0)
    }
}

wire!(struct Timestamp(raw));

/// A process-local monotonic timestamp oracle.
///
/// The distributed deployment wraps this in an RPC service (the TS group of
/// Figure 5); unit tests and single-process setups use it directly.
#[derive(Debug, Default)]
pub struct TimestampOracle {
    next: AtomicU64,
}

impl TimestampOracle {
    /// Creates an oracle whose first issued timestamp is `1`.
    pub fn new() -> Self {
        TimestampOracle {
            next: AtomicU64::new(1),
        }
    }

    /// Issues the next timestamp. Never returns the same value twice and the
    /// sequence is strictly increasing across threads.
    pub fn next(&self) -> Timestamp {
        Timestamp(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Fast-forwards the oracle so the next issued timestamp is strictly
    /// greater than `floor`. Used on recovery so restarted time servers never
    /// reissue timestamps observed before the crash.
    pub fn advance_past(&self, floor: Timestamp) {
        let mut cur = self.next.load(Ordering::Relaxed);
        while cur <= floor.0 {
            match self.next.compare_exchange_weak(
                cur,
                floor.0 + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn oracle_is_strictly_increasing() {
        let o = TimestampOracle::new();
        let a = o.next();
        let b = o.next();
        assert!(b > a);
        assert!(a > Timestamp::ZERO);
    }

    #[test]
    fn oracle_unique_across_threads() {
        let o = Arc::new(TimestampOracle::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let o = Arc::clone(&o);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| o.next().raw()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8 * 1000, "timestamps must be unique");
    }

    #[test]
    fn advance_past_skips_reissued_range() {
        let o = TimestampOracle::new();
        o.advance_past(Timestamp(100));
        assert!(o.next() > Timestamp(100));
        // Advancing backwards is a no-op.
        o.advance_past(Timestamp(5));
        assert!(o.next() > Timestamp(100));
    }
}
