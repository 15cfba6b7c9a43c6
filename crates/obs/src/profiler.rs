//! Critical-section profiler: drop-guard stopwatches feeding duration
//! histograms.
//!
//! The instrumented sites are the ones the paper's argument hinges on —
//! lock wait/hold in the lock manager, Raft propose→apply, 2PC phase
//! durations. Each site creates a [`Stopwatch`] over a cached histogram
//! handle; the elapsed nanoseconds
//! are recorded when the guard drops (or at an explicit [`Stopwatch::stop`]).

use crate::metrics::Histogram;
use std::sync::Arc;
use std::time::Instant;

/// Times a scope and records the elapsed nanoseconds into a histogram when
/// dropped. `disarm` cancels recording (e.g. an aborted txn phase).
pub struct Stopwatch {
    start: Instant,
    sink: Option<Arc<Histogram>>,
}

impl Stopwatch {
    /// Starts timing; records into `sink` on drop.
    pub fn start(sink: Arc<Histogram>) -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
            sink: Some(sink),
        }
    }

    /// Elapsed nanoseconds so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Stops now and records, returning the elapsed nanoseconds.
    pub fn stop(mut self) -> u64 {
        let ns = self.elapsed_ns();
        if let Some(sink) = self.sink.take() {
            sink.observe(ns);
        }
        ns
    }

    /// Cancels recording; the scope is not observed.
    pub fn disarm(mut self) {
        self.sink = None;
    }
}

impl Drop for Stopwatch {
    fn drop(&mut self) {
        if let Some(sink) = self.sink.take() {
            sink.observe(self.start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_records_on_drop() {
        let h = Arc::new(Histogram::default());
        {
            let _sw = Stopwatch::start(Arc::clone(&h));
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn stop_returns_elapsed_and_records_once() {
        let h = Arc::new(Histogram::default());
        let sw = Stopwatch::start(Arc::clone(&h));
        let ns = sw.stop();
        assert_eq!(h.count(), 1);
        assert_eq!(h.snapshot().sum, ns);
    }

    #[test]
    fn disarm_skips_recording() {
        let h = Arc::new(Histogram::default());
        let sw = Stopwatch::start(Arc::clone(&h));
        sw.disarm();
        assert_eq!(h.count(), 0);
    }
}
