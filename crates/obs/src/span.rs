//! RAII span timers: measure a scope, record on drop.

use std::sync::Arc;
use std::time::Instant;

use crate::hist::Histogram;

/// Records the elapsed nanoseconds between construction and drop into
/// a histogram. Construction costs one `Instant::now()`; drop costs
/// one more plus the histogram's wait-free record.
///
/// ```
/// use xar_obs::{Histogram, SpanTimer};
/// use std::sync::Arc;
///
/// let hist = Arc::new(Histogram::new());
/// {
///     let _span = SpanTimer::new(Arc::clone(&hist));
///     // ... timed work ...
/// }
/// assert_eq!(hist.count(), 1);
/// ```
#[derive(Debug)]
pub struct SpanTimer {
    hist: Option<Arc<Histogram>>,
    start: Instant,
}

impl SpanTimer {
    /// Start timing into `hist`.
    pub fn new(hist: Arc<Histogram>) -> Self {
        Self {
            hist: Some(hist),
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed so far.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Stop early, recording now instead of at scope end.
    pub fn stop(self) {
        drop(self);
    }

    /// Abandon the span without recording anything.
    pub fn cancel(mut self) {
        self.hist = None;
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(hist) = &self.hist {
            hist.record(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_on_drop() {
        let h = Arc::new(Histogram::new());
        {
            let _s = SpanTimer::new(Arc::clone(&h));
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(
            snap.max >= 2_000_000,
            "slept 2 ms but recorded {} ns",
            snap.max
        );
    }

    #[test]
    fn cancel_records_nothing() {
        let h = Arc::new(Histogram::new());
        let s = SpanTimer::new(Arc::clone(&h));
        s.cancel();
        assert_eq!(h.count(), 0);
    }
}
