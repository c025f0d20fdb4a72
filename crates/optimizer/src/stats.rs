//! Runtime selectivity and rate estimation.
//!
//! The paper leaves the transition *trigger* to the literature (§2); this
//! module supplies the standard one: watch each stream's arrival rate and
//! per-arrival match behaviour with exponentially-decayed counters, and
//! derive the join order the optimizer would pick (most selective streams
//! innermost, §5.2).

use jisc_common::StreamId;

/// Exponentially-weighted moving average.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    value: f64,
    alpha: f64,
    primed: bool,
}

impl Ewma {
    /// New EWMA with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma {
            value: 0.0,
            alpha,
            primed: false,
        }
    }

    /// Fold one observation in.
    pub fn observe(&mut self, x: f64) {
        if self.primed {
            self.value += self.alpha * (x - self.value);
        } else {
            self.value = x;
            self.primed = true;
        }
    }

    /// Current estimate (0.0 until the first observation).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Has at least one observation been folded in?
    pub fn is_primed(&self) -> bool {
        self.primed
    }
}

/// Per-stream runtime statistics.
#[derive(Debug, Clone)]
pub struct StreamStats {
    /// Fraction of this stream's arrivals that produced at least one result.
    pub hit_rate: Ewma,
    /// Arrivals seen.
    pub arrivals: u64,
    /// Results attributed to this stream's arrivals.
    pub results: u64,
}

/// Watches arrivals and outcomes, estimating per-stream selectivity.
#[derive(Debug, Clone)]
pub struct SelectivityEstimator {
    streams: Vec<StreamStats>,
}

impl SelectivityEstimator {
    /// Estimator over `n` streams with EWMA smoothing `alpha`.
    pub fn new(n: usize, alpha: f64) -> Self {
        SelectivityEstimator {
            streams: vec![
                StreamStats {
                    hit_rate: Ewma::new(alpha),
                    arrivals: 0,
                    results: 0
                };
                n
            ],
        }
    }

    /// Record one arrival on `stream` that produced `results` output tuples.
    pub fn observe(&mut self, stream: StreamId, results: u64) {
        let s = &mut self.streams[stream.0 as usize];
        s.arrivals += 1;
        s.results += results;
        s.hit_rate.observe(if results > 0 { 1.0 } else { 0.0 });
    }

    /// Estimated hit rate of a stream (0.0 with no data).
    pub fn hit_rate(&self, stream: StreamId) -> f64 {
        self.streams[stream.0 as usize].hit_rate.value()
    }

    /// Arrivals observed on a stream.
    pub fn arrivals(&self, stream: StreamId) -> u64 {
        self.streams[stream.0 as usize].arrivals
    }

    /// Streams ordered by ascending hit rate — the join order a selectivity-
    /// driven optimizer would install (most selective innermost, §5.2).
    /// Requires every stream to have some data; returns `None` otherwise.
    pub fn proposed_order(&self) -> Option<Vec<StreamId>> {
        if self.streams.iter().any(|s| !s.hit_rate.is_primed()) {
            return None;
        }
        let mut idx: Vec<usize> = (0..self.streams.len()).collect();
        idx.sort_by(|&a, &b| {
            self.streams[a]
                .hit_rate
                .value()
                .partial_cmp(&self.streams[b].hit_rate.value())
                .expect("rates are finite")
        });
        Some(idx.into_iter().map(|i| StreamId(i as u16)).collect())
    }

    /// Reset decayed state (e.g. after a workload-phase change).
    pub fn reset(&mut self) {
        let n = self.streams.len();
        let alpha = self.streams[0].hit_rate.alpha;
        *self = SelectivityEstimator::new(n, alpha);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.2);
        assert!(!e.is_primed());
        for _ in 0..100 {
            e.observe(1.0);
        }
        assert!((e.value() - 1.0).abs() < 1e-6);
        for _ in 0..100 {
            e.observe(0.0);
        }
        assert!(e.value() < 0.01);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn estimator_orders_by_selectivity() {
        let mut est = SelectivityEstimator::new(3, 0.3);
        // stream 0: hits often; stream 1: never; stream 2: sometimes.
        for i in 0..100u64 {
            est.observe(StreamId(0), 1);
            est.observe(StreamId(1), 0);
            est.observe(StreamId(2), u64::from(i % 3 == 0));
        }
        let order = est.proposed_order().expect("all streams primed");
        assert_eq!(order, vec![StreamId(1), StreamId(2), StreamId(0)]);
        assert!(est.hit_rate(StreamId(0)) > est.hit_rate(StreamId(2)));
        assert_eq!(est.arrivals(StreamId(1)), 100);
    }

    #[test]
    fn no_proposal_without_full_coverage() {
        let mut est = SelectivityEstimator::new(2, 0.5);
        est.observe(StreamId(0), 1);
        assert!(est.proposed_order().is_none());
        est.observe(StreamId(1), 0);
        assert!(est.proposed_order().is_some());
    }

    #[test]
    fn reset_clears_history() {
        let mut est = SelectivityEstimator::new(2, 0.5);
        est.observe(StreamId(0), 1);
        est.observe(StreamId(1), 0);
        est.reset();
        assert!(est.proposed_order().is_none());
        assert_eq!(est.arrivals(StreamId(0)), 0);
    }
}
