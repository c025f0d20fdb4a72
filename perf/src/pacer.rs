//! The open-loop load generator and the latency statistics it yields.
//!
//! Batches are offered on a fixed schedule from one thread. A batch is *due*
//! when its last tuple is due at the offered rate; it is offered no earlier,
//! and its latency runs from that due time — not from when the generator got
//! round to it — until the offer returns. A stall therefore charges every
//! batch that was due while it lasted, as it would independent producers.

use std::time::Instant;

/// Time as the pacer sees it; the tests substitute a clock they control.
pub trait Clock {
    /// Nanoseconds since the clock started.
    fn now_ns(&mut self) -> u64;
    /// Return no earlier than `ns` (immediately if that has passed).
    fn wait_until(&mut self, ns: u64);
}

/// Wall clock. Waiting never sleeps: measured here, a sleep overshoots its
/// deadline by 80 to 400 µs, which is as long as a batch takes. A caller that
/// is the program's only thread spins; one that shares the cores with the
/// program's workers yields in a loop, which costs it a time slice now and
/// then (measured: p99 of 1.2 to 1.6 ms where spinning sees 0.65 to 0.73 ms)
/// but leaves the workers a core.
pub struct WallClock {
    origin: Instant,
    yields: bool,
}

impl WallClock {
    pub fn spinning() -> Self {
        WallClock {
            origin: Instant::now(),
            yields: false,
        }
    }

    pub fn yielding() -> Self {
        WallClock {
            origin: Instant::now(),
            yields: true,
        }
    }
}

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, ns: u64) {
        while self.now_ns() < ns {
            if self.yields {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// What one paced segment measured, one entry per batch in offer order.
#[derive(Debug, Clone, Default)]
pub struct Paced {
    /// Due time to offer returned.
    pub latency_ns: Vec<u64>,
    /// Due time to offer started: how late the generator ran.
    pub gen_lateness_ns: Vec<u64>,
    /// Time between two due times.
    pub period_ns: u64,
}

/// What the pacer drives: `stage(b)` prepares batch `b` before its due time,
/// as a producer fills a batch while its tuples arrive; `offer(b)` hands it
/// to the program and returns when the program has taken it.
pub trait Target {
    fn stage(&mut self, batch: usize);
    fn offer(&mut self, batch: usize);
}

/// Offer `batches` batches of `batch_tuples` tuples at `rate` tuples per
/// second.
pub fn run_paced(
    clock: &mut impl Clock,
    batches: usize,
    batch_tuples: usize,
    rate: u64,
    target: &mut impl Target,
) -> Paced {
    let period_ns = (batch_tuples as u128 * 1_000_000_000 / rate.max(1) as u128) as u64;
    let mut out = Paced {
        latency_ns: Vec::with_capacity(batches),
        gen_lateness_ns: Vec::with_capacity(batches),
        period_ns,
    };
    let origin = clock.now_ns();
    for b in 0..batches {
        let due = origin + (b as u64 + 1) * period_ns;
        target.stage(b);
        clock.wait_until(due);
        let started = clock.now_ns();
        target.offer(b);
        let done = clock.now_ns();
        out.gen_lateness_ns.push(started.saturating_sub(due));
        out.latency_ns.push(done.saturating_sub(due));
    }
    out
}

impl Paced {
    /// Batches whose offer could not start within a tenth of a period of
    /// their due time: the generator was still busy with an earlier batch.
    pub fn delayed(&self) -> usize {
        let slack = self.period_ns / 10;
        self.gen_lateness_ns.iter().filter(|&&l| l > slack).count()
    }

    /// How far the generator stayed behind its schedule throughout the last
    /// tenth of the segment, beyond what it did in the first tenth: the
    /// smallest lateness of the last tenth minus that of the first, in
    /// nanoseconds. A backlog that is worked off inside the last tenth — a
    /// stall, a plan transition — leaves this at 0; one that only ever grows
    /// does not.
    pub fn backlog_growth_ns(&self) -> i64 {
        let n = self.gen_lateness_ns.len();
        if n == 0 {
            return 0;
        }
        let tenth = (n / 10).max(1);
        let least = |xs: &[u64]| xs.iter().copied().min().unwrap_or(0) as i64;
        least(&self.gen_lateness_ns[n - tenth..]) - least(&self.gen_lateness_ns[..tenth])
    }

    /// A segment that ends more than one batch period behind its schedule,
    /// without once catching up in its last tenth, was offered more than the
    /// program sustains; its latencies describe the length of the run, not
    /// the program.
    pub fn sustainable(&self) -> bool {
        self.backlog_growth_ns() <= self.period_ns as i64
    }
}

/// A sorted sample that refuses percentiles it cannot support, stating its
/// size.
#[derive(Debug, Clone)]
pub struct Sample(Vec<u64>);

impl Sample {
    pub fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        Sample(values)
    }

    /// Nearest-rank percentile `q` in (0, 1). `Err` states the sample count
    /// when fewer than ten samples lie beyond the percentile (for the median:
    /// on either side).
    pub fn percentile(&self, q: f64) -> Result<u64, String> {
        let n = self.0.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        let beyond = n
            .saturating_sub(rank)
            .min(if q <= 0.5 { rank - 1 } else { usize::MAX });
        if beyond < 10 {
            return Err(format!(
                "p{} needs ten samples beyond it; {n} samples leave {beyond}",
                q * 100.0
            ));
        }
        Ok(self.0[rank - 1])
    }
}

/// Median of unsorted floats (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A clock that only moves when told to: waiting jumps to the due time,
    /// and the fake executor advances it by its service time.
    #[derive(Clone)]
    struct FakeClock(Rc<Cell<u64>>);

    impl Clock for FakeClock {
        fn now_ns(&mut self) -> u64 {
            self.0.get()
        }
        fn wait_until(&mut self, ns: u64) {
            self.0.set(self.0.get().max(ns));
        }
    }

    /// An executor that takes `service(b)` nanoseconds of the fake clock.
    struct Stalling<F>(FakeClock, F);

    impl<F: Fn(usize) -> u64> Target for Stalling<F> {
        fn stage(&mut self, _: usize) {}
        fn offer(&mut self, b: usize) {
            let clock = &(self.0).0;
            clock.set(clock.get() + (self.1)(b));
        }
    }

    /// Run 100 batches of 10 tuples at 10k tuples/s (period 1 ms) against an
    /// executor whose service time for batch `b` is `service(b)`.
    fn run(service: impl Fn(usize) -> u64) -> Paced {
        let mut clock = FakeClock(Rc::new(Cell::new(0)));
        let mut exec = Stalling(clock.clone(), service);
        run_paced(&mut clock, 100, 10, 10_000, &mut exec)
    }

    #[test]
    fn a_fast_executor_is_never_late_and_latency_is_its_service_time() {
        let p = run(|_| 250_000);
        assert_eq!(p.period_ns, 1_000_000);
        assert!(p.latency_ns.iter().all(|&l| l == 250_000));
        assert!(p.gen_lateness_ns.iter().all(|&l| l == 0));
        assert_eq!((p.delayed(), p.backlog_growth_ns()), (0, 0));
        assert!(p.sustainable());
    }

    #[test]
    fn a_stall_charges_every_batch_due_while_it_lasted_from_its_due_time() {
        // Batch 10 stalls for 5.5 periods; service is otherwise 0.5 periods.
        let p = run(|b| if b == 10 { 5_500_000 } else { 500_000 });
        assert_eq!(p.latency_ns[9], 500_000);
        assert_eq!(p.latency_ns[10], 5_500_000);
        // Batch 11 was due 1 ms after batch 10 but could start only when the
        // stall ended, 4.5 ms late; its latency counts that wait.
        assert_eq!(p.gen_lateness_ns[11], 4_500_000);
        assert_eq!(p.latency_ns[11], 5_000_000);
        // The backlog drains at half a period per batch: nine batches start
        // late (4.5, 4.0, ... 0.5 ms), the tenth is on time again.
        assert_eq!(p.delayed(), 9);
        assert_eq!(p.gen_lateness_ns[19], 500_000);
        assert_eq!(p.gen_lateness_ns[20], 0);
        assert_eq!(p.latency_ns[20], 500_000);
        assert!(p.sustainable(), "a drained stall is not a growing backlog");
        // Nor is a stall so late that the segment ends before it has drained:
        // the generator was on schedule earlier in the last tenth.
        let late = run(|b| if b == 95 { 5_500_000 } else { 500_000 });
        assert_eq!(late.gen_lateness_ns[99], 3_000_000);
        assert_eq!(late.backlog_growth_ns(), 0);
        assert!(late.sustainable());
    }

    #[test]
    fn an_executor_slower_than_the_schedule_is_marked_unsustainable() {
        let p = run(|_| 1_200_000);
        // Each batch adds 0.2 periods of backlog.
        assert_eq!(p.gen_lateness_ns[50], 50 * 200_000);
        assert_eq!(p.delayed(), 99);
        // Lateness only grows: the least of the last tenth is batch 90's.
        assert_eq!(p.backlog_growth_ns(), 90 * 200_000);
        assert!(!p.sustainable());
    }

    #[test]
    fn percentiles_state_their_sample_count_and_refuse_thin_tails() {
        let s = Sample::new((1..=1000).rev().collect());
        assert_eq!(s.percentile(0.5), Ok(500));
        assert_eq!(s.percentile(0.99), Ok(990));
        let err = s.percentile(0.999).unwrap_err();
        assert!(err.contains("1000 samples leave 1"), "{err}");
        let thin = Sample::new((1..=15).collect());
        assert!(thin.percentile(0.5).is_err(), "7 samples on one side");
        assert!(Sample::new(vec![]).percentile(0.5).is_err());
        assert_eq!(Sample::new((1..=21).collect()).percentile(0.5), Ok(11));
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
