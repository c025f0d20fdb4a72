//! CACQ (Madden et al.): continuously-adaptive continuous queries (§3.1).
//!
//! One SteM per stream, no intermediate state. Every arrival is inserted
//! into its own SteM and then routed by the eddy across the SteMs of all
//! other streams in the current routing order; each partial result returns
//! to the eddy (counted in `eddy_hops`) until it either completes across
//! every stream — becoming output — or disqualifies. Plan "transitions" are
//! free: the eddy just changes its routing order. The price is paid during
//! normal operation: intermediate results are recomputed for every arrival
//! (the §3.1/§5.2 critique, measured in Figures 7–9).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use jisc_common::{BaseTuple, JiscError, Key, Metrics, Result, SeqNo, StreamId, Tuple};
use jisc_engine::{Catalog, OutputSink, StreamSet};

use crate::stem::Stem;

/// Lottery-scheduling state for one SteM (Avnur & Hellerstein's eddies, as
/// used by CACQ): an operator gains a ticket when it consumes a tuple and
/// loses one per tuple it produces, so low-selectivity operators accumulate
/// tickets and are favored by the router.
#[derive(Debug, Clone)]
struct OperatorStats {
    tickets: u64,
    /// Routing-order rank (lower = preferred); the tiebreak, and the reset
    /// value source when the optimizer installs a new routing order.
    rank: usize,
}

/// The CACQ executor: an eddy over per-stream SteMs.
#[derive(Debug)]
pub struct CacqExec {
    catalog: Catalog,
    stems: Vec<Stem>,
    /// Routing priority: the order in which the eddy prefers SteMs. This is
    /// the per-tuple "plan"; changing it is a zero-cost plan transition.
    order: Vec<StreamId>,
    /// Per-SteM lottery state, updated on every hop.
    stats: Vec<OperatorStats>,
    all: StreamSet,
    next_seq: SeqNo,
    /// Query output.
    pub output: OutputSink,
    /// Execution counters (eddy hops included).
    pub metrics: Metrics,
}

impl CacqExec {
    /// Build over a catalog with the default routing order (stream id order).
    pub fn new(catalog: Catalog) -> Result<Self> {
        if catalog.len() < 2 {
            return Err(JiscError::InvalidPlan(
                "CACQ needs at least two streams".into(),
            ));
        }
        if !catalog.all_count_windows() {
            return Err(JiscError::InvalidConfig(
                "CACQ SteMs support count-based windows only".into(),
            ));
        }
        let stems = catalog
            .ids()
            .map(|s| Stem::new(s, catalog.window(s)))
            .collect();
        let order: Vec<StreamId> = catalog.ids().collect();
        let stats = order
            .iter()
            .enumerate()
            .map(|(rank, _)| OperatorStats { tickets: 0, rank })
            .collect();
        let all = order
            .iter()
            .fold(StreamSet::EMPTY, |a, &s| a.union(StreamSet::singleton(s)));
        Ok(CacqExec {
            catalog,
            stems,
            order,
            stats,
            all,
            next_seq: 0,
            output: OutputSink::new(),
            metrics: Metrics::new(),
        })
    }

    /// The stream catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Current routing order.
    pub fn routing_order(&self) -> &[StreamId] {
        &self.order
    }

    /// Change the routing order — CACQ's entire plan transition (§3.1):
    /// no state moves, no halt, nothing to complete.
    pub fn set_routing_order(&mut self, order: Vec<StreamId>) -> Result<()> {
        let set = order
            .iter()
            .fold(StreamSet::EMPTY, |a, &s| a.union(StreamSet::singleton(s)));
        if set != self.all || order.len() != self.catalog.len() {
            return Err(JiscError::NotEquivalent(
                "routing order must be a permutation of all streams".into(),
            ));
        }
        for (rank, s) in order.iter().enumerate() {
            self.stats[s.0 as usize].rank = rank;
            self.stats[s.0 as usize].tickets = 0;
        }
        self.order = order;
        self.metrics.transitions += 1;
        let work = self.metrics.total_work();
        self.output.arm_latency(work);
        Ok(())
    }

    /// Change the routing order by stream names.
    pub fn set_routing_order_named(&mut self, names: &[&str]) -> Result<()> {
        let order = names
            .iter()
            .map(|n| self.catalog.id(n))
            .collect::<Result<Vec<_>>>()?;
        self.set_routing_order(order)
    }

    /// Process one arrival: insert into its SteM, then rejoin across every
    /// other stream's SteM via the eddy.
    pub fn push(&mut self, stream: StreamId, key: Key, payload: u64) -> Result<()> {
        if stream.0 as usize >= self.stems.len() {
            return Err(JiscError::UnknownStream(format!("{stream}")));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.metrics.tuples_in += 1;
        let base = Arc::new(BaseTuple::new(stream, seq, key, payload));
        self.stems[stream.0 as usize].insert(Arc::clone(&base), &mut self.metrics);

        // Eddy routing loop: every partial result returns to the eddy's
        // central scheduler carrying its own bit-vector; the eddy is a
        // priority router (Avnur & Hellerstein), draining older in-flight
        // work first, and each hop examines the lottery standing of every
        // eligible SteM before dispatching. This per-hop pass through the
        // central scheduler — one queue transfer, one routing decision, one
        // bit-vector update per hop — is the structural overhead §3.1
        // blames for CACQ's halved throughput.
        struct Partial {
            tuple: Tuple,
            done: Box<StreamSet>,
        }
        let mut ticket_no = 0u64;
        let mut queue: BinaryHeap<(Reverse<u64>, u64)> = BinaryHeap::new();
        let mut pool: Vec<Option<Partial>> = Vec::new();
        let enqueue = |queue: &mut BinaryHeap<(Reverse<u64>, u64)>,
                       pool: &mut Vec<Option<Partial>>,
                       ticket_no: &mut u64,
                       partial: Partial| {
            let idx = pool.len() as u64;
            pool.push(Some(partial));
            queue.push((Reverse(*ticket_no), idx));
            *ticket_no += 1;
        };
        enqueue(
            &mut queue,
            &mut pool,
            &mut ticket_no,
            Partial {
                tuple: Tuple::Base(base),
                done: Box::new(StreamSet::singleton(stream)),
            },
        );
        while let Some((_, idx)) = queue.pop() {
            let Partial {
                tuple: partial,
                done,
            } = pool[idx as usize].take().expect("live partial");
            let done = *done;
            self.metrics.eddy_hops += 1;
            // Routing decision: scan every operator's eligibility (done
            // bit-vector) and lottery standing; most tickets wins, with
            // the installed routing order as the tiebreak. Deterministic
            // lottery keeps runs reproducible.
            let mut winner: Option<StreamId> = None;
            let mut best = (0u64, usize::MAX);
            for s in self.catalog.ids() {
                if done.contains(s) {
                    continue;
                }
                let st = &self.stats[s.0 as usize];
                // Higher tickets preferred; lower rank breaks ties.
                let cand = (st.tickets, st.rank);
                let better = match winner {
                    None => true,
                    Some(_) => cand.0 > best.0 || (cand.0 == best.0 && cand.1 < best.1),
                };
                if better {
                    winner = Some(s);
                    best = cand;
                }
            }
            let Some(next) = winner else {
                // All streams joined: emerge as output.
                self.metrics.tuples_out += 1;
                let work = self.metrics.total_work();
                self.output.emit(partial, work);
                continue;
            };
            let matches = self.stems[next.0 as usize].probe(partial.key(), &mut self.metrics);
            // Lottery bookkeeping: consume earns a ticket, each produced
            // tuple spends one.
            let st = &mut self.stats[next.0 as usize];
            st.tickets = (st.tickets + 1)
                .saturating_sub(matches.len() as u64)
                .min(1 << 20);
            let done = done.union(StreamSet::singleton(next));
            for m in matches {
                enqueue(
                    &mut queue,
                    &mut pool,
                    &mut ticket_no,
                    Partial {
                        tuple: Tuple::joined(partial.key(), partial.clone(), m),
                        done: Box::new(done),
                    },
                );
            }
            // No matches: the partial result disqualifies and is dropped.
        }
        Ok(())
    }

    /// Process one arrival by stream name.
    pub fn push_named(&mut self, stream: &str, key: Key, payload: u64) -> Result<()> {
        let id = self.catalog.id(stream)?;
        self.push(id, key, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cacq(streams: &[&str], window: usize) -> CacqExec {
        CacqExec::new(Catalog::uniform(streams, window).unwrap()).unwrap()
    }

    #[test]
    fn two_way_join_matches() {
        let mut e = cacq(&["R", "S"], 100);
        e.push(StreamId(0), 1, 0).unwrap();
        e.push(StreamId(1), 1, 0).unwrap();
        e.push(StreamId(1), 2, 0).unwrap();
        assert_eq!(e.output.count(), 1);
        assert!(e.metrics.eddy_hops >= 3);
    }

    #[test]
    fn three_way_needs_all_streams() {
        let mut e = cacq(&["R", "S", "T"], 100);
        e.push(StreamId(0), 7, 0).unwrap();
        e.push(StreamId(1), 7, 0).unwrap();
        assert_eq!(e.output.count(), 0);
        e.push(StreamId(2), 7, 0).unwrap();
        assert_eq!(e.output.count(), 1);
        assert_eq!(e.output.log[0].arity(), 3);
    }

    #[test]
    fn routing_order_change_is_free_and_correct() {
        let mut e = cacq(&["R", "S", "T"], 100);
        e.push(StreamId(0), 3, 0).unwrap();
        e.push(StreamId(1), 3, 0).unwrap();
        let work_before = e.metrics.total_work();
        e.set_routing_order_named(&["T", "R", "S"]).unwrap();
        assert_eq!(
            e.metrics.total_work(),
            work_before,
            "transition must cost nothing"
        );
        e.push(StreamId(2), 3, 0).unwrap();
        assert_eq!(e.output.count(), 1);
    }

    #[test]
    fn invalid_routing_orders_rejected() {
        let mut e = cacq(&["R", "S"], 10);
        assert!(e.set_routing_order(vec![StreamId(0)]).is_err());
        assert!(e.set_routing_order(vec![StreamId(0), StreamId(0)]).is_err());
        assert!(e.set_routing_order(vec![StreamId(0), StreamId(5)]).is_err());
    }

    #[test]
    fn lottery_routes_to_the_selective_stem_first() {
        // Stream T never matches: its SteM accumulates tickets (consumes
        // without producing) and the eddy learns to probe it first, killing
        // doomed partials early — CACQ's continuous adaptivity.
        let mut e = cacq(&["R", "S", "T"], 1_000);
        for i in 0..3_000u64 {
            e.push(StreamId(0), i % 50, 0).unwrap();
            e.push(StreamId(1), i % 50, 0).unwrap();
            e.push(StreamId(2), 1_000_000 + i, 0).unwrap(); // disjoint keys
        }
        let probes_before = e.metrics.probes;
        let hops_before = e.metrics.eddy_hops;
        // New R arrivals should die at the T SteM on their first probe.
        for i in 0..100u64 {
            e.push(StreamId(0), i % 50, 0).unwrap();
        }
        let probes = e.metrics.probes - probes_before;
        let hops = e.metrics.eddy_hops - hops_before;
        assert!(
            probes <= 150,
            "selective SteM should be probed first, killing partials: {probes} probes"
        );
        assert!(hops <= 250, "few hops expected, got {hops}");
    }

    #[test]
    fn window_expiry_drops_matches() {
        let mut e = cacq(&["R", "S"], 1);
        e.push(StreamId(0), 1, 0).unwrap();
        e.push(StreamId(0), 2, 0).unwrap(); // evicts key 1
        e.push(StreamId(1), 1, 0).unwrap();
        assert_eq!(e.output.count(), 0);
        e.push(StreamId(1), 2, 0).unwrap();
        assert_eq!(e.output.count(), 1);
    }
}
