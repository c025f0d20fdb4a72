//! MJoin (Viglas et al.): a single n-ary symmetric hash join.
//!
//! The paper's §2.1 sets MJoins aside ("addressed in a similar manner,
//! \[but\] not discussed in this paper"); this implementation completes the
//! related-work set. Like CACQ, an MJoin keeps one hash index per stream
//! and no intermediate state, so plan transitions are trivial (only the
//! probe order changes). Unlike CACQ there is no eddy: each arrival probes
//! the other streams' indexes directly in the current probe order, with
//! no per-hop scheduler — the cheapest possible stateless baseline, at the
//! cost of re-deriving every intermediate result on every arrival.

use std::sync::Arc;

use jisc_common::{BaseTuple, JiscError, Key, Metrics, Result, SeqNo, StreamId, Tuple};
use jisc_engine::{Catalog, OutputSink};

use crate::stem::Stem;

/// An n-ary symmetric hash join over all catalog streams.
#[derive(Debug)]
pub struct MJoinExec {
    catalog: Catalog,
    stems: Vec<Stem>,
    /// Probe order (stream ids); a plan transition is just reordering it.
    order: Vec<StreamId>,
    next_seq: SeqNo,
    /// Query output.
    pub output: OutputSink,
    /// Execution counters.
    pub metrics: Metrics,
}

impl MJoinExec {
    /// Build over a catalog (count-based windows only, like SteMs).
    pub fn new(catalog: Catalog) -> Result<Self> {
        if catalog.len() < 2 {
            return Err(JiscError::InvalidPlan(
                "MJoin needs at least two streams".into(),
            ));
        }
        if !catalog.all_count_windows() {
            return Err(JiscError::InvalidConfig(
                "MJoin indexes support count-based windows only".into(),
            ));
        }
        let stems = catalog
            .ids()
            .map(|s| Stem::new(s, catalog.window(s)))
            .collect();
        let order = catalog.ids().collect();
        Ok(MJoinExec {
            catalog,
            stems,
            order,
            next_seq: 0,
            output: OutputSink::new(),
            metrics: Metrics::new(),
        })
    }

    /// The stream catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Install a new probe order — the entire "plan transition".
    pub fn set_probe_order_named(&mut self, names: &[&str]) -> Result<()> {
        if names.len() != self.catalog.len() {
            return Err(JiscError::NotEquivalent(
                "probe order must cover every stream exactly once".into(),
            ));
        }
        let order = names
            .iter()
            .map(|n| self.catalog.id(n))
            .collect::<Result<Vec<_>>>()?;
        let mut dedup = order.clone();
        dedup.sort();
        dedup.dedup();
        if dedup.len() != order.len() {
            return Err(JiscError::NotEquivalent(
                "probe order repeats a stream".into(),
            ));
        }
        self.order = order;
        self.metrics.transitions += 1;
        Ok(())
    }

    /// Process one arrival: insert, then cascade probes through the other
    /// streams' indexes in probe order.
    pub fn push(&mut self, stream: StreamId, key: Key, payload: u64) -> Result<()> {
        if stream.0 as usize >= self.stems.len() {
            return Err(JiscError::UnknownStream(format!("{stream}")));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.metrics.tuples_in += 1;
        let base = Arc::new(BaseTuple::new(stream, seq, key, payload));
        self.stems[stream.0 as usize].insert(Arc::clone(&base), &mut self.metrics);

        // Direct cascade (no eddy): partials extend through each other
        // stream in order, dying on the first empty probe.
        let mut partials = vec![Tuple::Base(base)];
        for idx in 0..self.order.len() {
            let next = self.order[idx];
            if next == stream {
                continue;
            }
            if partials.is_empty() {
                return Ok(());
            }
            let matches = self.stems[next.0 as usize].probe(key, &mut self.metrics);
            if matches.is_empty() {
                return Ok(());
            }
            let mut grown = Vec::with_capacity(partials.len() * matches.len());
            for p in &partials {
                for m in &matches {
                    grown.push(Tuple::joined(key, p.clone(), m.clone()));
                }
            }
            partials = grown;
        }
        for t in partials {
            self.metrics.tuples_out += 1;
            let work = self.metrics.total_work();
            self.output.emit(t, work);
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

    fn mjoin(streams: &[&str], window: usize) -> MJoinExec {
        MJoinExec::new(Catalog::uniform(streams, window).unwrap()).unwrap()
    }

    #[test]
    fn three_way_join_produces_full_combinations() {
        let mut e = mjoin(&["R", "S", "T"], 100);
        e.push(StreamId(0), 1, 0).unwrap();
        e.push(StreamId(1), 1, 0).unwrap();
        e.push(StreamId(1), 1, 1).unwrap();
        assert_eq!(e.output.count(), 0);
        e.push(StreamId(2), 1, 0).unwrap(); // joins r x {s1, s2}
        assert_eq!(e.output.count(), 2);
        assert!(e.output.is_duplicate_free());
    }

    #[test]
    fn probe_order_change_is_free_and_output_invariant() {
        let mut e = mjoin(&["R", "S", "T"], 100);
        e.push(StreamId(0), 3, 0).unwrap();
        e.push(StreamId(1), 3, 0).unwrap();
        let work = e.metrics.total_work();
        e.set_probe_order_named(&["T", "R", "S"]).unwrap();
        assert_eq!(e.metrics.total_work(), work);
        e.push(StreamId(2), 3, 0).unwrap();
        assert_eq!(e.output.count(), 1);
    }

    #[test]
    fn invalid_probe_orders_rejected() {
        let mut e = mjoin(&["R", "S"], 10);
        assert!(e.set_probe_order_named(&["R"]).is_err());
        assert!(e.set_probe_order_named(&["R", "R"]).is_err());
        assert!(e.set_probe_order_named(&["R", "X"]).is_err());
    }

    #[test]
    fn windows_slide() {
        let mut e = mjoin(&["R", "S"], 1);
        e.push(StreamId(0), 1, 0).unwrap();
        e.push(StreamId(0), 2, 0).unwrap();
        e.push(StreamId(1), 1, 0).unwrap();
        assert_eq!(e.output.count(), 0);
        e.push(StreamId(1), 2, 0).unwrap();
        assert_eq!(e.output.count(), 1);
    }

    #[test]
    fn rejects_time_windows() {
        use jisc_engine::StreamDef;
        let c = Catalog::new(vec![StreamDef::timed("R", 5), StreamDef::timed("S", 5)]).unwrap();
        assert!(MJoinExec::new(c).is_err());
    }
}
