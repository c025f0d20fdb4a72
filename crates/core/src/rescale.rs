//! Elastic repartitioning as state completion.
//!
//! Moving a key range between shards is, structurally, the same situation
//! JISC handles at a plan transition and the recovery layer handles after a
//! crash: the target shard has the moved keys' *base* (scan) state — shipped
//! from the source — while its derived operator entries for those keys do
//! not exist yet. The handover therefore reuses the paper's machinery:
//!
//! * [`extract_range`] (source side) pulls the moved keys' window-ring,
//!   freshness, scan-state, and derived-state entries out of a live
//!   pipeline, and erases their completion debt — a key that left the shard
//!   will never be probed here again, so its pending mark is moot (the same
//!   argument as window-expiry pruning, §4.3).
//! * [`install_range`] (target side) absorbs the base slice and then either
//!   marks the moved keys *pending* on every binary state
//!   ([`RecoveryMode::JustInTime`]) so the JISC completion procedures
//!   materialize their join entries on first probe while ingest continues,
//!   or materializes them bottom-up right now ([`RecoveryMode::Eager`]) for
//!   engines running plain semantics with no completion machinery.
//!
//! Only the base slice crosses the wire: derived entries are a function of
//! the windows (they are recomputed, never shipped), which keeps a handover
//! `O(window share)` instead of `O(window share ^ height)` — the same
//! asymmetry that makes the checkpoints in [`crate::recovery`] cheap.

use jisc_common::{hash_key, Key, KeyRange, Result};
use jisc_engine::{BaseRangeExport, Pipeline};

use crate::jisc::materialize_key;
use crate::migrate::is_binary;
use crate::recovery::RecoveryMode;

/// Extract everything this pipeline holds for keys hashing into `ranges`:
/// base state (window rings, freshness, scan entries) plus derived join
/// entries, which are dropped on the floor — the target recomputes them.
/// Completion debt for the moved keys is pruned; a state whose pending set
/// drains to empty becomes complete and may cascade (§4.3).
///
/// The pipeline must be quiescent (between events); the export is
/// deterministic for a given pipeline history, so a crash-replayed source
/// re-extracting at the same stream position produces the same export.
pub fn extract_range(p: &mut Pipeline, ranges: &[KeyRange]) -> Result<BaseRangeExport> {
    let mut export = p.extract_base_range(ranges)?;
    let order: Vec<_> = p.plan().topo().to_vec();
    for n in order {
        if !is_binary(p.plan(), n) {
            continue;
        }
        for k in p.state_extract_key_range(n, ranges) {
            export.keys.insert(k);
        }
        // The moved keys owe no further completion on this shard.
        if p.plan_mut()
            .node_mut(n)
            .state
            .prune_pending_in_ranges(ranges)
        {
            p.on_state_completed(n);
        }
    }
    Ok(export)
}

/// Install an extracted range into this (live, quiescent) pipeline: absorb
/// the base slice, then bring the moved keys' derived entries back per
/// `mode` — as just-in-time completion debt (requires `JiscSemantics` at
/// runtime) or by eager bottom-up materialization (works under any
/// semantics). Installation produces no output.
pub fn install_range(p: &mut Pipeline, export: &BaseRangeExport, mode: RecoveryMode) -> Result<()> {
    p.absorb_base_range(export)?;
    if export.keys.is_empty() {
        return Ok(());
    }
    let order: Vec<_> = p.plan().topo().to_vec();
    match mode {
        RecoveryMode::JustInTime => {
            for n in order {
                if !is_binary(p.plan(), n) {
                    continue;
                }
                let became_incomplete = p
                    .plan_mut()
                    .node_mut(n)
                    .state
                    .add_pending_keys(export.keys.iter().copied());
                if became_incomplete {
                    p.metrics.states_incomplete += 1;
                }
            }
        }
        RecoveryMode::Eager => {
            // Bottom-up, so children are key-complete before a parent
            // materializes from them. Sorted for a deterministic insert
            // order into the slab states.
            let mut keys: Vec<Key> = export.keys.iter().copied().collect();
            keys.sort_unstable();
            let mut scratch = Default::default();
            for n in order {
                if !is_binary(p.plan(), n) {
                    continue;
                }
                for &k in &keys {
                    materialize_key(p, n, hash_key(k), k, &mut scratch);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_common::{hash_key, PartitionMap, SplitMix64, StreamId};
    use jisc_engine::{Catalog, JoinStyle, PlanSpec};

    const STREAMS: [&str; 3] = ["R", "S", "T"];

    fn pipeline(window: usize) -> Pipeline {
        let catalog = Catalog::uniform(&STREAMS, window).unwrap();
        let spec = PlanSpec::left_deep(&STREAMS, JoinStyle::Hash);
        Pipeline::new(catalog, &spec).unwrap()
    }

    fn feed(p: &mut Pipeline, n: usize, keys: u64, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..n {
            p.push(StreamId(rng.next_below(3) as u16), rng.next_below(keys), 0)
                .unwrap();
        }
    }

    /// Split one shard's key space in half, hand the moved slice to a fresh
    /// pipeline, and check that source + target together hold exactly the
    /// keys the single shard held — with derived entries rebuilt eagerly on
    /// the target matching a from-scratch reference.
    #[test]
    fn extract_install_partitions_state_exactly() {
        let mut source = pipeline(64);
        feed(&mut source, 600, 16, 11);
        let before: Vec<usize> = source
            .plan()
            .ids()
            .map(|i| source.plan().node(i).state.len())
            .collect();

        let map = PartitionMap::uniform(2);
        let moved_ranges = map.ranges_of(1);
        let export = extract_range(&mut source, &moved_ranges).unwrap();
        assert!(export.window_tuples() > 0, "some keys must move");
        assert!(!export.keys.is_empty());

        // Source keeps only range-0 keys, everywhere.
        for i in source.plan().ids().collect::<Vec<_>>() {
            for t in source.plan().node(i).state.iter() {
                assert_eq!(map.shard_for_hash(hash_key(t.key())), 0);
            }
        }

        let mut target = pipeline(64);
        install_range(&mut target, &export, RecoveryMode::Eager).unwrap();
        assert_eq!(target.output.count(), 0, "installation emits nothing");
        for i in target.plan().ids().collect::<Vec<_>>() {
            assert!(target.plan().node(i).state.is_complete());
            for t in target.plan().node(i).state.iter() {
                assert_eq!(map.shard_for_hash(hash_key(t.key())), 1);
            }
        }

        // Conservation: per node, source + target entries == pre-split.
        let after: Vec<usize> = source
            .plan()
            .ids()
            .zip(target.plan().ids())
            .map(|(a, b)| source.plan().node(a).state.len() + target.plan().node(b).state.len())
            .collect();
        assert_eq!(before, after, "entries lost or duplicated by the handover");
    }

    /// Just-in-time install: derived entries appear only when probed, and
    /// post-handover output across both shards matches a run that never
    /// rescaled.
    #[test]
    fn jit_install_completes_on_demand_and_preserves_output() {
        let keys = 12u64;
        let mut rng = SplitMix64::new(7);
        let arrivals: Vec<(u16, u64)> = (0..800)
            .map(|_| (rng.next_below(3) as u16, rng.next_below(keys)))
            .collect();

        // Reference: one shard sees everything. Windows are sized so no
        // tuple expires — per-shard count windows are not exact under
        // partitioning (each shard would keep its own quota); the sharded
        // runtime gates rescaling on time windows for exactly this reason,
        // and its tests cover the expiring case.
        let mut reference = pipeline(400);
        for &(s, k) in &arrivals {
            reference.push(StreamId(s), k, 0).unwrap();
        }

        let map = PartitionMap::uniform(2);
        let mut source = pipeline(400);
        for &(s, k) in &arrivals[..400] {
            source.push(StreamId(s), k, 0).unwrap();
        }
        let export = extract_range(&mut source, &map.ranges_of(1)).unwrap();
        let mut target = pipeline(400);
        install_range(&mut target, &export, RecoveryMode::JustInTime).unwrap();
        let marked: usize = target
            .plan()
            .ids()
            .filter(|&i| !target.plan().node(i).state.is_complete())
            .count();
        assert!(marked > 0, "moved keys must become completion debt");

        // Route the remaining arrivals by the map, assigning global
        // sequence numbers the way the sharded router does so lineages are
        // comparable with the single-shard reference; JISC semantics
        // complete moved keys at the target on first probe.
        let mut sem = crate::jisc::JiscSemantics::default();
        for (i, &(s, k)) in arrivals[400..].iter().enumerate() {
            let shard = map.shard_for_key(k);
            let p = if shard == 0 { &mut source } else { &mut target };
            p.set_next_seq(400 + i as u64);
            p.push_with(&mut sem, StreamId(s), k, 0).unwrap();
        }
        assert!(target.metrics.completions > 0, "JIT completion ran");

        let mut combined = source.output.lineage_multiset();
        for (lin, n) in target.output.lineage_multiset() {
            *combined.entry(lin).or_insert(0) += n;
        }
        // Only compare results emitted after the split point: the reference
        // saw all 800 arrivals on one shard, the split pair saw the first
        // 400 there too (identical prefix output) and the rest partitioned.
        assert_eq!(
            combined,
            reference.output.lineage_multiset(),
            "rescaled pair diverged from the never-rescaled reference"
        );
    }

    /// The source's pending debt for moved keys is erased; states whose
    /// counters drain become complete.
    #[test]
    fn extraction_prunes_pending_debt() {
        let mut source = pipeline(64);
        feed(&mut source, 300, 8, 3);
        // Manufacture debt: mark every binary state incomplete as a crash
        // restore would.
        crate::jisc::init_incomplete_states(&mut source, &Default::default());
        let map = PartitionMap::uniform(1);
        // Move the whole key space away: every pending set drains.
        let export = extract_range(&mut source, &map.ranges_of(0)).unwrap();
        assert!(!export.keys.is_empty());
        for i in source.plan().ids().collect::<Vec<_>>() {
            assert!(
                source.plan().node(i).state.is_complete(),
                "draining all pending keys must complete the state"
            );
            assert!(source.plan().node(i).state.is_empty());
        }
    }
}
