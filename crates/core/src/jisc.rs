//! Just-In-Time State Completion (§4): the paper's contribution.
//!
//! On a plan transition JISC copies every state whose signature survives
//! into the new plan (keeping its completeness per the overlapped-transition
//! rule of §4.5), marks the remaining states *incomplete* (Definition 1),
//! and seeds each with the completion-detection bookkeeping of §4.3. The
//! query keeps running immediately: whenever a tuple would probe entries
//! that an incomplete state is still missing, exactly those entries — the
//! ones matching the tuple's join-attribute value — are computed on demand
//! from the children's states (Procedures 1–3) and merged in.
//!
//! ### Divergence from the paper's pseudo-code (documented)
//!
//! Procedure 1 as printed triggers completion only when the probe *misses*
//! and gates it on the per-stream `isFresh` flag. Both are unsound in
//! corner cases the paper's own Theorem 1 proof glosses over: an incomplete
//! state can hold *partial* entries for a key (accumulated from normal
//! post-transition processing), so a probe can hit yet still miss old
//! combinations; and in bushy plans an *attempted* tuple can reach an
//! operator its fresh predecessor never reached. We therefore track
//! completion **per key per state** (the pending sets behind the §4.3
//! counter) and let `needs_completion(key)` be authoritative: completion
//! runs iff the key is still pending, entries are merged with
//! lineage-deduplication, and the counter semantics of §4.3 are preserved
//! exactly. The `isFresh` classification is kept for §4.2's window-clearing
//! optimization and for metrics.
//!
//! ### Granularity: completion by column
//!
//! Procedures 2 and 3 are stated per key. The columnar flush probes a state
//! with a whole *column* of keys at once, so completion runs column-shaped
//! too ([`Semantics::complete_keys`]): the still-pending keys of the column
//! are completed **level-major** — every key at the lowest plan level
//! first, then the next level up — instead of one key's whole spine at a
//! time. The procedures themselves are unchanged (a key's entries at a node
//! depend only on that key's entries at the children, which the level
//! below has finished), but each level becomes a short loop over a few
//! states that can be group-prefetched, with its scratch reused. The
//! per-tuple path completes a column of one through the same code.
//!
//! ### Mid-migration execution is per key
//!
//! Everything this module keeps is keyed by *(state, key)*: the pending
//! sets, the completed sets of Case 3, the entries a completion
//! materializes. Events on different keys therefore commute while states
//! are incomplete exactly as they do on complete ones, and the columnar
//! flush runs its usual pops-then-inserts plan through a migration (DESIGN
//! §9).
//! Two things make a reordering safe rather than merely plausible:
//! `needs_completion` may be spuriously *true* — the price is a
//! deduplicated no-op completion, or a `Remove` forwarded to find nothing —
//! but never spuriously false; and the one cross-key read, the Case-3
//! residual taken when both children become complete
//! ([`Pipeline::on_state_completed`]), can only lose keys whose children
//! hold nothing. Expiry bookkeeping (`Pipeline::note_removal`) obeys one
//! ordering rule on every path: a pending key is dropped only after every
//! removal for it in the current expiry run has been forwarded.

use jisc_common::{hash_key, ColumnarBatch, Event, FxHashSet, Key, Lineage, Result, Tuple};
use jisc_engine::ops;
use jisc_engine::{
    NodeId, OpKind, Payload, Pipeline, PlanSpec, QueueItem, Semantics, Signature, WarmDepth,
};

use crate::migrate::{verify_reorderable, verify_same_query};

/// Which completion procedure [`JiscSemantics`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompletionMode {
    /// Procedure 3 (iterative) on left-deep plans, Procedure 2 (recursive)
    /// otherwise — the paper's choice.
    #[default]
    Auto,
    /// Always Procedure 2, even on left-deep plans (ablation baseline).
    ForceRecursive,
}

/// Operator semantics with on-demand state completion (Procedures 1–3).
#[derive(Debug, Default)]
pub struct JiscSemantics {
    /// Completion-procedure selection (ablations override the default).
    pub mode: CompletionMode,
    /// Buffers reused across completions.
    scratch: CompletionScratch,
}

/// Reusable buffers of column completion, so the steady state allocates
/// nothing per completed key.
#[derive(Debug, Default)]
pub(crate) struct CompletionScratch {
    /// Free list of `(hash, key)` columns: the pending keys selected at the
    /// probed state, and one narrowed column per recursion level of
    /// Procedure 2.
    columns: Vec<Vec<(u64, Key)>>,
    /// Left spine below the probed state (Procedure 3).
    spine: Vec<NodeId>,
    /// The children's entries for the key being materialized.
    ls: Vec<Tuple>,
    rs: Vec<Tuple>,
    /// Lineages the materialized state already holds for that key.
    existing: FxHashSet<Lineage>,
    /// Cursors of the warm-up stages ([`jisc_engine::State::warm`]).
    warm: Vec<u32>,
}

impl JiscSemantics {
    /// Per-tuple form of [`Semantics::complete_keys`]: a column of one.
    fn complete_key(&mut self, p: &mut Pipeline, n: NodeId, key: Key) {
        if !p.plan().node(n).state.is_complete() {
            complete_column(p, n, &[key], &[hash_key(key)], self.mode, &mut self.scratch);
        }
    }
}

impl Semantics for JiscSemantics {
    fn process(&mut self, p: &mut Pipeline, node: NodeId, item: QueueItem) {
        match p.plan().node(node).op {
            OpKind::HashJoin | OpKind::NljJoin(_) => jisc_join(self, p, node, item),
            OpKind::SetDiff => jisc_set_diff(self, p, node, item),
            OpKind::Scan(_) | OpKind::Aggregate(_) => ops::default_process(p, node, item),
        }
    }

    /// Batched-path counterpart of the `complete_key` call in `jisc_join`:
    /// complete the probed state's entries for every key of the column
    /// before any batch tuple reads them.
    fn complete_keys(
        &mut self,
        p: &mut Pipeline,
        state_node: NodeId,
        keys: &[Key],
        hashes: &[u64],
    ) {
        complete_column(p, state_node, keys, hashes, self.mode, &mut self.scratch);
    }
}

/// Procedure 1: JISC join. Complete the opposite state's entries for the
/// tuple's key on demand, then join as usual.
fn jisc_join(sem: &mut JiscSemantics, p: &mut Pipeline, node: NodeId, item: QueueItem) {
    match item.payload {
        Payload::Insert { tuple, fresh } => {
            let from = item.from.expect("join items come from a child");
            let opp = p
                .plan()
                .sibling(node, from)
                .expect("binary node has sibling");
            sem.complete_key(p, opp, tuple.key());
            ops::probe_and_emit_joins(p, node, item.from, tuple, fresh);
        }
        removal => ops::process_removal(p, node, removal),
    }
}

/// §4.7: JISC set-difference. Inner arrivals probing an incomplete state
/// forward a key-suppression up the pipeline (they cannot prove local
/// absence); inner expiries complete the outer child before re-adding.
fn jisc_set_diff(sem: &mut JiscSemantics, p: &mut Pipeline, node: NodeId, item: QueueItem) {
    let from = item.from.expect("set-difference items come from a child");
    let from_left = p.plan().is_left_child(node, from);
    let inner = p.plan().node(node).right.expect("set-diff has right child");
    let outer = p.plan().node(node).left.expect("set-diff has left child");
    match item.payload {
        Payload::Insert { tuple, fresh } if !from_left => {
            let key = tuple.key();
            if !p.plan().node(node).state.is_complete() {
                // Visible entries for this key may be missing locally but
                // present in (complete) states above: clear by key upward.
                p.state_remove_key(node, key);
                p.forward_or_emit(node, Payload::SuppressKey { key, fresh });
                // With the inner tuple in its window the visible set for
                // this key is now empty — nothing left to complete.
                if p.plan_mut().node_mut(node).state.note_key_completed(key) {
                    p.on_state_completed(node);
                }
            } else {
                ops::process_set_diff(
                    p,
                    node,
                    QueueItem {
                        from: Some(from),
                        payload: Payload::Insert { tuple, fresh },
                    },
                );
            }
        }
        Payload::Insert { tuple, fresh } => {
            // Outer arrival: the inner child may itself be incomplete.
            sem.complete_key(p, inner, tuple.key());
            ops::process_set_diff(
                p,
                node,
                QueueItem {
                    from: Some(from),
                    payload: Payload::Insert { tuple, fresh },
                },
            );
        }
        Payload::Remove { key, fresh, .. } if !from_left => {
            // Inner expiry: formerly suppressed outers may become visible.
            if !p.state_contains_key(inner, key) {
                sem.complete_key(p, outer, key);
                let mut candidates = p.take_probe_scratch();
                p.lookup_state_into(outer, key, &mut candidates);
                for c in candidates.drain(..) {
                    if p.state_insert_if_absent(node, c.clone()) {
                        p.forward_or_emit(node, Payload::Insert { tuple: c, fresh });
                    }
                }
                p.recycle_probe_scratch(candidates);
                // The visible set for this key is now fully materialized.
                if p.plan().node(node).state.needs_completion(key)
                    && p.plan_mut().node_mut(node).state.note_key_completed(key)
                {
                    p.on_state_completed(node);
                }
            }
        }
        removal => ops::process_removal(p, node, removal),
    }
}

/// Complete `n`'s entries for every key of the column that is still
/// pending there (Procedure 1's trigger, `needs_completion`, is
/// authoritative per key — see the module docs), level-major: first every
/// state below `n` that the procedure reaches, bottom-up, each for all of
/// the column's pending keys; then `n` itself. Left-deep plans walk the left
/// spine (Procedure 3), others recurse (Procedure 2). Afterwards no key of
/// the column needs completion at `n`.
fn complete_column(
    p: &mut Pipeline,
    n: NodeId,
    keys: &[Key],
    hashes: &[u64],
    mode: CompletionMode,
    sc: &mut CompletionScratch,
) {
    let st = &p.plan().node(n).state;
    if st.is_complete() {
        return;
    }
    let mut todo = sc.columns.pop().unwrap_or_default();
    todo.extend(
        keys.iter()
            .zip(hashes)
            .filter(|(&k, _)| st.needs_completion(k))
            .map(|(&k, &h)| (h, k)),
    );
    // The paper's "attempted" short-circuit: entries for these keys are
    // already known complete even though the state is not.
    p.metrics.attempted_skips += (keys.len() - todo.len()) as u64;
    if !todo.is_empty() {
        let node = p.plan().node(n);
        if let (Some(l), Some(r)) = (node.left, node.right) {
            if mode == CompletionMode::Auto && p.plan().is_left_deep() {
                // Procedure 3: no recursion — the right children (inner
                // streams) always have complete states.
                let mut spine = std::mem::take(&mut sc.spine);
                let mut below = Some(l);
                while let Some(node) = below {
                    spine.push(node);
                    below = p.plan().node(node).left;
                }
                for node in spine.drain(..).rev() {
                    complete_level(p, node, &todo, false, sc);
                }
                sc.spine = spine;
            } else {
                complete_subtree(p, l, &todo, sc);
                complete_subtree(p, r, &todo, sc);
            }
        }
        complete_level(p, n, &todo, true, sc);
    }
    todo.clear();
    sc.columns.push(todo);
}

/// Procedure 2 below the probed state: narrow the column to the keys still
/// pending at `m`, complete `m`'s children for them, then `m`.
fn complete_subtree(p: &mut Pipeline, m: NodeId, keys: &[(u64, Key)], sc: &mut CompletionScratch) {
    let node = p.plan().node(m);
    if node.state.is_complete() {
        return;
    }
    let mut sub = sc.columns.pop().unwrap_or_default();
    sub.extend(keys.iter().filter(|(_, k)| node.state.needs_completion(*k)));
    if !sub.is_empty() {
        if let (Some(l), Some(r)) = (node.left, node.right) {
            complete_subtree(p, l, &sub, sc);
            complete_subtree(p, r, &sub, sc);
        }
        complete_level(p, m, &sub, false, sc);
    }
    sub.clear();
    sc.columns.push(sub);
}

/// One level of a column completion: for every key of `keys` still pending
/// at `node`, materialize the missing entries from the children's states —
/// key-complete by now — and settle the §4.3 bookkeeping. `top` marks the
/// probed state, where Procedure 1 counts its completions (a key repeated
/// in the column completes once; the repeat is an attempted skip).
fn complete_level(
    p: &mut Pipeline,
    node: NodeId,
    keys: &[(u64, Key)],
    top: bool,
    sc: &mut CompletionScratch,
) {
    let nd = p.plan().node(node);
    if nd.state.is_complete() {
        return;
    }
    if let (Some(l), Some(r), true) = (nd.left, nd.right, keys.len() > 1) {
        // Overlap the column's cache misses: both children are probed, the
        // own state is probed and then inserted into.
        for (id, depth) in [
            (l, WarmDepth::Pair),
            (r, WarmDepth::Pair),
            (node, WarmDepth::Chain),
        ] {
            let state = &p.plan().node(id).state;
            state.warm(depth, keys.len(), |i| keys[i], &mut sc.warm);
        }
    }
    for &(h, key) in keys {
        let st = &p.plan().node(node).state;
        if !st.needs_completion(key) {
            if top && !st.is_complete() {
                p.metrics.attempted_skips += 1;
            }
            continue;
        }
        if top {
            p.metrics.completions += 1;
        }
        materialize_key(p, node, h, key, sc);
        if p.plan_mut().node_mut(node).state.note_key_completed(key) {
            p.on_state_completed(node);
        }
    }
}

/// Compute the full entry set for `key` (hash `h`) at binary node `n` from
/// its children's (key-complete) states and merge the missing entries; a
/// no-op at scans.
///
/// Entries that accumulated through normal post-transition processing are
/// skipped by lineage; the existing-lineage set is built once per key so
/// the merge is linear in the bucket, not quadratic. One key, several
/// probes and inserts against hash-indexed slab states: the hash is handed
/// down (list-backed states ignore it).
pub(crate) fn materialize_key(
    p: &mut Pipeline,
    n: NodeId,
    h: u64,
    key: Key,
    sc: &mut CompletionScratch,
) {
    let node = p.plan().node(n);
    let (Some(l), Some(r)) = (node.left, node.right) else {
        return;
    };
    let CompletionScratch {
        ls, rs, existing, ..
    } = sc;
    // Lineages `n` already holds for the key, into `existing`.
    let mut collect_existing = |p: &mut Pipeline| {
        let mut own = p.take_probe_scratch();
        p.lookup_state_into_hashed(n, h, key, &mut own);
        existing.clear();
        existing.extend(own.iter().map(Tuple::lineage));
        p.recycle_probe_scratch(own);
    };
    match node.op {
        OpKind::HashJoin | OpKind::NljJoin(_) => {
            p.lookup_state_into_hashed(l, h, key, ls);
            if !ls.is_empty() {
                p.lookup_state_into_hashed(r, h, key, rs);
            }
            if !rs.is_empty() {
                collect_existing(p);
                for a in ls.iter() {
                    for b in rs.iter() {
                        let t = Tuple::joined(key, a.clone(), b.clone());
                        if existing.is_empty() || !existing.contains(&t.lineage()) {
                            p.state_insert_hashed(n, h, t);
                        }
                    }
                }
            }
        }
        OpKind::SetDiff => {
            if !p.state_contains_key(r, key) {
                collect_existing(p);
                p.lookup_state_into_hashed(l, h, key, ls);
                for a in ls.drain(..) {
                    if existing.is_empty() || !existing.contains(&a.lineage()) {
                        p.state_insert_hashed(n, h, a);
                    }
                }
            }
        }
        OpKind::Scan(_) | OpKind::Aggregate(_) => {}
    }
    // Keep the capacity, not the tuples: a parked clone would pin an
    // expired tuple's memory until the next completion.
    ls.clear();
    rs.clear();
}

/// Perform a JISC plan transition on a running pipeline (§4.1, §4.5):
/// buffer-clearing through the old plan, state adoption by signature with
/// completeness carried over, and incomplete-state initialization (§4.3).
pub fn jisc_transition(p: &mut Pipeline, new_spec: &PlanSpec) -> Result<()> {
    // Safe transition: clear all input queues through the old plan first.
    p.run_with(&mut JiscSemantics::default());
    let new_plan = p.compile(new_spec)?;
    verify_same_query(p.plan(), &new_plan)?;
    verify_reorderable(&new_plan)?;
    p.mark_transition();
    let mut old = p.replace_plan(new_plan);
    // §4.5: a state is complete in the new plan only if it exists *and is
    // complete* in the old plan — adopted states carry their flags.
    let outcome = p.adopt_states(&mut old, |_, _| {});
    let adopted: FxHashSet<Signature> = outcome.adopted.into_iter().collect();
    init_incomplete_states(p, &adopted);
    Ok(())
}

/// Mark non-adopted binary states incomplete and seed their §4.3 counters.
/// Also the crash-recovery entry point (`crate::recovery`): a restarted
/// pipeline is a transition that adopted nothing.
pub(crate) fn init_incomplete_states(p: &mut Pipeline, adopted: &FxHashSet<Signature>) {
    use jisc_engine::PendingKeys;
    let order: Vec<NodeId> = p.plan().topo().to_vec();
    for id in order {
        let node = p.plan().node(id);
        if adopted.contains(&node.signature) {
            continue;
        }
        let (Some(l), Some(r)) = (node.left, node.right) else {
            continue;
        };
        let is_set_diff = matches!(node.op, OpKind::SetDiff);
        let l_complete = p.plan().node(l).state.is_complete();
        let r_complete = p.plan().node(r).state.is_complete();
        let pending = if is_set_diff {
            if l_complete {
                // Counter basis: outer keys (every visible candidate).
                PendingKeys::Known(p.plan().node(l).state.distinct_keys())
            } else {
                PendingKeys::Unknown {
                    completed: Default::default(),
                }
            }
        } else {
            match (l_complete, r_complete) {
                // Case 1: both complete — smaller distinct-key side.
                (true, true) => {
                    let (lc, rc) = (
                        p.plan().node(l).state.distinct_key_count(),
                        p.plan().node(r).state.distinct_key_count(),
                    );
                    let keys = if lc <= rc {
                        p.plan().node(l).state.distinct_keys()
                    } else {
                        p.plan().node(r).state.distinct_keys()
                    };
                    PendingKeys::Known(keys)
                }
                // Case 2: one incomplete — count the complete child.
                (true, false) => PendingKeys::Known(p.plan().node(l).state.distinct_keys()),
                (false, true) => PendingKeys::Known(p.plan().node(r).state.distinct_keys()),
                // Case 3: both incomplete — counter unknowable.
                (false, false) => PendingKeys::Unknown {
                    completed: Default::default(),
                },
            }
        };
        match pending {
            PendingKeys::Known(s) if s.is_empty() => {
                // Nothing can be missing: trivially complete.
            }
            pending => {
                p.plan_mut().node_mut(id).state.mark_incomplete(pending);
                p.metrics.states_incomplete += 1;
            }
        }
    }
}

/// Semantics that can additionally apply a [`Event::MigrationBarrier`]
/// (jisc_common's `Event`): the hook that puts plan migration in-band.
///
/// Serial executors and the sharded runtime's workers both drive their
/// pipelines exclusively through [`apply_event`], so there is exactly one
/// migration code path regardless of deployment shape.
pub trait EventSemantics: Semantics {
    /// Apply a migration barrier carrying the target plan.
    fn apply_barrier(p: &mut Pipeline, spec: &PlanSpec) -> Result<()>;
}

impl EventSemantics for JiscSemantics {
    fn apply_barrier(p: &mut Pipeline, spec: &PlanSpec) -> Result<()> {
        jisc_transition(p, spec)
    }
}

impl EventSemantics for jisc_engine::DefaultSemantics {
    fn apply_barrier(_p: &mut Pipeline, _spec: &PlanSpec) -> Result<()> {
        Err(jisc_common::JiscError::InvalidConfig(
            "plan transitions require JISC semantics".into(),
        ))
    }
}

/// Apply one in-band event to a pipeline: the single consumption path for
/// the unified event stream. `Columnar` runs the batched ingest,
/// `Expiry` advances the watermark, `MigrationBarrier` performs the
/// semantics' plan transition, and `Flush` drains all operator queues.
pub fn apply_event<S: EventSemantics>(
    p: &mut Pipeline,
    sem: &mut S,
    ev: Event<PlanSpec>,
) -> Result<()> {
    match ev {
        Event::Columnar(batch) => p.push_columnar_with(sem, &batch),
        Event::Expiry(ts) => p.advance_watermark_with(sem, ts),
        Event::Watermark(ts) => p.apply_watermark_with(sem, ts),
        Event::MigrationBarrier(spec) => S::apply_barrier(p, &spec),
        Event::Flush => {
            p.run_with(sem);
            Ok(())
        }
        // Routing is the runtime's concern; an engine accepts the epoch
        // punctuation as a no-op. Its value is its *position*: the router
        // guarantees all pre-repartition events were routed under the old
        // map and all later ones under the new map.
        Event::Repartition(_) => Ok(()),
    }
}

/// Number of states currently marked incomplete.
pub fn incomplete_state_count(p: &Pipeline) -> usize {
    p.plan()
        .ids()
        .filter(|&i| !p.plan().node(i).state.is_complete())
        .count()
}

/// The JISC executor: a pipeline driven by [`JiscSemantics`] with
/// [`jisc_transition`] plan changes. This is the paper's system.
#[derive(Debug)]
pub struct JiscExec {
    pipe: Pipeline,
    sem: JiscSemantics,
}

impl JiscExec {
    /// Build over a catalog and initial plan. The plan must be reorderable
    /// (hash or `KeyEq` nested-loops joins, set-differences).
    pub fn new(catalog: jisc_engine::Catalog, spec: &PlanSpec) -> Result<Self> {
        let pipe = Pipeline::new(catalog, spec)?;
        verify_reorderable(pipe.plan())?;
        Ok(JiscExec {
            pipe,
            sem: JiscSemantics::default(),
        })
    }

    /// Process one arrival to quiescence.
    pub fn push(&mut self, stream: jisc_common::StreamId, key: Key, payload: u64) -> Result<()> {
        self.pipe.push_with(&mut self.sem, stream, key, payload)
    }

    /// Process one arrival by stream name.
    pub fn push_named(&mut self, stream: &str, key: Key, payload: u64) -> Result<()> {
        let id = self.pipe.catalog().id(stream)?;
        self.push(id, key, payload)
    }

    /// Process one arrival carrying an explicit timestamp (time windows).
    pub fn push_at(
        &mut self,
        stream: jisc_common::StreamId,
        key: Key,
        payload: u64,
        ts: u64,
    ) -> Result<()> {
        self.pipe
            .push_at_with(&mut self.sem, stream, key, payload, ts)
    }

    /// Process a whole columnar batch to quiescence through the vectorized
    /// kernel path.
    pub fn push_columnar(&mut self, batch: &ColumnarBatch) -> Result<()> {
        self.pipe.push_columnar_with(&mut self.sem, batch)
    }

    /// Consume one in-band event (data batch, watermark, migration
    /// barrier, or flush).
    pub fn on_event(&mut self, ev: Event<PlanSpec>) -> Result<()> {
        apply_event(&mut self.pipe, &mut self.sem, ev)
    }

    /// Migrate to a new plan without halting (§4).
    pub fn transition_to(&mut self, new_spec: &PlanSpec) -> Result<()> {
        jisc_transition(&mut self.pipe, new_spec)
    }

    /// Override the completion-procedure selection (ablations).
    pub fn set_completion_mode(&mut self, mode: CompletionMode) {
        self.sem.mode = mode;
    }

    /// The underlying pipeline (output, metrics, plan inspection).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipe
    }

    /// Mutable pipeline access (tests and benches).
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipe
    }

    /// States still incomplete from the most recent transition.
    pub fn incomplete_states(&self) -> usize {
        incomplete_state_count(&self.pipe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_common::{SplitMix64, StreamId};
    use jisc_engine::{Catalog, JoinStyle};

    fn exec(streams: &[&str], window: usize) -> JiscExec {
        let catalog = Catalog::uniform(streams, window).unwrap();
        let spec = PlanSpec::left_deep(streams, JoinStyle::Hash);
        JiscExec::new(catalog, &spec).unwrap()
    }

    fn feed(e: &mut JiscExec, n: usize, streams: u64, keys: u64, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..n {
            e.push(
                StreamId(rng.next_below(streams) as u16),
                rng.next_below(keys),
                0,
            )
            .unwrap();
        }
    }

    #[test]
    fn best_case_transition_leaves_one_incomplete_state() {
        let mut e = exec(&["R", "S", "T", "U"], 50);
        feed(&mut e, 400, 4, 10, 1);
        // Swap the two topmost streams: only the join below the root changes.
        let target = PlanSpec::left_deep(&["R", "S", "U", "T"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        assert_eq!(e.incomplete_states(), 1);
        assert_eq!(e.pipeline().metrics.states_incomplete, 1);
    }

    #[test]
    fn worst_case_transition_invalidates_all_intermediates() {
        let mut e = exec(&["R", "S", "T", "U", "V"], 40);
        feed(&mut e, 500, 5, 10, 2);
        let target = PlanSpec::left_deep(&["V", "S", "T", "U", "R"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        // 4 joins; the root always survives (covers all streams).
        assert_eq!(e.incomplete_states(), 3);
    }

    #[test]
    fn counter_initialized_from_complete_child_case2() {
        let mut e = exec(&["R", "S", "T", "U"], 50);
        feed(&mut e, 400, 4, 6, 3);
        // Worst case: RU and RUT incomplete in ((R U) T) S ... use swap 0<->3
        let target = PlanSpec::left_deep(&["U", "S", "T", "R"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        let p = e.pipeline();
        // Find the lowest incomplete join: children are two scans (Case 1);
        // the next one up has an incomplete left child (Case 2).
        let mut counters = Vec::new();
        for id in p.plan().ids() {
            let st = &p.plan().node(id).state;
            if !st.is_complete() {
                counters.push(st.counter().expect("left-deep states use Known pending"));
            }
        }
        assert_eq!(counters.len(), 2);
        for c in counters {
            assert!(
                c > 0 && c <= 6,
                "counter must hold distinct key count, got {c}"
            );
        }
    }

    #[test]
    fn completion_decrements_counter_and_converges() {
        let mut e = exec(&["R", "S", "T"], 30);
        feed(&mut e, 300, 3, 5, 4);
        let target = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        assert_eq!(e.incomplete_states(), 1);
        let before = {
            let p = e.pipeline();
            p.plan()
                .ids()
                .filter_map(|i| p.plan().node(i).state.counter())
                .next()
                .expect("one incomplete state")
        };
        assert!(before > 0);
        // Probing arrivals complete keys on demand; all 5 keys recur fast.
        feed(&mut e, 200, 3, 5, 5);
        assert_eq!(e.incomplete_states(), 0, "all keys probed or expired");
        assert!(e.pipeline().metrics.completions > 0);
    }

    #[test]
    fn overlapped_transition_keeps_revisited_state_incomplete() {
        // §4.5 / Figure 4: ST incomplete after transition 1; transition 2
        // revisits a plan containing ST — it must stay incomplete.
        let mut e = exec(&["R", "S", "T", "U"], 60);
        feed(&mut e, 500, 4, 50, 6); // many keys: completion will not finish
        let t1 = PlanSpec::left_deep(&["R", "S", "U", "T"], JoinStyle::Hash);
        e.transition_to(&t1).unwrap(); // RSU incomplete
        assert_eq!(e.incomplete_states(), 1);
        feed(&mut e, 3, 4, 50, 7); // far too few probes to complete RSU
        assert_eq!(e.incomplete_states(), 1);
        let t2 = PlanSpec::left_deep(&["S", "R", "U", "T"], JoinStyle::Hash);
        e.transition_to(&t2).unwrap();
        // {R,S,U} exists in the old plan but was incomplete there: must
        // remain incomplete here (plus nothing else changed: {R,S} swaps
        // produce the same signature).
        assert!(
            e.incomplete_states() >= 1,
            "revisited state must stay incomplete"
        );
    }

    #[test]
    fn attempted_probes_skip_completion() {
        let mut e = exec(&["R", "S", "T"], 40);
        feed(&mut e, 300, 3, 4, 8);
        let target = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        feed(&mut e, 300, 3, 4, 9);
        let m = &e.pipeline().metrics;
        assert!(m.completions <= 4 * 2, "at most once per key per state");
        assert!(
            m.attempted_skips > 0,
            "repeat keys must take the short path"
        );
    }

    #[test]
    fn transition_is_rejected_for_unknown_stream_plan() {
        let mut e = exec(&["R", "S", "T"], 10);
        let bad = PlanSpec::left_deep(&["R", "S", "X"], JoinStyle::Hash);
        assert!(e.transition_to(&bad).is_err());
        // engine still works afterwards
        e.push_named("R", 1, 0).unwrap();
        e.push_named("S", 1, 0).unwrap();
        e.push_named("T", 1, 0).unwrap();
        assert_eq!(e.pipeline().output.count(), 1);
    }

    #[test]
    fn jisc_latency_is_tiny_compared_to_state_sizes() {
        let mut e = exec(&["R", "S", "T", "U"], 100);
        feed(&mut e, 2_000, 4, 100, 10);
        let work_before = e.pipeline().metrics.total_work();
        let target = PlanSpec::left_deep(&["U", "S", "T", "R"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        let transition_work = e.pipeline().metrics.total_work() - work_before;
        // The transition itself moves states and seeds counters — it must
        // not rebuild anything (that would show up as inserts/probes).
        assert_eq!(e.pipeline().metrics.eager_entries_built, 0);
        assert!(
            transition_work < 10,
            "lazy transition should do ~no state work, did {transition_work}"
        );
    }

    #[test]
    fn iterative_and_recursive_completion_agree() {
        let streams = ["R", "S", "T", "U"];
        let mut outs = Vec::new();
        for mode in [CompletionMode::Auto, CompletionMode::ForceRecursive] {
            let mut e = exec(&streams, 30);
            e.set_completion_mode(mode);
            feed(&mut e, 300, 4, 6, 11);
            let target = PlanSpec::left_deep(&["U", "T", "S", "R"], JoinStyle::Hash);
            e.transition_to(&target).unwrap();
            feed(&mut e, 300, 4, 6, 12);
            outs.push(e.pipeline().output.lineage_multiset());
        }
        assert_eq!(outs[0], outs[1]);
    }
}
