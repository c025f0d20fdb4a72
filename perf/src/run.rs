//! Running one workload: set-up, warm-up, the flat-out and paced segments,
//! the output check, and the traced pass that yields the per-layer metrics.
//!
//! End-to-end numbers come from untraced segments timed by clocks the
//! benchmark holds. The traced pass is separate: the same driving loop, on the
//! same seed's inputs, once with spans off and once with spans on.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::gen::{self, Arrivals};
use crate::model;
use crate::pacer::{self, median, Paced, Sample, Target, WallClock};
use crate::spec::{self, Kind, Workload};
use crate::sut::{self, stage, Counters, Engine, Job, OutputFold, Replica, Sharded, BATCH};
use crate::trace::Tracer;

/// Span names of the synchronous driving loop.
mod span {
    pub const LOOP: &str = "loop";
    pub const STAGE: &str = "client.stage";
    pub const PUSH: &str = "core.adaptive.push";
    pub const DRAIN: &str = "engine.output.drain";
    pub const TRANSITION: &str = "core.adaptive.transition";
    pub const POLL: &str = "core.jisc.poll_incomplete";
}

/// What to run and how large.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Seconds the timed segments are sized for (`--seconds`, or a hundredth
    /// of it under `--smoke`).
    pub seconds: f64,
    /// Sized far below what a percentile needs (`--smoke`): latency tails are
    /// left out instead of failing the run.
    pub smoke: bool,
    /// Flip one result before the output check (`--self-test`): the run must
    /// then report a failure.
    pub corrupt_output: bool,
    /// Where scratch files (cold segments) and span dumps go.
    pub out_dir: PathBuf,
}

/// What one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Tuples offered to the program, warm-up included.
    pub attempted: u64,
    /// Refused offers, shed tuples, late drops beyond the predicted ones,
    /// result mismatches, and the batches of an unsustainable paced segment.
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Run parameters and by-products, as `(key, JSON value)`.
    pub info: Vec<(&'static str, String)>,
    /// Why `failed` is not 0, for the operator.
    pub complaints: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, n: u64, why: String) {
        if n > 0 {
            self.failed += n;
            self.complaints.push(why);
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// A directory removed, with what is in it, when the guard drops.
struct Scratch(PathBuf);

impl Scratch {
    fn new(root: &Path) -> Scratch {
        let dir = root.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn batches(range: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let end = range.end;
    range.step_by(BATCH).map(move |i| i..(i + BATCH).min(end))
}

/// Fewest batches a part of a paced segment may hold.
const MIN_SAMPLES_PER_PART: usize = 1000;

fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Where the forced worst-case transitions of `migrate` stand.
#[derive(Debug, Clone)]
struct Migration {
    /// Arrival index at or after which the next transition is due.
    next_at: usize,
    to_target: bool,
    /// Arrival index of a transition whose states are not all complete yet.
    completing_since: Option<usize>,
    /// Ask the engine after every batch whether they are (traced pass only).
    polls: bool,
}

impl Migration {
    fn starting_at(first_timed: usize) -> Migration {
        Migration {
            next_at: first_timed,
            to_target: true,
            completing_since: None,
            polls: false,
        }
    }

    fn polling(mut self) -> Migration {
        self.polls = true;
        self
    }

    /// Has the batch starting at arrival `i` reached the schedule?
    fn due(&self, i: usize) -> bool {
        i >= self.next_at
    }

    /// Transition before arrival `i`; false if the engine refused.
    fn fire(&mut self, i: usize, engine: &mut Engine, job: &Job) -> bool {
        let ok = engine.transition(job, self.to_target);
        self.to_target = !self.to_target;
        self.next_at += spec::WARMUP;
        self.completing_since = Some(i);
        ok
    }
}

/// Timings of one closed-loop pass over a range of arrivals.
#[derive(Debug, Clone, Default)]
struct Drive {
    wall_ns: u64,
    tuples: usize,
    /// Tuples per second of each whole slice of one window turnover
    /// ([`spec::WARMUP`] tuples), so a slice of `migrate` holds exactly one
    /// transition.
    slice_rates: Vec<f64>,
    /// One entry per `push_columnar` call.
    push_ns: Vec<u64>,
    transition_ns: Vec<u64>,
    /// Tuples from a transition until no state was incomplete (polled per
    /// batch; transitions overtaken by the next one leave no entry).
    tuples_to_complete: Vec<u64>,
    refused: u64,
}

impl Drive {
    /// Tuples per second: the median over slices, which a stall of the
    /// machine moves little; over the whole pass when it has under three.
    fn tuples_per_s(&self) -> f64 {
        if self.slice_rates.len() < 3 {
            return self.tuples as f64 * 1e9 / self.wall_ns as f64;
        }
        median(&self.slice_rates)
    }

    fn push_ns_per_tuple(&self) -> f64 {
        self.push_ns.iter().sum::<u64>() as f64 / self.tuples as f64
    }
}

/// Closed loop, one caller: stage a batch, push it, take the results, next.
fn drive(
    engine: &mut Engine,
    job: &Job,
    arr: &Arrivals,
    range: Range<usize>,
    fold: &mut OutputFold,
    tr: &mut Tracer,
    mut migration: Option<&mut Migration>,
) -> Drive {
    let mut d = Drive {
        tuples: range.len(),
        ..Drive::default()
    };
    let t0 = Instant::now();
    let (mut slice_t0, mut slice_first, mut slice_end) =
        (t0, range.start, range.start + spec::WARMUP);
    let root = tr.enter(span::LOOP, 0);
    for (b, r) in batches(range).enumerate() {
        let b = b as u32;
        let start = r.start;
        if start >= slice_end {
            let now = Instant::now();
            let tuples = (start - slice_first) as f64;
            d.slice_rates
                .push(tuples * 1e9 / (now - slice_t0).as_nanos() as f64);
            (slice_t0, slice_first, slice_end) = (now, start, slice_end + spec::WARMUP);
        }
        if let Some(m) = migration.as_deref_mut().filter(|m| m.due(start)) {
            let sp = tr.enter(span::TRANSITION, b);
            let t = Instant::now();
            let ok = m.fire(start, engine, job);
            d.transition_ns.push(t.elapsed().as_nanos() as u64);
            tr.exit(sp);
            d.refused += !ok as u64;
        }
        let sp = tr.enter(span::STAGE, b);
        engine.stage(arr, r.clone());
        tr.exit(sp);
        let sp = tr.enter(span::PUSH, b);
        let t = Instant::now();
        let ok = engine.push();
        d.push_ns.push(t.elapsed().as_nanos() as u64);
        tr.exit(sp);
        d.refused += !ok as u64;
        let sp = tr.enter(span::DRAIN, b);
        engine.drain(fold);
        tr.exit(sp);
        if let Some(m) = migration.as_deref_mut().filter(|m| m.polls) {
            if let Some(since) = m.completing_since {
                let sp = tr.enter(span::POLL, b);
                if engine.incomplete_states() == 0 {
                    d.tuples_to_complete.push((r.end - since) as u64);
                    m.completing_since = None;
                }
                tr.exit(sp);
            }
        }
    }
    tr.exit(root);
    d.wall_ns = t0.elapsed().as_nanos() as u64;
    d
}

/// The synchronous engine as the pacer's target.
struct PacedEngine<'a> {
    engine: &'a mut Engine,
    job: &'a Job,
    arr: &'a Arrivals,
    first: usize,
    fold: &'a mut OutputFold,
    migration: Option<&'a mut Migration>,
    refused: u64,
}

impl PacedEngine<'_> {
    fn range(&self, b: usize) -> Range<usize> {
        let start = self.first + b * BATCH;
        start..start + BATCH
    }
}

impl Target for PacedEngine<'_> {
    fn stage(&mut self, b: usize) {
        // Results of the previous offer are taken here, after its latency has
        // been read: consuming them is the caller's work, not the program's.
        self.engine.drain(self.fold);
        self.engine.stage(self.arr, self.range(b));
    }

    fn offer(&mut self, b: usize) {
        let start = self.range(b).start;
        if let Some(m) = self.migration.as_deref_mut().filter(|m| m.due(start)) {
            self.refused += !m.fire(start, self.engine, self.job) as u64;
        }
        self.refused += !self.engine.push() as u64;
    }
}

/// The sharded executor as the pacer's target: a batch is [`BATCH`] offers in
/// the disordered order.
struct PacedSharded<'a> {
    exec: &'a mut Sharded,
    arr: &'a Arrivals,
    order: &'a [u32],
    first: usize,
    refused: u64,
}

impl Target for PacedSharded<'_> {
    fn stage(&mut self, _: usize) {}

    fn offer(&mut self, b: usize) {
        let start = self.first + b * BATCH;
        self.refused += offer_ordered(self.exec, self.arr, &self.order[start..start + BATCH]);
    }
}

/// Offer arrivals at their event-time positions; returns how many were refused.
fn offer_ordered(exec: &mut Sharded, arr: &Arrivals, order: &[u32]) -> u64 {
    let mut refused = 0;
    for &pos in order {
        let i = pos as usize;
        refused += !exec.offer(arr.streams[i], arr.keys[i], i as u64, i as u64) as u64;
    }
    refused
}

/// Result digests in one multiset and not the other, both ways.
fn multiset_difference(a: &mut [u64], b: &mut [u64]) -> u64 {
    a.sort_unstable();
    b.sort_unstable();
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                i += 1;
                diff += 1;
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                diff += 1;
            }
        }
    }
    diff + (a.len() - i) as u64 + (b.len() - j) as u64
}

/// Compare the results over the checked prefix with the reference's.
fn check_outputs(
    out: &mut Outcome,
    plan: &Plan,
    fold: &mut OutputFold,
    reference: &mut OutputFold,
) {
    if plan.corrupt_output {
        match fold.prefix.first_mut() {
            Some(h) => *h ^= 1,
            None => fold.prefix.push(1),
        }
    }
    let diff = multiset_difference(&mut fold.prefix, &mut reference.prefix);
    out.fail(
        diff,
        format!(
            "output check: {diff} results differ from the serial reference ({} against {})",
            fold.prefix.len(),
            reference.prefix.len()
        ),
    );
    if reference.prefix.is_empty() {
        out.fail(
            1,
            "output check: the reference produced no result to compare".into(),
        );
    }
    out.info
        .push(("checked_outputs", reference.prefix.len().to_string()));
}

fn report_latency(out: &mut Outcome, paced: &Paced, refused: u64, smoke: bool) {
    let n = paced.latency_ns.len();
    out.fail(refused, format!("paced segment: {refused} offers refused"));
    if !paced.sustainable() {
        out.fail(
            n as u64,
            format!(
                "paced segment unsustainable: in its last tenth the generator never came within {} us \
                 of its schedule, more than one period of {} us",
                paced.backlog_growth_ns() / 1000,
                paced.period_ns / 1000
            ),
        );
    }
    // Percentiles are taken in an odd number of parts of the segment, each of
    // at least a thousand batches, and the median part is reported: one stall
    // of the machine then spoils one part, not the run's tail.
    let parts = match n / MIN_SAMPLES_PER_PART {
        0..=2 => 1,
        k => (k.min(7) - 1) | 1,
    };
    for (name, q) in [("latency_p50_us", 0.50), ("latency_p90_us", 0.90)] {
        let per_part: Result<Vec<f64>, String> = paced
            .latency_ns
            .chunks(n.div_ceil(parts).max(1))
            .map(|part| Sample::new(part.to_vec()).percentile(q).map(ns_to_us))
            .collect();
        match per_part {
            Ok(values) => out.set(name, median(&values)),
            Err(why) => {
                // A smoke run is too short for a tail; it reports none.
                if !smoke {
                    out.fail(n as u64, format!("{name}: {why}; use a larger --seconds"));
                }
                out.set(name, 0.0);
            }
        }
    }
    out.info.push(("latency_samples", n.to_string()));
    out.info.push(("latency_parts", parts.to_string()));
    out.info
        .push(("delayed_batches", paced.delayed().to_string()));
}

fn report_client(out: &mut Outcome, paced: &Paced) {
    let lateness = Sample::new(paced.gen_lateness_ns.clone());
    out.set(
        "client.gen_lateness_p99_us",
        lateness.percentile(0.99).map_or(0.0, ns_to_us),
    );
    out.set(
        "client.backlog_growth_us",
        paced.backlog_growth_ns() as f64 / 1e3,
    );
    out.set(
        "client.latency_p99_us",
        Sample::new(paced.latency_ns.clone())
            .percentile(0.99)
            .map_or(0.0, ns_to_us),
    );
    out.set("client.latency_samples", paced.latency_ns.len() as f64);
}

/// Sizes of one run, in tuples.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Untimed tuples before the first timed offer.
    warm: usize,
    flat: usize,
    paced: usize,
    traced: usize,
    checked: usize,
}

impl Sizes {
    fn of(plan: &Plan) -> Sizes {
        let w = plan.workload;
        let seg = |rate, share| spec::segment_tuples(rate, plan.seconds, share, BATCH);
        let flat = seg(w.flat_rate, spec::FLAT_SHARE);
        // A spilling engine warms up twice: one turnover to fill the windows,
        // one more under the budget so the cold tier holds what eviction runs
        // of ordinary size leave, not the one run that enabling it causes.
        let turnovers = if w.kind == Kind::SyncSpilling { 2 } else { 1 };
        Sizes {
            warm: turnovers * spec::WARMUP / BATCH * BATCH,
            flat,
            paced: seg(w.paced_rate, 1.0 - spec::FLAT_SHARE),
            traced: seg(w.flat_rate, spec::TRACE_SHARE),
            checked: flat.min(w.check_cap),
        }
    }

    /// Arrivals, warm-up included, that every workload fed `steady`'s
    /// arrivals by the caller's thread gets through: over these they must
    /// all emit the same results.
    fn shared_end(plan: &Plan) -> u64 {
        spec::WORKLOADS
            .iter()
            .filter(|w| matches!(w.kind, Kind::Sync | Kind::SyncMigrating))
            .map(|w| {
                let sz = Sizes::of(&Plan {
                    workload: w,
                    ..plan.clone()
                });
                (sz.warm + sz.flat + sz.paced) as u64
            })
            .min()
            .unwrap_or(0)
    }

    fn info(&self, out: &mut Outcome, w: &Workload) {
        out.info.push(("warmup_tuples", self.warm.to_string()));
        out.info.push(("flat_tuples", self.flat.to_string()));
        out.info.push(("paced_tuples", self.paced.to_string()));
        out.info.push(("paced_rate", w.paced_rate.to_string()));
        out.info.push(("traced_tuples", self.traced.to_string()));
        out.info.push(("checked_tuples", self.checked.to_string()));
    }
}

/// Build a synchronous workload's engine and warm it up over the first
/// `warm` arrivals, taking the budget on half-way if the workload spills.
fn warm_engine(
    plan: &Plan,
    job: &Job,
    arr: &Arrivals,
    warm: usize,
    prefix_end: u64,
    cold: &Path,
) -> (Engine, OutputFold) {
    let spills = plan.workload.kind == Kind::SyncSpilling;
    let mut engine = Engine::new(job);
    let mut fold = OutputFold::new(prefix_end).sharing(Sizes::shared_end(plan));
    let mut quiet = Tracer::new(false);
    let first = if spills { warm / 2 } else { warm };
    drive(&mut engine, job, arr, 0..first, &mut fold, &mut quiet, None);
    if spills {
        engine.enable_spill(spec::SPILL_BUDGET_BYTES, cold);
        drive(
            &mut engine,
            job,
            arr,
            first..warm,
            &mut fold,
            &mut quiet,
            None,
        );
    }
    (engine, fold)
}

/// Run `set_up` at least three times, and up to nine while they have taken
/// under a second together; the median time is `setup_s`, the last result is
/// the one the timed segments use.
fn timed_set_up<T>(out: &mut Outcome, mut set_up: impl FnMut(usize) -> T) -> T {
    let mut secs: Vec<f64> = Vec::new();
    let mut last = None;
    while secs.len() < 3 || (secs.len() < 9 && secs.iter().sum::<f64>() < 1.0) {
        drop(last.take());
        let t = Instant::now();
        last = Some(set_up(secs.len()));
        secs.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&secs));
    out.info.push(("set_ups", secs.len().to_string()));
    last.expect("at least three set-ups ran")
}

fn ok_share(out: &mut Outcome) {
    let share = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.set("ok_share", share);
}

/// The untraced run of a synchronous workload: every end-to-end metric.
fn end_to_end_sync(plan: &Plan, out: &mut Outcome) {
    let w = plan.workload;
    let job = Job::fig9(spec::JOINS, spec::WINDOW);
    let sz = Sizes::of(plan);
    sz.info(out, w);
    let scratch = Scratch::new(&plan.out_dir);
    let total = sz.warm + sz.flat + sz.paced;
    let prefix_end = (sz.warm + sz.checked) as u64;
    let (arr, (mut engine, mut fold)) = timed_set_up(out, |k| {
        let arr = gen::arrivals(plan.seed, total, job.streams, w.keys);
        let cold = scratch.0.join(format!("cold-{k}"));
        let warmed = warm_engine(plan, &job, &arr, sz.warm, prefix_end, &cold);
        (arr, warmed)
    });
    out.attempted = total as u64;

    let mut migration = (w.kind == Kind::SyncMigrating).then(|| Migration::starting_at(sz.warm));
    let flat_end = sz.warm + sz.flat;
    let flat = drive(
        &mut engine,
        &job,
        &arr,
        sz.warm..flat_end,
        &mut fold,
        &mut Tracer::new(false),
        migration.as_mut(),
    );
    out.fail(
        flat.refused,
        format!("flat-out segment: {} offers refused", flat.refused),
    );
    out.set("tuples_per_s", flat.tuples_per_s());

    let mut target = PacedEngine {
        engine: &mut engine,
        job: &job,
        arr: &arr,
        first: flat_end,
        fold: &mut fold,
        migration: migration.as_mut(),
        refused: 0,
    };
    let paced = pacer::run_paced(
        &mut WallClock::spinning(),
        sz.paced / BATCH,
        BATCH,
        w.paced_rate,
        &mut target,
    );
    let refused = target.refused;
    engine.drain(&mut fold);
    report_latency(out, &paced, refused, plan.smoke);
    out.set("peak_rss_mb", peak_rss_mb());
    let transitions = engine.counters().transitions;
    drop(engine);

    let mut reference = sut::Reference::new(&job);
    for i in 0..prefix_end as usize {
        reference.push(arr.streams[i], arr.keys[i], i as u64);
    }
    check_outputs(out, plan, &mut fold, &mut reference.fold(prefix_end));
    out.info.push(("outputs", fold.count.to_string()));
    out.info
        .push(("checksum", format!("\"{:016x}\"", fold.checksum)));
    out.info
        .push(("shared_outputs", fold.shared_count.to_string()));
    out.info.push((
        "shared_checksum",
        format!("\"{:016x}\"", fold.shared_checksum),
    ));
    out.info.push(("transitions", transitions.to_string()));
    ok_share(out);
}

/// Inputs of a sharded run: arrivals and the disordered order they are
/// offered in.
struct ShardedInputs {
    arr: Arrivals,
    order: Vec<u32>,
}

fn sharded_inputs(plan: &Plan, job: &Job, n: usize) -> ShardedInputs {
    ShardedInputs {
        arr: gen::arrivals(plan.seed, n, job.streams, plan.workload.keys),
        order: gen::disorder(
            plan.seed,
            n,
            spec::LATENESS_BOUND,
            spec::STRAGGLER_EVERY,
            spec::STRAGGLER_EXCESS,
        ),
    }
}

fn spawn_sharded(job: &Job) -> Sharded {
    Sharded::spawn(
        job,
        spec::SHARDS,
        spec::LATENESS_BOUND,
        spec::WATERMARK_EVERY,
    )
}

/// Spawn the executor and offer the warm-up.
fn set_up_sharded(plan: &Plan, job: &Job, warm: usize, n: usize) -> (ShardedInputs, Sharded, u64) {
    let inputs = sharded_inputs(plan, job, n);
    let mut exec = spawn_sharded(job);
    let refused = offer_ordered(&mut exec, &inputs.arr, &inputs.order[..warm]);
    (inputs, exec, refused)
}

/// One tuple a lateness gate released: `(stream, key, payload, event time)`.
type Release = (u16, u64, u64, u64);

/// What the harness-side gate predicts for an offer order: how many tuples
/// the router's gate will drop, and the released sequence of the first
/// `reference_offers` offers, which the serial reference is fed.
fn predict_gate(inputs: &ShardedInputs, reference_offers: usize) -> (u64, Vec<Release>) {
    let mut gate = sut::Gate::new(spec::LATENESS_BOUND);
    let mut released = Vec::with_capacity(reference_offers);
    for (n, &pos) in inputs.order.iter().enumerate() {
        let i = pos as usize;
        let keep = n < reference_offers;
        gate.offer(
            i as u64,
            inputs.arr.streams[i],
            inputs.arr.keys[i],
            i as u64,
            |s, k, p, ts| {
                if keep {
                    released.push((s, k, p, ts));
                }
            },
        );
    }
    (gate.dropped(), released)
}

/// Flat-out repetitions of `sharded`. A run is timed as a whole — its results
/// only exist once `finish` returns — so it cannot be cut into slices as a
/// synchronous pass is; three runs on the same inputs and their median take
/// the place of that.
const SHARDED_REPS: usize = 3;

/// The untraced run of `sharded`: every end-to-end metric.
fn end_to_end_sharded(plan: &Plan, out: &mut Outcome) {
    let w = plan.workload;
    let job = Job::fig9(spec::JOINS, spec::WINDOW);
    let sz = Sizes::of(plan);
    sz.info(out, w);
    let flat = (sz.flat / SHARDED_REPS / BATCH).max(1) * BATCH;
    let n = sz.warm + flat;
    out.info
        .push(("flat_tuples_per_repetition", flat.to_string()));

    // Flat out, closed loop: the caller blocks on back-pressure, and a run
    // ends when `finish` hands back the merged sink. Each repetition is a
    // set-up of its own.
    let mut rates = Vec::new();
    let mut first: Option<(ShardedInputs, OutputFold, Vec<Release>)> = None;
    for rep in 0..SHARDED_REPS {
        let t = Instant::now();
        let (inputs, mut exec, warm_refused) = set_up_sharded(plan, &job, sz.warm, n);
        if rep == 0 {
            // Only the first executor of the process is set up as a user
            // would start one. Later ones warm up 5 to 8 times slower — the
            // allocator reusing the arenas of threads that are gone (not so
            // under MALLOC_ARENA_MAX=1) — which says nothing about the
            // runtime; and setting all of them up before the first runs makes
            // peak memory swing by a fifth from run to run.
            out.set("setup_s", t.elapsed().as_secs_f64());
        }
        let (predicted_drops, released) = predict_gate(&inputs, sz.warm + sz.checked.min(flat));
        let mut fold = OutputFold::new(released.len() as u64);
        let t0 = Instant::now();
        let refused =
            warm_refused + offer_ordered(&mut exec, &inputs.arr, &inputs.order[sz.warm..]);
        let outcome = exec.finish(&mut fold);
        rates.push(flat as f64 / t0.elapsed().as_secs_f64());
        out.attempted += n as u64;
        out.fail(
            refused,
            format!("flat-out run {rep}: {refused} offers refused"),
        );
        match &outcome {
            None => out.fail(n as u64, format!("flat-out run {rep} failed to finish")),
            Some(o) => {
                out.fail(o.shed_tuples, format!("{} tuples shed", o.shed_tuples));
                let unpredicted = o.dropped_late.abs_diff(predicted_drops);
                out.fail(
                    unpredicted,
                    format!(
                        "late drops: {} where the harness-side gate predicts {predicted_drops}",
                        o.dropped_late
                    ),
                );
                let lost = (n as u64).abs_diff(o.events + o.dropped_late);
                out.fail(
                    lost,
                    format!("{lost} offered tuples neither routed nor dropped"),
                );
                if rep == 0 {
                    out.info
                        .push(("late_admitted", o.late_admitted.to_string()));
                    out.info.push(("dropped_late", o.dropped_late.to_string()));
                }
            }
        }
        match &first {
            None => first = Some((inputs, fold, released)),
            // The same inputs must give the same results, whatever the
            // threads' interleaving was.
            Some((_, f, _)) => out.fail(
                (f.count != fold.count || f.checksum != fold.checksum) as u64,
                format!(
                    "flat-out run {rep} emitted {} results, run 0 emitted {}, or others",
                    fold.count, f.count
                ),
            ),
        }
    }
    out.set("tuples_per_s", median(&rates));
    let (_, mut fold, released) = first.expect("the first repetition ran");

    // Paced, open loop, on one more executor: a flat-out run's results only
    // became visible at `finish`, so the latency seen from outside is that of
    // admission — due until the router has taken the batch.
    let m = sz.warm + sz.paced;
    let (inputs_b, mut exec_b, warm_refused) = set_up_sharded(plan, &job, sz.warm, m);
    let mut target = PacedSharded {
        exec: &mut exec_b,
        arr: &inputs_b.arr,
        order: &inputs_b.order,
        first: sz.warm,
        refused: warm_refused,
    };
    let paced = pacer::run_paced(
        &mut WallClock::yielding(),
        sz.paced / BATCH,
        BATCH,
        w.paced_rate,
        &mut target,
    );
    let refused = target.refused;
    let finished = exec_b.finish(&mut OutputFold::new(0));
    out.attempted += m as u64;
    out.fail(
        finished.is_none() as u64 * m as u64,
        "the paced sharded run failed to finish".into(),
    );
    report_latency(out, &paced, refused, plan.smoke);
    out.set("peak_rss_mb", peak_rss_mb());

    let prefix_end = released.len() as u64;
    let mut reference = sut::Reference::new(&job);
    for &(s, k, p, ts) in &released {
        reference.push_at(s, k, p, ts);
    }
    check_outputs(out, plan, &mut fold, &mut reference.fold(prefix_end));
    out.info.push(("outputs", fold.count.to_string()));
    out.info
        .push(("checksum", format!("\"{:016x}\"", fold.checksum)));
    ok_share(out);
}

/// Per-layer metrics every engine yields: kernel timers against the push busy
/// time they ran in, slab and completion counts per tuple, cold-tier counts.
fn report_engine_layers(out: &mut Outcome, c: &Counters, tuples: usize, push_busy_ns: f64) {
    let per_tuple = |v: u64| v as f64 / tuples as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    const ELEM: [&str; 5] = [
        "engine.columnar.hash_ns_per_elem",
        "engine.columnar.probe_ns_per_elem",
        "engine.columnar.pair_ns_per_elem",
        "engine.columnar.install_ns_per_elem",
        "engine.columnar.expire_ns_per_elem",
    ];
    const SHARE: [&str; 5] = [
        "engine.columnar.hash_share",
        "engine.columnar.probe_share",
        "engine.columnar.pair_share",
        "engine.columnar.install_share",
        "engine.columnar.expire_share",
    ];
    let mut attributed = 0.0;
    for k in 0..5 {
        let (elements, nanos) = c.kernels[k];
        out.set(ELEM[k], ratio(nanos, elements));
        out.set(SHARE[k], nanos as f64 / push_busy_ns);
        attributed += nanos as f64 / push_busy_ns;
    }
    out.set("engine.columnar.unattributed_share", 1.0 - attributed);
    out.set("engine.slab.probes_per_tuple", per_tuple(c.probes));
    out.set("engine.slab.inserts_per_tuple", per_tuple(c.inserts));
    out.set("engine.slab.removals_per_tuple", per_tuple(c.removals));
    out.set("engine.slab.probe_depth", ratio(c.probe_depth, c.probes));
    out.set("engine.slab.rehashes", c.rehashes as f64);
    out.set("engine.slab.hot_mb", c.hot_bytes as f64 / 1e6);
    out.set(
        "core.jisc.completions_per_transition",
        ratio(c.completions, c.transitions),
    );
    out.set(
        "core.jisc.states_incomplete_per_transition",
        ratio(c.states_incomplete, c.transitions),
    );
    out.set(
        "core.jisc.states_copied_per_transition",
        ratio(c.states_copied, c.transitions),
    );
    out.set("engine.spill.evictions_per_tuple", per_tuple(c.evictions));
    out.set("engine.spill.faults_per_tuple", per_tuple(c.faults));
    out.set(
        "engine.spill.fault_batching",
        ratio(c.faults, c.fault_reads),
    );
    out.set("engine.spill.thrash", ratio(c.evictions, c.faults));
    out.set("engine.spill.segments_sealed", c.segments_sealed as f64);
    out.set("engine.spill.segments_dropped", c.segments_dropped as f64);
    out.set("engine.spill.compactions", c.compactions as f64);
    out.set("engine.spill.cold_entries", c.cold_entries as f64);
    out.set("engine.spill.disk_mb", c.disk_bytes as f64 / 1e6);
    out.set("engine.spill.fault_p50_us", ns_to_us(c.fault_p50_ns));
    out.set("engine.spill.fault_p99_us", ns_to_us(c.fault_p99_ns));
}

/// Layers timed in isolation, on the workload's own key column.
fn report_isolated_layers(out: &mut Outcome, arr: &Arrivals, cold: &Path) {
    let one_stream: Vec<u64> = (0..arr.len())
        .filter(|&i| arr.streams[i] == 0)
        .map(|i| arr.keys[i])
        .collect();
    let (insert, probe, expire) = sut::slab_micro(&one_stream, spec::WINDOW);
    out.set("engine.slab.insert_ns", insert);
    out.set("engine.slab.probe_ns", probe);
    out.set("engine.slab.expire_ns", expire);
    let (evict, fault) = sut::cold_micro(&one_stream, 4 * spec::WINDOW, cold);
    out.set("engine.spill.evict_ns_per_entry", evict);
    out.set("engine.spill.fault_ns_per_entry", fault);
    let (hist, counter) = sut::telemetry_micro();
    out.set("telemetry.hist_record_ns", hist);
    out.set("telemetry.counter_add_ns", counter);
}

fn dump_spans(plan: &Plan, tr: &Tracer, out: &mut Outcome) {
    let path = plan
        .out_dir
        .join(format!("trace-{}.json", plan.workload.name));
    match std::fs::write(&path, tr.to_json()) {
        Ok(()) => out.info.push(("spans", tr.spans().len().to_string())),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    out.set("trace.coverage", tr.coverage());
}

/// A plain engine (no transition, no budget) warmed up and driven over the
/// same arrivals: what the workload's own mechanism costs is the difference.
fn baseline_drive(job: &Job, arr: &Arrivals, warm: usize, n: usize) -> Drive {
    let mut engine = Engine::new(job);
    let mut fold = OutputFold::new(0);
    let mut quiet = Tracer::new(false);
    drive(&mut engine, job, arr, 0..warm, &mut fold, &mut quiet, None);
    drive(&mut engine, job, arr, warm..n, &mut fold, &mut quiet, None)
}

/// The traced run of a synchronous workload: every per-layer metric.
fn per_layer_sync(plan: &Plan, out: &mut Outcome) {
    let w = plan.workload;
    let job = Job::fig9(spec::JOINS, spec::WINDOW);
    let sz = Sizes::of(plan);
    sz.info(out, w);
    let scratch = Scratch::new(&plan.out_dir);
    let n = sz.warm + sz.traced;
    let probe = spec::segment_tuples(w.paced_rate, plan.seconds, spec::PROBE_SHARE, BATCH);
    let migrating = w.kind == Kind::SyncMigrating;

    // Pass 1, spans off: outside timings and the program's own counters.
    let arr = gen::arrivals(plan.seed, n + probe, job.streams, w.keys);
    let (mut engine, mut fold) =
        warm_engine(plan, &job, &arr, sz.warm, 0, &scratch.0.join("cold-0"));
    let before = engine.counters();
    let mut migration = migrating.then(|| Migration::starting_at(sz.warm));
    let plain = drive(
        &mut engine,
        &job,
        &arr,
        sz.warm..n,
        &mut fold,
        &mut Tracer::new(false),
        migration.as_mut(),
    );
    let counters = engine.counters().since(&before);
    out.attempted = n as u64;
    out.fail(
        plain.refused,
        format!("untraced pass: {} offers refused", plain.refused),
    );
    let busy: u64 = plain.push_ns.iter().sum();
    out.set("core.adaptive.push_ns_per_tuple", plain.push_ns_per_tuple());
    out.set(
        "core.adaptive.push_p99_us",
        Sample::new(plain.push_ns.clone())
            .percentile(0.99)
            .map_or(0.0, ns_to_us),
    );
    let transition_ms: Vec<f64> = plain
        .transition_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    out.set("core.adaptive.transition_ms_p50", median(&transition_ms));
    report_engine_layers(out, &counters, sz.traced, busy as f64);

    // The paced probe continues on this engine: how late the generator runs.
    let mut target = PacedEngine {
        engine: &mut engine,
        job: &job,
        arr: &arr,
        first: n,
        fold: &mut fold,
        migration: migration.as_mut(),
        refused: 0,
    };
    let paced = pacer::run_paced(
        &mut WallClock::spinning(),
        probe / BATCH,
        BATCH,
        w.paced_rate,
        &mut target,
    );
    report_client(out, &paced);
    drop(engine);

    // Pass 2, spans on, a fresh engine on the same inputs.
    let (mut engine, mut fold) =
        warm_engine(plan, &job, &arr, sz.warm, 0, &scratch.0.join("cold-1"));
    let mut tr = Tracer::new(true);
    let mut migration = migrating.then(|| Migration::starting_at(sz.warm).polling());
    let with_spans = drive(
        &mut engine,
        &job,
        &arr,
        sz.warm..n,
        &mut fold,
        &mut tr,
        migration.as_mut(),
    );
    drop(engine);
    out.set(
        "trace.overhead_share",
        with_spans.wall_ns as f64 / plain.wall_ns as f64 - 1.0,
    );
    let to_complete: Vec<f64> = with_spans
        .tuples_to_complete
        .iter()
        .map(|&t| t as f64)
        .collect();
    out.set("core.jisc.tuples_to_all_complete_p50", median(&to_complete));
    dump_spans(plan, &tr, out);
    drop(tr);

    // Pass 3: the same arrivals without the workload's own mechanism.
    if w.kind != Kind::Sync {
        let base = baseline_drive(&job, &arr, sz.warm, n);
        let share = 1.0 - base.push_ns_per_tuple() / plain.push_ns_per_tuple();
        let name = if migrating {
            "core.jisc.migration_overhead_share"
        } else {
            "engine.spill.overhead_share"
        };
        out.set(name, share);
    }
    report_isolated_layers(out, &arr, &scratch.0.join("cold-micro"));
}

/// One pass of the router replica over `order`, spans on or off.
fn drive_replica(
    job: &Job,
    inputs: &ShardedInputs,
    warm: usize,
    tr: &mut Tracer,
) -> (u64, Replica, OutputFold, Counters) {
    let mut replica = Replica::new(
        job,
        spec::SHARDS,
        spec::LATENESS_BOUND,
        spec::WATERMARK_EVERY,
    );
    let mut quiet = Tracer::new(false);
    for (b, r) in batches(0..warm).enumerate() {
        replica.offer_chunk(&inputs.arr, &inputs.order, r, &mut quiet, b as u32);
    }
    let mut fold = OutputFold::new(0);
    let before = replica.counters();
    let t0 = Instant::now();
    let root = tr.enter(span::LOOP, 0);
    for (b, r) in batches(warm..inputs.order.len()).enumerate() {
        replica.offer_chunk(&inputs.arr, &inputs.order, r, tr, b as u32);
    }
    replica.finish(tr, &mut fold);
    tr.exit(root);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let counters = replica.counters().since(&before);
    (wall_ns, replica, fold, counters)
}

/// The traced run of `sharded`: a black-box run for what only the real
/// runtime can show, then the replica for the stages inside it.
fn per_layer_sharded(plan: &Plan, out: &mut Outcome) {
    let w = plan.workload;
    let job = Job::fig9(spec::JOINS, spec::WINDOW);
    let sz = Sizes::of(plan);
    sz.info(out, w);
    let scratch = Scratch::new(&plan.out_dir);
    let n = sz.warm + sz.traced;
    let t = sz.traced as f64;

    // The black box: push wall, finish wall, and what the report counts.
    let (inputs, mut exec, warm_refused) = set_up_sharded(plan, &job, sz.warm, n);
    let t0 = Instant::now();
    let refused = warm_refused + offer_ordered(&mut exec, &inputs.arr, &inputs.order[sz.warm..]);
    let push_s = t0.elapsed().as_secs_f64();
    let mut black_fold = OutputFold::new(0);
    let outcome = exec.finish(&mut black_fold);
    let total_s = t0.elapsed().as_secs_f64();
    out.attempted = n as u64;
    out.fail(refused, format!("black-box run: {refused} offers refused"));
    let measured = t / total_s;
    out.set("runtime.shard.push_ns_per_tuple", push_s * 1e9 / t);
    out.set("runtime.shard.finish_ms", (total_s - push_s) * 1e3);
    let Some(o) = outcome else {
        out.fail(n as u64, "the sharded run failed to finish".into());
        return;
    };
    let mean = o.shard_events.iter().sum::<u64>() as f64 / o.shard_events.len() as f64;
    let max = o.shard_events.iter().copied().max().unwrap_or(0) as f64;
    out.set("runtime.shard.skew", max / mean);
    out.set("runtime.shard.peak_queue_depth", o.peak_queue_depth as f64);
    out.set("runtime.shard.checkpoints", o.checkpoints as f64);
    out.set("runtime.shard.replayed_tuples", o.replayed_tuples as f64);
    out.set("runtime.supervisor.apply_p50_us", ns_to_us(o.apply_p50_ns));
    out.set("runtime.supervisor.apply_p99_us", ns_to_us(o.apply_p99_ns));
    out.set(
        "engine.lateness.late_admitted_share",
        o.late_admitted as f64 / n as f64,
    );
    out.set(
        "engine.lateness.dropped_share",
        o.dropped_late as f64 / n as f64,
    );

    // The replica, spans off then on.
    let (plain_ns, _, plain_fold, _) =
        drive_replica(&job, &inputs, sz.warm, &mut Tracer::new(false));
    let mut tr = Tracer::new(true);
    let (traced_ns, replica, _, counters) = drive_replica(&job, &inputs, sz.warm, &mut tr);
    // The replica's gate keeps its last few tuples where the router's is
    // flushed, so only the results up to there can be compared: none may be
    // missing from the real run.
    out.fail(
        (plain_fold.count > black_fold.count) as u64,
        format!(
            "replica emitted {} results, the runtime {}",
            plain_fold.count, black_fold.count
        ),
    );
    out.fail(
        replica.failed_offers,
        format!("replica: {} batches refused", replica.failed_offers),
    );
    out.set(
        "trace.overhead_share",
        traced_ns as f64 / plain_ns as f64 - 1.0,
    );
    let per_tuple = |name: &str| tr.self_ns(name) as f64 / t;
    let handoffs = tr
        .layer_times()
        .iter()
        .find(|l| l.name == stage::HANDOFF)
        .map_or(1, |l| l.calls);
    out.set(
        "engine.lateness.offer_ns_per_tuple",
        per_tuple(stage::OFFER),
    );
    out.set(
        "common.partition.route_ns_per_tuple",
        per_tuple(stage::ROUTE),
    );
    out.set(
        "common.columnar.stage_ns_per_tuple",
        per_tuple(stage::STAGE),
    );
    out.set(
        "runtime.chan.handoff_ns_per_batch",
        tr.self_ns(stage::HANDOFF) as f64 / handoffs as f64,
    );
    out.set("replica.engine_ns_per_tuple", per_tuple(stage::ENGINE));
    out.set(
        "engine.output.merge_ns_per_output",
        tr.self_ns(stage::MERGE) as f64 / plain_fold.count.max(1) as f64,
    );
    out.set("core.adaptive.push_ns_per_tuple", per_tuple(stage::ENGINE));
    report_engine_layers(out, &counters, sz.traced, tr.self_ns(stage::ENGINE) as f64);
    dump_spans(plan, &tr, out);

    // The model: do the stages the replica sees explain the black box?
    let router_ns = per_tuple(stage::OFFER)
        + per_tuple(stage::ROUTE)
        + per_tuple(stage::STAGE)
        + per_tuple(stage::HANDOFF);
    let shard_share = replica.shard_tuples.iter().copied().max().unwrap_or(0) as f64
        / replica.shard_tuples.iter().sum::<u64>().max(1) as f64;
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let predicted = model::predicted_tuples_per_s(
        cores,
        router_ns,
        per_tuple(stage::ENGINE),
        shard_share,
        per_tuple(stage::MERGE),
    );
    let error = model::error_share(predicted, measured);
    out.set("model.predicted_tuples_per_s", predicted);
    out.set("model.error_share", error);
    if error > model::TOLERANCE {
        eprintln!(
            "warning: the replica's stages predict {predicted:.0} tuples/s, the runtime measured \
             {measured:.0}: {:.0} % of the run is unexplained by lateness gate, routing, staging, \
             hand-off, engines and merge — a stage is missing (replay log, checkpoints, \
             supervision and thread wake-ups are not in the replica)",
            error * 100.0
        );
    }
    drop(tr);
    drop(replica);

    // The single-thread baseline on the same arrivals in event-time order.
    let base = baseline_drive(&job, &inputs.arr, sz.warm, n);
    out.set("runtime.shard.speedup", measured / base.tuples_per_s());
    out.info.push((
        "speedup_base_tuples_per_s",
        format!("{:.1}", base.tuples_per_s()),
    ));

    // The paced probe: how late the generator runs against the real runtime.
    let probe = spec::segment_tuples(w.paced_rate, plan.seconds, spec::PROBE_SHARE, BATCH);
    let (inputs_b, mut exec_b, _) = set_up_sharded(plan, &job, sz.warm, sz.warm + probe);
    let mut target = PacedSharded {
        exec: &mut exec_b,
        arr: &inputs_b.arr,
        order: &inputs_b.order,
        first: sz.warm,
        refused: 0,
    };
    let paced = pacer::run_paced(
        &mut WallClock::yielding(),
        probe / BATCH,
        BATCH,
        w.paced_rate,
        &mut target,
    );
    exec_b.finish(&mut OutputFold::new(0));
    report_client(out, &paced);
    report_isolated_layers(out, &inputs.arr, &scratch.0.join("cold-micro"));
}

/// Run the plan's workload: the end-to-end metrics untraced, or the per-layer
/// metrics from the traced pass.
pub fn run(plan: &Plan, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    std::fs::create_dir_all(&plan.out_dir).expect("output directory is writable");
    match (plan.workload.kind, traced) {
        (Kind::Sharded, false) => end_to_end_sharded(plan, &mut out),
        (Kind::Sharded, true) => per_layer_sharded(plan, &mut out),
        (_, false) => end_to_end_sync(plan, &mut out),
        (_, true) => per_layer_sync(plan, &mut out),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_difference_counts_both_sides_and_multiplicity() {
        assert_eq!(multiset_difference(&mut [3, 1, 2], &mut [2, 3, 1]), 0);
        assert_eq!(multiset_difference(&mut [1, 1, 2], &mut [1, 2]), 1);
        assert_eq!(multiset_difference(&mut [1, 2], &mut [3, 4, 5]), 5);
        assert_eq!(multiset_difference(&mut [], &mut [7]), 1);
    }

    #[test]
    fn batches_cover_a_range_in_whole_and_one_short_step() {
        let b: Vec<_> = batches(10..150).collect();
        assert_eq!(b, vec![10..74, 74..138, 138..150]);
    }

    #[test]
    fn migration_fires_on_schedule_and_alternates() {
        let job = Job::fig9(2, 10);
        let mut e = Engine::new(&job);
        let mut m = Migration::starting_at(100);
        assert!(!m.due(64) && m.due(128));
        assert!(
            m.fire(128, &mut e, &job),
            "the engine accepts the worst-case plan"
        );
        assert_eq!(
            (m.next_at, m.to_target, m.completing_since),
            (100 + spec::WARMUP, false, Some(128))
        );
        assert!(!m.due(192));
    }
}
