//! The lock-sharded tracer: spans, instant events, and the event ring.
//!
//! Recording is designed for the tuner's hot path: a span records one
//! `Instant` reading at creation and one at drop, then pushes a single
//! [`Event`] into one of [`N_SHARDS`] mutex-guarded bounded rings chosen
//! by the recording thread's track id — concurrent workers almost never
//! contend on the same shard. When a ring is full the oldest event is
//! dropped and counted, never blocking the recorder.

use crate::metrics::{CounterHandle, GaugeHandle, HistogramHandle, MetricsSnapshot, Registry};
use crate::window::WindowSpec;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Number of independent event rings; events hash to a shard by track id.
pub const N_SHARDS: usize = 16;

/// Event names and field keys: `&'static str` on the recording path (no
/// allocation), owned strings when a trace is reloaded from JSONL.
pub type Name = Cow<'static, str>;

/// A typed span/instant field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    I64(i64),
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl Field {
    /// The value as u64 if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Field::U64(v) => Some(v),
            Field::I64(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }
}

impl From<i64> for Field {
    fn from(v: i64) -> Self {
        Field::I64(v)
    }
}
impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}
impl From<u32> for Field {
    fn from(v: u32) -> Self {
        Field::U64(u64::from(v))
    }
}
impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}
impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}
impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}
impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}
impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}

/// Whether an event is a completed span or a zero-duration marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span with a measured duration.
    Span { dur_ns: u64 },
    /// A point-in-time marker (fault events, phase boundaries).
    Instant,
}

/// One recorded trace event. Timestamps are nanoseconds since the
/// tracer's creation epoch; `track` identifies the recording thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub name: Name,
    pub kind: EventKind,
    pub ts_ns: u64,
    pub track: u64,
    pub fields: Vec<(Name, Field)>,
}

impl Event {
    /// Span duration in nanoseconds; `None` for instant events.
    pub fn dur_ns(&self) -> Option<u64> {
        match self.kind {
            EventKind::Span { dur_ns } => Some(dur_ns),
            EventKind::Instant => None,
        }
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Field> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Everything a drain yields: events (sorted by start time), the
/// track-id → thread-name table, the count of events lost to ring
/// overflow, and a snapshot of the metrics registry.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    pub events: Vec<Event>,
    pub tracks: Vec<(u64, String)>,
    pub dropped: u64,
    pub metrics: MetricsSnapshot,
}

impl TraceData {
    /// The registered name for `track`, if any.
    pub fn track_name(&self, track: u64) -> Option<&str> {
        self.tracks
            .iter()
            .find(|(id, _)| *id == track)
            .map(|(_, n)| n.as_str())
    }
}

struct Shard {
    ring: VecDeque<Event>,
    dropped: u64,
}

struct Inner {
    /// Unique id for per-thread track registration (never reused, so a
    /// freed tracer's registration can't alias a new one's).
    id: u64,
    epoch: Instant,
    shard_cap: usize,
    shards: Vec<Mutex<Shard>>,
    tracks: Mutex<BTreeMap<u64, String>>,
    metrics: Registry,
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACK_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's process-wide track id (0 = not yet assigned).
    static TRACK: Cell<u64> = const { Cell::new(0) };
    /// Tracer ids this thread has already registered its track name with.
    static REGISTERED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn current_track(inner: &Inner) -> u64 {
    let tid = TRACK.with(|c| {
        let v = c.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TRACK_ID.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    });
    REGISTERED.with(|r| {
        let mut seen = r.borrow_mut();
        if !seen.contains(&inner.id) {
            seen.push(inner.id);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"));
            inner
                .tracks
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(tid, name);
        }
    });
    tid
}

fn push_event(inner: &Inner, ev: Event) {
    let idx = (ev.track as usize) % inner.shards.len();
    if let Some(shard) = inner.shards.get(idx) {
        let mut s = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if s.ring.len() >= inner.shard_cap {
            s.ring.pop_front();
            s.dropped += 1;
        }
        s.ring.push_back(ev);
    }
}

/// Cheap handle to a shared trace collector; `Clone` bumps an `Arc`.
/// [`Tracer::disabled`] is a `None` — every operation on it is a no-op
/// that takes no clock readings and allocates nothing.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// The no-op tracer: no allocation, no clock reads, nothing recorded.
    pub const fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer whose per-shard ring holds `shard_capacity`
    /// events (total capacity `shard_capacity * N_SHARDS`); on overflow
    /// the oldest events in the hot shard are dropped and counted.
    /// Metrics keep rolling-window deltas with the default
    /// [`WindowSpec`] (12 × 10s).
    pub fn ring(shard_capacity: usize) -> Self {
        Tracer::ring_with_windows(shard_capacity, WindowSpec::default())
    }

    /// Like [`Tracer::ring`] with an explicit rolling-window geometry;
    /// pass [`WindowSpec::disabled`] to keep lifetime metrics only.
    pub fn ring_with_windows(shard_capacity: usize, windows: WindowSpec) -> Self {
        let shards = (0..N_SHARDS)
            .map(|_| {
                Mutex::new(Shard {
                    ring: VecDeque::new(),
                    dropped: 0,
                })
            })
            .collect();
        let epoch = Instant::now();
        Tracer {
            inner: Some(Arc::new(Inner {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                epoch,
                shard_cap: shard_capacity.max(1),
                shards,
                tracks: Mutex::new(BTreeMap::new()),
                metrics: Registry::new(epoch, windows),
            })),
        }
    }

    /// Whether this tracer records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds from the tracer's epoch to `at` (0 when disabled). A
    /// caller that times an interval itself passes the `Instant` its
    /// duration runs from, so the recorded start and the duration share
    /// one clock read.
    pub fn ns_since_epoch(&self, at: Instant) -> u64 {
        match &self.inner {
            Some(inner) => at.duration_since(inner.epoch).as_nanos() as u64,
            None => 0,
        }
    }

    /// Starts an RAII span; it records when dropped or [`Span::finish`]ed.
    ///
    /// The recorded start and the instant the duration runs from come from
    /// one clock read, so a span's recorded end is exactly the instant it
    /// closed and a child never ends after the parent it closed inside.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            data: self.inner.as_ref().map(|inner| {
                let t0 = Instant::now();
                SpanData {
                    inner: Arc::clone(inner),
                    name,
                    start_ns: t0.duration_since(inner.epoch).as_nanos() as u64,
                    t0,
                    fields: Vec::new(),
                }
            }),
        }
    }

    /// Builds an instant event; it records when dropped or
    /// [`InstantEvent::emit`]ted.
    pub fn instant(&self, name: &'static str) -> InstantEvent {
        InstantEvent {
            data: self.inner.as_ref().map(|inner| InstantData {
                inner: Arc::clone(inner),
                name,
                fields: Vec::new(),
            }),
        }
    }

    /// Records an externally measured span (used by `PhaseTimer`, which
    /// owns the authoritative clock for phase walls): start time was
    /// `start_ns` (as returned by [`Tracer::ns_since_epoch`]) and it lasted
    /// `dur`.
    pub fn record_span(
        &self,
        name: &'static str,
        start_ns: u64,
        dur: Duration,
        fields: Vec<(Name, Field)>,
    ) {
        if let Some(inner) = &self.inner {
            push_event(
                inner,
                Event {
                    name: Cow::Borrowed(name),
                    kind: EventKind::Span {
                        dur_ns: dur.as_nanos() as u64,
                    },
                    ts_ns: start_ns,
                    track: current_track(inner),
                    fields,
                },
            );
        }
    }

    /// A counter handle (no-op when disabled). Handles are cheap clones
    /// of the registered atomic; fetch once and reuse in loops.
    pub fn counter(&self, name: &str) -> CounterHandle {
        match &self.inner {
            Some(inner) => inner.metrics.counter(name),
            None => CounterHandle::default(),
        }
    }

    /// A gauge handle (no-op when disabled).
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        match &self.inner {
            Some(inner) => inner.metrics.gauge(name),
            None => GaugeHandle::default(),
        }
    }

    /// A log2-bucketed histogram handle (no-op when disabled).
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        match &self.inner {
            Some(inner) => inner.metrics.histogram(name),
            None => HistogramHandle::default(),
        }
    }

    /// Snapshot of every registered metric (empty when disabled).
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Removes and returns all buffered events (sorted by start time,
    /// longer spans first on ties so parents precede children), plus the
    /// track table and a metrics snapshot. Tracks and metrics are
    /// cumulative — they survive the drain.
    pub fn drain(&self) -> TraceData {
        let Some(inner) = &self.inner else {
            return TraceData::default();
        };
        let mut events = Vec::new();
        let mut dropped = 0;
        for shard in &inner.shards {
            let mut s = shard.lock().unwrap_or_else(PoisonError::into_inner);
            events.extend(std::mem::take(&mut s.ring));
            dropped += s.dropped;
        }
        events.sort_by(|a, b| {
            a.ts_ns
                .cmp(&b.ts_ns)
                .then_with(|| b.dur_ns().unwrap_or(0).cmp(&a.dur_ns().unwrap_or(0)))
        });
        let tracks = inner
            .tracks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(id, name)| (*id, name.clone()))
            .collect();
        TraceData {
            events,
            tracks,
            dropped,
            metrics: inner.metrics.snapshot(),
        }
    }
}

struct SpanData {
    inner: Arc<Inner>,
    name: &'static str,
    start_ns: u64,
    t0: Instant,
    fields: Vec<(Name, Field)>,
}

/// RAII span guard. Records a [`EventKind::Span`] event on drop (or
/// explicit [`Span::finish`]); disabled spans do nothing at all.
#[must_use = "binding a span to `_` drops it immediately; use `let _span = ...`"]
pub struct Span {
    data: Option<SpanData>,
}

impl Span {
    /// Attaches a field (builder style).
    pub fn with(mut self, key: &'static str, value: impl Into<Field>) -> Self {
        self.add(key, value);
        self
    }

    /// Attaches a field after creation (e.g. an outcome known at the end).
    pub fn add(&mut self, key: &'static str, value: impl Into<Field>) {
        if let Some(d) = self.data.as_mut() {
            d.fields.push((Cow::Borrowed(key), value.into()));
        }
    }

    /// Ends the span now and returns the measured duration
    /// ([`Duration::ZERO`] when disabled).
    pub fn finish(mut self) -> Duration {
        match self.data.take() {
            Some(d) => record_span_data(d),
            None => Duration::ZERO,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(d) = self.data.take() {
            record_span_data(d);
        }
    }
}

fn record_span_data(d: SpanData) -> Duration {
    let dur = d.t0.elapsed();
    let track = current_track(&d.inner);
    push_event(
        &d.inner,
        Event {
            name: Cow::Borrowed(d.name),
            kind: EventKind::Span {
                dur_ns: dur.as_nanos() as u64,
            },
            ts_ns: d.start_ns,
            track,
            fields: d.fields,
        },
    );
    dur
}

struct InstantData {
    inner: Arc<Inner>,
    name: &'static str,
    fields: Vec<(Name, Field)>,
}

/// Builder for a zero-duration marker; records on drop or
/// [`InstantEvent::emit`].
#[must_use = "an instant event records when dropped; call .emit() to record now"]
pub struct InstantEvent {
    data: Option<InstantData>,
}

impl InstantEvent {
    /// Attaches a field (builder style).
    pub fn with(mut self, key: &'static str, value: impl Into<Field>) -> Self {
        if let Some(d) = self.data.as_mut() {
            d.fields.push((Cow::Borrowed(key), value.into()));
        }
        self
    }

    /// Records the event now.
    pub fn emit(self) {
        drop(self);
    }
}

impl Drop for InstantEvent {
    fn drop(&mut self) {
        if let Some(d) = self.data.take() {
            let ts_ns = d.inner.epoch.elapsed().as_nanos() as u64;
            let track = current_track(&d.inner);
            push_event(
                &d.inner,
                Event {
                    name: Cow::Borrowed(d.name),
                    kind: EventKind::Instant,
                    ts_ns,
                    track,
                    fields: d.fields,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _span = t.span("x").with("k", 1u64);
            t.instant("i").with("k", 2u64).emit();
        }
        t.counter("c").inc();
        let data = t.drain();
        assert!(data.events.is_empty());
        assert!(data.tracks.is_empty());
        assert_eq!(t.ns_since_epoch(Instant::now()), 0);
        assert_eq!(t.span("y").finish(), Duration::ZERO);
    }

    #[test]
    fn span_records_name_fields_and_duration() {
        let t = Tracer::ring(64);
        {
            let _span = t
                .span("gptune.test.op")
                .with("n", 256usize)
                .with("ok", true)
                .with("what", "fit");
            std::thread::sleep(Duration::from_millis(5));
        }
        let data = t.drain();
        assert_eq!(data.events.len(), 1);
        let ev = &data.events[0];
        assert_eq!(ev.name, "gptune.test.op");
        assert!(ev.dur_ns().unwrap() >= 1_000_000);
        assert_eq!(ev.field("n"), Some(&Field::U64(256)));
        assert_eq!(ev.field("ok"), Some(&Field::Bool(true)));
        assert_eq!(ev.field("what"), Some(&Field::Str("fit".into())));
        // Track registered with this thread's name or a fallback.
        assert!(data.track_name(ev.track).is_some());
    }

    #[test]
    fn instant_and_record_span_land_on_timeline() {
        let t = Tracer::ring(64);
        let start = t.ns_since_epoch(Instant::now());
        t.instant("gptune.test.fault").with("job", 3u64).emit();
        t.record_span(
            "gptune.test.phase",
            start,
            Duration::from_micros(1500),
            vec![(Cow::Borrowed("iteration"), Field::U64(2))],
        );
        let data = t.drain();
        assert_eq!(data.events.len(), 2);
        let phase = data
            .events
            .iter()
            .find(|e| e.name == "gptune.test.phase")
            .unwrap();
        assert_eq!(phase.dur_ns(), Some(1_500_000));
        assert_eq!(phase.ts_ns, start);
        let fault = data
            .events
            .iter()
            .find(|e| e.name == "gptune.test.fault")
            .unwrap();
        assert_eq!(fault.kind, EventKind::Instant);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        // All events from one thread land in one shard, so shard_cap
        // bounds what we keep.
        let t = Tracer::ring(4);
        for i in 0..10u64 {
            t.span("e").with("i", i).finish();
        }
        let data = t.drain();
        assert_eq!(data.events.len(), 4, "ring keeps only the newest 4");
        assert_eq!(data.dropped, 6, "six oldest events dropped");
        let kept: Vec<u64> = data
            .events
            .iter()
            .map(|e| e.field("i").and_then(Field::as_u64).unwrap())
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "wraparound keeps newest events");
        // A second drain starts empty but keeps the drop count history.
        let again = t.drain();
        assert!(again.events.is_empty());
    }

    #[test]
    fn worker_threads_get_their_own_named_tracks() {
        let t = Tracer::ring(64);
        t.span("on-main").finish();
        let t2 = t.clone();
        std::thread::Builder::new()
            .name("gptune-worker-0".into())
            .spawn(move || {
                t2.span("on-worker").finish();
            })
            .unwrap()
            .join()
            .unwrap();
        let data = t.drain();
        assert_eq!(data.events.len(), 2);
        let worker = data.events.iter().find(|e| e.name == "on-worker").unwrap();
        let main = data.events.iter().find(|e| e.name == "on-main").unwrap();
        assert_ne!(worker.track, main.track);
        assert_eq!(data.track_name(worker.track), Some("gptune-worker-0"));
    }

    #[test]
    fn nested_children_never_end_after_their_parent() {
        // Several threads on a small machine get preempted between clock
        // reads now and then; a span whose start and duration origin were
        // two reads could then record an end before its child's.
        let t = Tracer::ring(1 << 14);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..4000u64 {
                        let parent = t.span("parent").with("i", i);
                        t.span("child").with("i", i).finish();
                        drop(parent);
                    }
                });
            }
        });
        let data = t.drain();
        assert_eq!(data.dropped, 0);
        let mut parents: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
        for e in data.events.iter().filter(|e| e.name == "parent") {
            let i = e.field("i").and_then(Field::as_u64).unwrap();
            parents.insert((e.track, i), (e.ts_ns, e.ts_ns + e.dur_ns().unwrap()));
        }
        let mut children = 0;
        for e in data.events.iter().filter(|e| e.name == "child") {
            let i = e.field("i").and_then(Field::as_u64).unwrap();
            let (p_start, p_end) = parents[&(e.track, i)];
            let end = e.ts_ns + e.dur_ns().unwrap();
            assert!(e.ts_ns >= p_start, "child {i} starts before its parent");
            assert!(
                end <= p_end,
                "child {i} ends {} ns after its parent",
                end - p_end
            );
            children += 1;
        }
        assert_eq!(children, 16_000);
    }

    #[test]
    fn drain_sorts_by_start_time_parents_first() {
        let t = Tracer::ring(64);
        t.record_span("child", 100, Duration::from_nanos(10), Vec::new());
        t.record_span("parent", 100, Duration::from_nanos(50), Vec::new());
        t.record_span("earlier", 20, Duration::from_nanos(5), Vec::new());
        let data = t.drain();
        let names: Vec<&str> = data.events.iter().map(|e| e.name.as_ref()).collect();
        assert_eq!(names, vec!["earlier", "parent", "child"]);
    }
}
