//! The traced run's span recorder and its self-time attribution.
//!
//! Spans are recorded by the benchmark around the public calls it makes
//! into each layer: layer, parent span, operation id, thread, start and
//! end. They stay in memory and are written out once the run ends.
//!
//! A layer's self time is its span minus the part its child spans cover.
//! Where the benchmark runs several threads at once (the parallel band
//! build, fanned over the engine's workers), each instant of wall time is
//! shared equally among the threads doing work at that instant, so the
//! layer times of a run add up to the wall time its spans cover.
//!
//! Some calls are opaque: `LocalShard::ingest_all` hashes seeds, updates
//! the bottom-k heap and re-registers band signatures in one call. Such a
//! call is split by *replaying* its inner public calls on identical
//! inputs right after it and *carving* the replayed times out of the
//! call's self time (see [`Tracer::carve`]). Replays, correctness checks
//! and input generation are timed and kept out of the wall time coverage
//! is judged on.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Every layer a span or a carve can be charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    StoreIngest,
    StoreEvict,
    StoreQuery,
    StoreFetch,
    StoreLive,
    StoreBuild,
    StoreShard,
    StoreRemote,
    CoordSeed,
    CoordBottomK,
    CoordSnapshot,
    CoordWireEncode,
    CoordWireDecode,
    CoordSource,
    EngineQuery,
    EngineVerify,
    BandHash,
    BandRegister,
    BandSnapshot,
    BandMerge,
    BandExtract,
    BandLive,
    BandProbe,
    JoinDriver,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 24;

impl Layer {
    pub const ALL: [Layer; LAYERS] = [
        Layer::StoreIngest,
        Layer::StoreEvict,
        Layer::StoreQuery,
        Layer::StoreFetch,
        Layer::StoreLive,
        Layer::StoreBuild,
        Layer::StoreShard,
        Layer::StoreRemote,
        Layer::CoordSeed,
        Layer::CoordBottomK,
        Layer::CoordSnapshot,
        Layer::CoordWireEncode,
        Layer::CoordWireDecode,
        Layer::CoordSource,
        Layer::EngineQuery,
        Layer::EngineVerify,
        Layer::BandHash,
        Layer::BandRegister,
        Layer::BandSnapshot,
        Layer::BandMerge,
        Layer::BandExtract,
        Layer::BandLive,
        Layer::BandProbe,
        Layer::JoinDriver,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::StoreIngest => "store.ingest",
            Layer::StoreEvict => "store.evict",
            Layer::StoreQuery => "store.query",
            Layer::StoreFetch => "store.fetch",
            Layer::StoreLive => "store.live",
            Layer::StoreBuild => "store.build",
            Layer::StoreShard => "store.shard",
            Layer::StoreRemote => "store.remote",
            Layer::CoordSeed => "coord.seed",
            Layer::CoordBottomK => "coord.bottomk",
            Layer::CoordSnapshot => "coord.bottomk.snapshot",
            Layer::CoordWireEncode => "coord.wire.encode",
            Layer::CoordWireDecode => "coord.wire.decode",
            Layer::CoordSource => "coord.source",
            Layer::EngineQuery => "engine.query",
            Layer::EngineVerify => "engine.verify",
            Layer::BandHash => "store.banding.hash",
            Layer::BandRegister => "store.banding.register",
            Layer::BandSnapshot => "store.banding.snapshot",
            Layer::BandMerge => "store.banding.merge",
            Layer::BandExtract => "store.banding.extract",
            Layer::BandLive => "store.banding.live",
            Layer::BandProbe => "store.banding.probe",
            Layer::JoinDriver => "join.driver",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    parent: u32,
    op: u32,
    thread: u16,
    start_ns: u64,
    end_ns: u64,
}

/// Where a new span hangs: its parent span, operation and thread.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    span: u32,
    op: u32,
    thread: u16,
}

/// The in-memory span log of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    carves: Mutex<Vec<(u32, Layer, u64)>>,
    replay_ns: AtomicU64,
    check_ns: AtomicU64,
    input_ns: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// Runs `f` and returns its result with its duration in nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            carves: Mutex::new(Vec::new()),
            replay_ns: AtomicU64::new(0),
            check_ns: AtomicU64::new(0),
            input_ns: AtomicU64::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open<R>(
        &self,
        layer: Layer,
        parent: u32,
        op: u32,
        thread: u16,
        f: impl FnOnce(Ctx) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("span log lock");
            spans.push(Span {
                layer,
                parent,
                op,
                thread,
                start_ns: self.now(),
                end_ns: 0,
            });
            (spans.len() - 1) as u32
        };
        let out = f(Ctx {
            span: id,
            op,
            thread,
        });
        let end = self.now();
        self.spans.lock().expect("span log lock")[id as usize].end_ns = end;
        out
    }

    /// A top-level span on the client thread for operation `op`.
    pub fn root<R>(&self, layer: Layer, op: u32, f: impl FnOnce(Ctx) -> R) -> R {
        self.open(layer, NO_PARENT, op, 0, f)
    }

    /// A child span of `ctx` on the same thread.
    pub fn child<R>(&self, ctx: Ctx, layer: Layer, f: impl FnOnce(Ctx) -> R) -> R {
        self.open(layer, ctx.span, ctx.op, ctx.thread, f)
    }

    /// A child span of `ctx` running on another thread (`thread > 0`).
    pub fn child_on<R>(&self, ctx: Ctx, thread: u16, layer: Layer, f: impl FnOnce(Ctx) -> R) -> R {
        self.open(layer, ctx.span, ctx.op, thread, f)
    }

    /// Charges `ns` of the (already closed) span `ctx` to `layer`: the
    /// time a replay of the span's inner public calls took. Carved time
    /// leaves the span's own layer; if the carves exceed the span's self
    /// time they are scaled down to fit it.
    pub fn carve(&self, ctx: Ctx, layer: Layer, ns: u64) {
        if ns > 0 {
            self.carves
                .lock()
                .expect("carve log lock")
                .push((ctx.span, layer, ns));
        }
    }

    /// Runs a replay (measurement apparatus, kept out of the covered
    /// wall) and returns its result.
    pub fn replay<R>(&self, f: impl FnOnce() -> R) -> R {
        let (out, ns) = timed(f);
        self.replay_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    /// Generates benchmark inputs (kept out of the covered wall).
    pub fn input<R>(&self, f: impl FnOnce() -> R) -> R {
        let (out, ns) = timed(f);
        self.input_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    /// Runs a correctness check (kept out of the covered wall).
    pub fn check<R>(&self, f: impl FnOnce() -> R) -> R {
        let (out, ns) = timed(f);
        self.check_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    /// Seconds spent in replays, checks and input generation so far:
    /// the part of a traced run's wall no layer span is meant to cover.
    pub fn uncovered_secs(&self) -> f64 {
        (self.replay_ns.load(Ordering::Relaxed)
            + self.check_ns.load(Ordering::Relaxed)
            + self.input_ns.load(Ordering::Relaxed)) as f64
            / 1e9
    }

    /// Seconds spent in correctness checks so far: work an untraced run
    /// does not do, kept out of the tracing overhead.
    pub fn check_secs(&self) -> f64 {
        self.check_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Attributes every span's wall-share self time to its layer.
    pub fn attribute(&self) -> Attribution {
        let spans = self.spans.lock().expect("span log lock");
        let carves = self.carves.lock().expect("carve log lock");
        attribute(&spans, &carves)
    }

    /// Writes every span as one tab-separated line:
    /// `op thread layer parent start_ns end_ns`.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "op\tthread\tlayer\tparent\tstart_ns\tend_ns")?;
        for s in self.spans.lock().expect("span log lock").iter() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                s.thread,
                s.layer.name(),
                parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Per-layer outcome of [`Tracer::attribute`].
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Wall-share self seconds per layer, after carves.
    pub self_secs: [f64; LAYERS],
    /// Wall-share seconds per layer's own spans, before carves.
    pub span_secs: [f64; LAYERS],
    /// Spans recorded per layer.
    pub spans: [u64; LAYERS],
    /// Wall seconds covered by at least one span.
    pub covered_secs: f64,
}

impl Attribution {
    pub fn self_of(&self, layer: Layer) -> f64 {
        self.self_secs[layer.index()]
    }

    pub fn span_of(&self, layer: Layer) -> f64 {
        self.span_secs[layer.index()]
    }

    pub fn spans_of(&self, layer: Layer) -> u64 {
        self.spans[layer.index()]
    }

    pub fn total_self(&self) -> f64 {
        self.self_secs.iter().sum()
    }
}

fn attribute(spans: &[Span], carves: &[(u32, Layer, u64)]) -> Attribution {
    let n = spans.len();
    // Wall-share self time: sweep span boundaries in time order. Between
    // two boundaries, every thread whose innermost open span has no open
    // child (on any thread) is working; the interval is split equally
    // among those spans. A span whose children run elsewhere is waiting.
    let mut events: Vec<(u64, u8, u32)> = Vec::with_capacity(2 * n);
    for (i, s) in spans.iter().enumerate() {
        let i = i as u32;
        // At equal times: closes before opens; a child closes before its
        // parent (higher index first); a parent opens before its child.
        events.push((s.start_ns, 1, i));
        events.push((s.end_ns.max(s.start_ns), 0, u32::MAX - i));
    }
    events.sort_unstable();
    let threads = spans
        .iter()
        .map(|s| s.thread as usize + 1)
        .max()
        .unwrap_or(1);
    let mut stacks: Vec<Vec<u32>> = vec![Vec::new(); threads];
    let mut open_children = vec![0u32; n];
    let mut share = vec![0f64; n];
    let mut covered = 0f64;
    let mut prev = events.first().map_or(0, |e| e.0);
    for &(t, kind, key) in &events {
        let dt = (t - prev) as f64;
        if dt > 0.0 {
            let working: Vec<u32> = stacks
                .iter()
                .filter_map(|st| st.last().copied())
                .filter(|&top| open_children[top as usize] == 0)
                .collect();
            if stacks.iter().any(|st| !st.is_empty()) {
                covered += dt;
            }
            if !working.is_empty() {
                let each = dt / working.len() as f64;
                for top in working {
                    share[top as usize] += each;
                }
            }
        }
        prev = t;
        if kind == 1 {
            let i = key as usize;
            stacks[spans[i].thread as usize].push(key);
            if spans[i].parent != NO_PARENT {
                open_children[spans[i].parent as usize] += 1;
            }
        } else {
            let i = (u32::MAX - key) as usize;
            let stack = &mut stacks[spans[i].thread as usize];
            if let Some(pos) = stack.iter().rposition(|&x| x as usize == i) {
                stack.remove(pos);
            }
            if spans[i].parent != NO_PARENT {
                open_children[spans[i].parent as usize] -= 1;
            }
        }
    }

    // Thread-time self time (duration minus the union of the children's
    // intervals) is the base a span's carves are scaled against.
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push(i as u32);
        }
    }
    let mut carved: Vec<Vec<(Layer, u64)>> = vec![Vec::new(); n];
    for &(span, layer, ns) in carves {
        carved[span as usize].push((layer, ns));
    }

    let mut out = Attribution {
        self_secs: [0.0; LAYERS],
        span_secs: [0.0; LAYERS],
        spans: [0; LAYERS],
        covered_secs: covered / 1e9,
    };
    for (i, s) in spans.iter().enumerate() {
        let a = share[i] / 1e9;
        let li = s.layer.index();
        out.spans[li] += 1;
        out.span_secs[li] += a;
        let total_carve: u64 = carved[i].iter().map(|&(_, ns)| ns).sum();
        if total_carve == 0 {
            out.self_secs[li] += a;
            continue;
        }
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c as usize].start_ns, spans[c as usize].end_ns))
            .collect();
        iv.sort_unstable();
        let mut covered_by_children = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (lo, hi) in iv {
            match cur {
                Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                _ => {
                    if let Some((clo, chi)) = cur {
                        covered_by_children += chi - clo;
                    }
                    cur = Some((lo, hi));
                }
            }
        }
        if let Some((clo, chi)) = cur {
            covered_by_children += chi - clo;
        }
        let thread_self = (s.end_ns - s.start_ns).saturating_sub(covered_by_children);
        let denom = thread_self.max(total_carve) as f64;
        for &(layer, ns) in &carved[i] {
            out.self_secs[layer.index()] += a * ns as f64 / denom;
        }
        out.self_secs[li] += a * (1.0 - total_carve as f64 / denom);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, thread: u16, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            op: 0,
            thread,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_self_times_tile_the_root() {
        let spans = [
            span(Layer::StoreQuery, NO_PARENT, 0, 0, 100),
            span(Layer::StoreFetch, 0, 0, 10, 40),
            span(Layer::StoreShard, 1, 0, 20, 30),
            span(Layer::EngineQuery, 0, 0, 50, 90),
        ];
        let a = attribute(&spans, &[]);
        let ns = |l: Layer| (a.self_of(l) * 1e9).round();
        assert_eq!(ns(Layer::StoreQuery), 30.0);
        assert_eq!(ns(Layer::StoreFetch), 20.0);
        assert_eq!(ns(Layer::StoreShard), 10.0);
        assert_eq!(ns(Layer::EngineQuery), 40.0);
        assert_eq!((a.covered_secs * 1e9).round(), 100.0);
        assert!((a.total_self() - a.covered_secs).abs() < 1e-12);
    }

    #[test]
    fn parallel_children_share_the_wall_and_parent_waits() {
        // A fan-out parent on thread 0 waits while two workers run.
        let spans = [
            span(Layer::StoreBuild, NO_PARENT, 0, 0, 100),
            span(Layer::StoreShard, 0, 1, 0, 100),
            span(Layer::StoreShard, 0, 2, 0, 50),
        ];
        let a = attribute(&spans, &[]);
        assert_eq!((a.self_of(Layer::StoreBuild) * 1e9).round(), 0.0);
        assert_eq!((a.self_of(Layer::StoreShard) * 1e9).round(), 100.0);
        assert!((a.total_self() - a.covered_secs).abs() < 1e-12);
    }

    #[test]
    fn carves_move_self_time_and_never_exceed_it() {
        let spans = [span(Layer::StoreShard, NO_PARENT, 0, 0, 100)];
        let a = attribute(&spans, &[(0, Layer::CoordBottomK, 60)]);
        assert_eq!((a.self_of(Layer::StoreShard) * 1e9).round(), 40.0);
        assert_eq!((a.self_of(Layer::CoordBottomK) * 1e9).round(), 60.0);
        let b = attribute(
            &spans,
            &[(0, Layer::CoordBottomK, 150), (0, Layer::CoordSeed, 50)],
        );
        assert_eq!((b.self_of(Layer::StoreShard) * 1e9).round(), 0.0);
        assert_eq!((b.self_of(Layer::CoordBottomK) * 1e9).round(), 75.0);
        assert_eq!((b.self_of(Layer::CoordSeed) * 1e9).round(), 25.0);
        assert_eq!((b.span_of(Layer::StoreShard) * 1e9).round(), 100.0);
    }
}
