//! Spans recorded from the benchmark's side of each layer boundary, plus
//! the two taps the traced construct run needs: a [`PhaseEngine`] wrapper
//! that times each protocol stage, and a [`RoundObserver`] that counts
//! executed rounds and their active sets.
//!
//! Spans stay in memory until the run ends, then go to one JSON-lines
//! file. Untraced runs create no spans at all.

use nas_congest::{RoundInfo, RoundObserver, RunHooks, RunStats};
use nas_core::algo1::PopularityInfo;
use nas_core::interconnect::Interconnection;
use nas_core::supercluster::Superclustering;
use nas_core::{CongestEngine, PhaseEngine};
use nas_graph::Graph;
use nas_par::WorkerPool;
use nas_ruling::{RulingParams, RulingSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed interval. Spans of one build or one request share `id`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// An in-memory span store; times are offsets from its creation.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records an interval that has already been measured; returns its
    /// index for use as a parent.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            id,
            parent,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, id: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.epoch.elapsed();
    }

    pub fn duration(&self, span: usize) -> Duration {
        let s = &self.spans[span];
        s.end.saturating_sub(s.start)
    }

    /// A span's self time: its duration minus the part of it that its
    /// children cover (overlapping children are counted once).
    pub fn self_time(&self, span: usize) -> Duration {
        let mut children: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(|s| (s.start, s.end))
            .collect();
        children.sort();
        let (lo, hi) = (self.spans[span].start, self.spans[span].end);
        let mut covered = Duration::ZERO;
        let mut reach = lo;
        for (s, e) in children {
            let (s, e) = (s.max(reach), e.min(hi));
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        self.duration(span).saturating_sub(covered)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.id,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Counts what the simulator reports round by round.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundTap {
    pub executed: u64,
    pub skipped: u64,
    pub active_sum: u64,
}

impl RoundObserver for RoundTap {
    fn on_round(&mut self, info: RoundInfo) -> bool {
        self.executed += 1;
        self.active_sum += info.active as u64;
        true
    }

    fn on_rounds_skipped(&mut self, skipped: u64) -> bool {
        self.skipped += skipped;
        true
    }
}

/// The four protocol stages of a phase, in the order the phase loop calls
/// them.
pub const STAGES: [&str; 4] = ["algo1", "ruling", "supercluster", "interconnect"];

/// Wall time and simulator cost of one stage, summed over all phases.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTally {
    pub wall: Duration,
    pub rounds: u64,
    pub messages: u64,
}

/// A [`PhaseEngine`] that runs [`CongestEngine`] and records one span per
/// stage call. `build_with_engine` hands its engine hooks without a worker
/// pool, so the wrapper attaches its own pool (and its [`RoundTap`]) to the
/// hooks of every call; the phase loop's own observer is a silent no-op
/// there.
pub struct TracingEngine<'t> {
    inner: CongestEngine,
    pool: Option<Arc<WorkerPool>>,
    pub tap: RoundTap,
    pub stages: [StageTally; 4],
    tracer: &'t mut Tracer,
    build_id: u64,
    build_span: usize,
    phase: usize,
}

impl<'t> TracingEngine<'t> {
    pub fn new(
        pool: Option<Arc<WorkerPool>>,
        tracer: &'t mut Tracer,
        build_id: u64,
        build_span: usize,
    ) -> Self {
        TracingEngine {
            inner: CongestEngine::new(),
            pool,
            tap: RoundTap::default(),
            stages: [StageTally::default(); 4],
            tracer,
            build_id,
            build_span,
            phase: 0,
        }
    }

    fn traced<T>(
        &mut self,
        stage: usize,
        outer: &RunHooks<'_>,
        op: impl FnOnce(&mut CongestEngine, &mut RunHooks<'_>) -> T,
    ) -> T {
        let before = self.inner.stats();
        let start = Instant::now();
        let out = {
            let mut hooks = RunHooks {
                observer: Some(&mut self.tap),
                pool: self.pool.as_ref(),
                stopped: false,
                fast_forward: outer.fast_forward,
                compact: outer.compact.clone(),
            };
            op(&mut self.inner, &mut hooks)
        };
        let end = Instant::now();
        let after = self.inner.stats();
        let tally = &mut self.stages[stage];
        tally.wall += end - start;
        tally.rounds += after.rounds - before.rounds;
        tally.messages += after.messages - before.messages;
        self.tracer.record(
            format!("core.phase{}.{}", self.phase, STAGES[stage]),
            self.build_id,
            Some(self.build_span),
            start,
            end,
        );
        out
    }
}

impl PhaseEngine for TracingEngine<'_> {
    fn detect_popular(
        &mut self,
        g: &Graph,
        centers: &[usize],
        is_center: &[bool],
        deg: usize,
        delta: u64,
        hooks: &mut RunHooks<'_>,
    ) -> PopularityInfo {
        self.traced(0, hooks, |e, h| {
            e.detect_popular(g, centers, is_center, deg, delta, h)
        })
    }

    fn ruling_set(
        &mut self,
        g: &Graph,
        w: &[usize],
        params: RulingParams,
        hooks: &mut RunHooks<'_>,
    ) -> RulingSet {
        self.traced(1, hooks, |e, h| e.ruling_set(g, w, params, h))
    }

    fn supercluster(
        &mut self,
        g: &Graph,
        roots: &[usize],
        centers: &[usize],
        depth: u64,
        hooks: &mut RunHooks<'_>,
    ) -> Superclustering {
        self.traced(2, hooks, |e, h| e.supercluster(g, roots, centers, depth, h))
    }

    fn interconnect(
        &mut self,
        g: &Graph,
        info: &PopularityInfo,
        initiators: &[usize],
        deg: usize,
        delta: u64,
        hooks: &mut RunHooks<'_>,
    ) -> Interconnection {
        self.traced(3, hooks, |e, h| {
            e.interconnect(g, info, initiators, deg, delta, h)
        })
    }

    fn take_phase_rounds(&mut self) -> u64 {
        self.phase += 1;
        self.inner.take_phase_rounds()
    }

    fn stats(&self) -> RunStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new();
        let epoch = t.epoch;
        let at = |ms| epoch + Duration::from_millis(ms);
        let (a, b, c, d) = (at(0), at(100), at(10), at(40));
        let root = t.record("root", 1, None, a, b);
        t.record("child", 1, Some(root), c, d);
        // Overlaps the first child by 10 ms; that part counts once.
        t.record("child", 1, Some(root), at(30), at(60));
        // Another build's span is not a child.
        t.record("other", 2, None, at(20), at(90));
        assert_eq!(t.duration(root), Duration::from_millis(100));
        assert_eq!(t.self_time(root), Duration::from_millis(50));
    }
}
