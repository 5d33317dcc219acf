//! The traced drivers: the same program as the end-to-end passes, driven
//! one layer call at a time so each call gets a span, plus wrappers that
//! count or time what the program calls back into (priority compares,
//! circuit settlements, split decisions). Nothing here adds timing code
//! to the program; the replay counters it already keeps
//! (`ReplayStats`, `PipelineReport`, the hybrid's per-fabric stats) are
//! read after the run.

use crate::check::quantile;
use crate::e2e::Inputs;
use crate::spans::{Layer, Span, Spans};
use crate::workloads::{daemon_config, online, Workload};
use ocs_daemon::{parse_line, Daemon};
use ocs_model::{Coflow, Dur, Fabric, Reservation, ScheduleOutcome, Time};
use ocs_sim::{
    BackendKind, HybridBackend, HybridConfig, ReplayStats, SchedulingBackend, SettleHook,
    SettleVerdict, SunflowBackend,
};
use std::cell::Cell;
use std::cmp::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sunflow_core::{
    IntraScheduler, PriorityPolicy, ShortestFirst, SplitContext, SplitDecision, SplitPolicy,
    SunflowConfig,
};

/// A priority policy that counts the comparisons the stepper asks of it.
/// `sort` is the trait's default, built on the counted `compare`, which
/// is what the wrapped policy uses too.
struct CountingPolicy<'a, P> {
    inner: P,
    compares: &'a Cell<u64>,
}

impl<P: PriorityPolicy> PriorityPolicy for CountingPolicy<'_, P> {
    fn compare(&self, a: &Coflow, b: &Coflow, fabric: &Fabric) -> Ordering {
        self.compares.set(self.compares.get() + 1);
        self.inner.compare(a, b, fabric)
    }
}

/// The default settle hook (every circuit delivers in full), counting
/// settlements.
#[derive(Default)]
struct CountingSettle {
    settles: u64,
}

impl SettleHook for CountingSettle {
    fn on_settle(&mut self, _resv: &Reservation, available: Dur, _now: Time) -> SettleVerdict {
        self.settles += 1;
        SettleVerdict::full(available)
    }
}

/// What the split wrapper saw: one span per decision, and the evals the
/// policy reported.
#[derive(Default)]
struct SplitLog {
    spans: Vec<Span>,
    evals: u64,
}

/// Times every decision of the split policy handed to `HybridBackend`.
struct TimedSplit<'a> {
    inner: Box<dyn SplitPolicy + Send>,
    base: Instant,
    log: &'a Mutex<SplitLog>,
}

impl SplitPolicy for TimedSplit<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn split(&mut self, coflow: &Coflow, ctx: &SplitContext<'_>) -> SplitDecision {
        let start = Instant::now();
        let decision = self.inner.split(coflow, ctx);
        let end = Instant::now();
        let ns = |at: Instant| at.duration_since(self.base).as_nanos() as u64;
        let mut log = self.log.lock().expect("split log is never poisoned");
        log.evals += decision.evals;
        log.spans.push(Span {
            layer: Layer::Split,
            start: ns(start),
            end: ns(end),
        });
        decision
    }
}

/// One traced pass: its spans, outcomes and the per-layer numbers.
pub struct Traced {
    pub wall: Duration,
    pub spans: Spans,
    pub outcomes: Vec<ScheduleOutcome>,
    /// Submissions the program refused.
    pub refused: u64,
    /// Seconds inside the top-level layer spans.
    pub layers_s: f64,
    /// Per-layer metrics measured on this pass.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Gauges sampled after every engine event.
#[derive(Default)]
struct EngineGauges {
    active_max: usize,
    queued_max: usize,
    prt_len_max: usize,
    settles: u64,
}

/// Drive `backend` exactly as `run_backends_to_idle` drives a single
/// backend — submit everything, then poll for the next event and advance
/// to it until none is left, then drain — with a span around every call.
fn drive<B: SchedulingBackend>(
    backend: &mut B,
    coflows: &[Coflow],
    spans: &mut Spans,
    prt_len: impl Fn(&B) -> usize,
) -> (Vec<ScheduleOutcome>, u64, EngineGauges) {
    let mut refused = 0u64;
    for c in coflows {
        if spans
            .time(Layer::Submit, || backend.submit(c.clone()))
            .is_err()
        {
            refused += 1;
        }
    }
    let mut hook = CountingSettle::default();
    let mut gauges = EngineGauges::default();
    let mut stalls = 0u32;
    let mut last: Option<Time> = None;
    while let Some(t) = spans.time(Layer::Poll, || backend.next_event_time()) {
        let processed = spans.time(Layer::Advance, || backend.advance_to(t, &mut hook));
        gauges.active_max = gauges.active_max.max(backend.active_coflows());
        gauges.queued_max = gauges.queued_max.max(backend.queued_arrivals());
        gauges.prt_len_max = gauges.prt_len_max.max(prt_len(backend));
        // The engine's no-progress guard: a stuck backend fails the run
        // (its Coflows stay incomplete) instead of spinning.
        stalls = if processed == 0 && last == Some(t) {
            stalls + 1
        } else {
            0
        };
        if stalls >= 8 {
            break;
        }
        last = Some(t);
    }
    gauges.settles = hook.settles;
    let done = spans.time(Layer::Drain, || backend.drain_completions());
    (
        done.into_iter().map(|c| c.outcome).collect(),
        refused,
        gauges,
    )
}

/// The stepper's counters as per-layer metrics.
fn stepper_metrics(s: &ReplayStats, settles: u64, prt_len_max: usize) -> Vec<(&'static str, f64)> {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    vec![
        ("stepper.replan_s", s.reschedule_micros as f64 / 1e6),
        ("stepper.events", s.events as f64),
        ("stepper.coflows_rescheduled", s.coflows_rescheduled as f64),
        ("stepper.coflows_skipped", s.coflows_skipped as f64),
        (
            "stepper.skip_ratio",
            ratio(s.coflows_skipped, s.coflows_rescheduled + s.coflows_skipped),
        ),
        ("stepper.reservations_made", s.reservations_made as f64),
        ("stepper.reservations_reused", s.reservations_reused as f64),
        (
            "stepper.reuse_ratio",
            ratio(
                s.reservations_reused,
                s.reservations_reused + s.reservations_made,
            ),
        ),
        (
            "stepper.reservations_truncated",
            s.reservations_truncated as f64,
        ),
        ("stepper.delta_applied", s.delta_applied as f64),
        ("stepper.releases_visited", s.releases_visited as f64),
        ("stepper.demands_scanned", s.demands_scanned as f64),
        ("stepper.replan_segments", s.replan_segments as f64),
        ("stepper.parallel_replans", s.parallel_replans as f64),
        (
            "stepper.reservations_retired",
            s.reservations_retired as f64,
        ),
        ("stepper.settles", settles as f64),
        ("stepper.prt_len_max", prt_len_max as f64),
    ]
}

/// The engine-level metrics of a driven pass.
fn engine_metrics(spans: &Spans, g: &EngineGauges, compares: u64) -> Vec<(&'static str, f64)> {
    let events = spans.sorted_ns(Layer::Advance);
    vec![
        ("engine.submit_s", spans.seconds(Layer::Submit)),
        ("engine.poll_s", spans.seconds(Layer::Poll)),
        ("engine.advance_s", spans.seconds(Layer::Advance)),
        ("engine.event_p50_us", quantile(&events, 0.50) / 1e3),
        ("engine.event_p99_us", quantile(&events, 0.99) / 1e3),
        ("engine.event_max_ms", quantile(&events, 1.0) / 1e6),
        ("engine.active_max", g.active_max as f64),
        ("engine.queued_max", g.queued_max as f64),
        ("inter.compares", compares as f64),
    ]
}

/// Run the workload's path once, traced.
pub fn traced_pass(inputs: &Inputs) -> Traced {
    match inputs.workload {
        Workload::StreamDaemon => service_pass(inputs),
        Workload::FbHybrid => hybrid_pass(inputs),
        Workload::FbSunflow | Workload::StreamOffline => sunflow_pass(inputs),
    }
}

fn sunflow_pass(inputs: &Inputs) -> Traced {
    let fabric = inputs.workload.fabric();
    let compares = Cell::new(0u64);
    let policy = CountingPolicy {
        inner: ShortestFirst,
        compares: &compares,
    };
    let mut backend = SunflowBackend::new(&fabric, &online(), Box::new(policy));
    let base = Instant::now();
    let mut spans = Spans::new(base);
    let (outcomes, refused, gauges) = drive(&mut backend, &inputs.coflows, &mut spans, |b| {
        b.stepper().prt().iter_reservations().count()
    });
    let wall = base.elapsed();
    let stats = backend.stats().unwrap_or_default();
    let metrics = stepper_metrics(&stats, gauges.settles, gauges.prt_len_max);
    engine_pass(
        wall,
        spans,
        outcomes,
        refused,
        &gauges,
        compares.get(),
        metrics,
    )
}

/// Assemble a pass driven through [`drive`]: the engine metrics and the
/// time outside every engine call.
fn engine_pass(
    wall: Duration,
    spans: Spans,
    outcomes: Vec<ScheduleOutcome>,
    refused: u64,
    gauges: &EngineGauges,
    compares: u64,
    mut metrics: Vec<(&'static str, f64)>,
) -> Traced {
    metrics.extend(engine_metrics(&spans, gauges, compares));
    let layers_s = [Layer::Submit, Layer::Poll, Layer::Advance, Layer::Drain]
        .into_iter()
        .map(|l| spans.seconds(l))
        .sum::<f64>();
    metrics.push(("unattributed_s", wall.as_secs_f64() - layers_s));
    Traced {
        wall,
        spans,
        outcomes,
        refused,
        layers_s,
        metrics,
    }
}

fn hybrid_pass(inputs: &Inputs) -> Traced {
    let fabric = inputs.workload.fabric();
    let BackendKind::Hybrid {
        split,
        packet_bw_permille,
    } = inputs.workload.backend()
    else {
        unreachable!("fb_hybrid runs a hybrid selector")
    };
    // The configuration `BackendKind::build` gives the selector.
    let config = HybridConfig {
        online: online(),
        packet_bandwidth_fraction: packet_bw_permille as f64 / 1000.0,
        ..HybridConfig::default()
    };
    let compares = Cell::new(0u64);
    let policy = CountingPolicy {
        inner: ShortestFirst,
        compares: &compares,
    };
    let log = Mutex::new(SplitLog::default());
    let base = Instant::now();
    let timed = TimedSplit {
        inner: split.build(config.small_flow_threshold),
        base,
        log: &log,
    };
    let mut backend = HybridBackend::new(&fabric, &config, Box::new(policy), Box::new(timed))
        .expect("the selector's packet fraction is valid");
    let mut spans = Spans::new(base);
    let start = Instant::now();
    let (outcomes, refused, gauges) = drive(&mut backend, &inputs.coflows, &mut spans, |_| 0);
    let wall = start.elapsed();
    let circuit = backend.circuit_stats();
    let packet = backend.packet_stats();
    let merged = backend.stats().unwrap_or_default();
    drop(backend);
    let log = log.into_inner().expect("split log is never poisoned");
    let split_calls = log.spans.len();
    spans.extend(log.spans);

    let mut metrics = stepper_metrics(&circuit, gauges.settles, gauges.prt_len_max);
    // The hybrid splits each Coflow when it is admitted, inside an engine
    // advance.
    let split_s = spans.seconds(Layer::Split);
    let circuit_s = circuit.reschedule_micros as f64 / 1e6;
    let packet_s = packet.reschedule_micros as f64 / 1e6;
    metrics.extend([
        ("split.calls", split_calls as f64),
        ("split.s", split_s),
        ("split.evals", log.evals as f64),
        ("split.subflows_split", merged.subflows_split as f64),
        ("split.bytes_to_packet", merged.bytes_to_packet as f64),
        ("packet.events", packet.events as f64),
        ("packet.rerate_s", packet_s),
        ("hybrid.circuit_replan_s", circuit_s),
        (
            "hybrid.unattributed_s",
            spans.seconds(Layer::Advance) - split_s - circuit_s - packet_s,
        ),
    ]);
    engine_pass(
        wall,
        spans,
        outcomes,
        refused,
        &gauges,
        compares.get(),
        metrics,
    )
}

/// What the sequential service driver saw.
struct ServiceReplay {
    outcomes: Vec<ScheduleOutcome>,
    lines: usize,
    parse_errors: u64,
    rejects: u64,
    stats: ReplayStats,
}

/// The daemon's layers driven sequentially: batches of `batch_max`
/// lines, each line parsed and submitted, then one advance per batch to
/// the stream clock, then the graceful drain — the admission loop of
/// `run_pipelined` without its reader and writer threads.
fn replay_service(jsonl: &str, batch_max: usize, spans: &mut Spans) -> ServiceReplay {
    let mut daemon = Daemon::new(&daemon_config());
    let lines: Vec<&str> = jsonl
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut parse_errors = 0u64;
    let mut rejects = 0u64;
    let mut stream_clock = daemon.now();
    for batch in lines.chunks(batch_max.max(1)) {
        for line in batch {
            let Ok(spec) = spans.time(Layer::Parse, || parse_line(line)) else {
                parse_errors += 1;
                continue;
            };
            if let Some(ms) = spec.arrival_ms {
                stream_clock = stream_clock.max(Time::from_millis(ms));
            }
            let coflow = spec.to_coflow(stream_clock);
            if spans
                .time(Layer::ServiceSubmit, || daemon.submit(coflow))
                .is_err()
            {
                rejects += 1;
            }
        }
        if stream_clock > daemon.now() {
            spans.time(Layer::ServiceAdvance, || daemon.advance_to(stream_clock));
        }
    }
    spans.time(Layer::ServiceAdvance, || daemon.drain());
    ServiceReplay {
        outcomes: daemon
            .completions()
            .iter()
            .map(|c| c.outcome.clone())
            .collect(),
        lines: lines.len(),
        parse_errors,
        rejects,
        stats: daemon.stats(),
    }
}

fn service_pass(inputs: &Inputs) -> Traced {
    let jsonl = inputs.jsonl.as_deref().expect("daemon inputs carry JSONL");
    let batch_max = crate::workloads::pipeline_config().batch_max;
    let base = Instant::now();
    let mut spans = Spans::new(base);
    let run = replay_service(jsonl, batch_max, &mut spans);
    let wall = base.elapsed();

    let submits = spans.sorted_ns(Layer::ServiceSubmit);
    let advances = spans.sorted_ns(Layer::ServiceAdvance);
    let parse_s = spans.seconds(Layer::Parse);
    let layered =
        parse_s + spans.seconds(Layer::ServiceSubmit) + spans.seconds(Layer::ServiceAdvance);
    let mut metrics = stepper_metrics(&run.stats, 0, 0);
    metrics.extend([
        ("jsonl.lines", run.lines as f64),
        ("jsonl.errors", run.parse_errors as f64),
        (
            "jsonl.parse_ns_per_line",
            parse_s * 1e9 / run.lines.max(1) as f64,
        ),
        ("service.submit_ns_p50", quantile(&submits, 0.5)),
        ("service.advance_s", spans.seconds(Layer::ServiceAdvance)),
        ("service.advance_p99_ms", quantile(&advances, 0.99) / 1e6),
        ("service.rejects", run.rejects as f64),
        ("unattributed_s", wall.as_secs_f64() - layered),
    ]);
    Traced {
        wall,
        spans,
        outcomes: run.outcomes,
        refused: run.parse_errors + run.rejects,
        layers_s: layered,
        metrics,
    }
}

/// Algorithm 1 on each Coflow alone against an empty table: the p50 and
/// p99 planning time in microseconds.
pub fn intra_metrics(inputs: &Inputs) -> Vec<(&'static str, f64)> {
    let fabric = inputs.workload.fabric();
    let scheduler = IntraScheduler::new(&fabric, SunflowConfig::default());
    let mut us: Vec<f64> = inputs
        .coflows
        .iter()
        .map(|c| {
            let start = Instant::now();
            std::hint::black_box(scheduler.schedule(std::hint::black_box(c)));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    vec![
        ("intra.plan_us_p50", quantile(&us, 0.5)),
        ("intra.plan_us_p99", quantile(&us, 0.99)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::fingerprint;
    use ocs_sim::run_trace;

    fn small(workload: Workload, coflows: Vec<Coflow>) -> Inputs {
        let jsonl = (workload == Workload::StreamDaemon).then(|| ocs_workload::to_jsonl(&coflows));
        Inputs {
            workload,
            coflows,
            jsonl,
        }
    }

    /// The event-by-event traced driver replays exactly what `run_trace`
    /// does, for both offline backends.
    #[test]
    fn traced_driver_equals_run_trace() {
        let stream = crate::workloads::stream(7, 600);
        let fb: Vec<Coflow> = crate::workloads::fb_trace(7).into_iter().take(40).collect();
        for (workload, coflows) in [
            (Workload::StreamOffline, stream),
            (Workload::FbSunflow, fb.clone()),
            (Workload::FbHybrid, fb),
        ] {
            let inputs = small(workload, coflows);
            let fabric = workload.fabric();
            let mut backend = workload
                .backend()
                .build(&fabric, &online(), Box::new(ShortestFirst));
            let expected = run_trace(&inputs.coflows, backend.as_mut());
            let traced = traced_pass(&inputs);
            assert_eq!(traced.refused, 0);
            assert_eq!(
                fingerprint(&traced.outcomes),
                fingerprint(&expected),
                "{}",
                workload.name()
            );
            assert_eq!(inputs.check(&traced.outcomes).failed, 0);
        }
    }

    /// The sequential service driver replays what `run_pipelined` does
    /// when both admit the same batches (one line per batch is the only
    /// batching the pipeline keeps regardless of thread timing).
    #[test]
    fn service_driver_equals_pipelined_daemon() {
        let inputs = small(Workload::StreamDaemon, crate::workloads::stream(11, 800));
        let jsonl = inputs.jsonl.as_deref().unwrap();
        let mut daemon = Daemon::new(&daemon_config());
        let config = ocs_daemon::PipelineConfig {
            batch_max: 1,
            ..crate::workloads::pipeline_config()
        };
        let report = ocs_daemon::run_pipelined(
            &mut daemon,
            jsonl.as_bytes(),
            None::<&mut std::io::Sink>,
            &config,
        )
        .unwrap();
        assert_eq!((report.accepted, report.lost_acks()), (800, 0));
        let pipelined: Vec<ScheduleOutcome> = daemon
            .completions()
            .iter()
            .map(|c| c.outcome.clone())
            .collect();
        let sequential = replay_service(jsonl, 1, &mut Spans::new(Instant::now()));
        assert_eq!(sequential.rejects + sequential.parse_errors, 0);
        assert_eq!(fingerprint(&sequential.outcomes), fingerprint(&pipelined));
    }

    /// The daemon path replays the stream byte for byte as the offline
    /// replay does, however admission happens to batch it:
    /// `run_pipelined` admits 1 to `batch_max` lines per step depending on
    /// thread timing.
    #[test]
    fn daemon_path_equals_offline_replay() {
        let coflows = crate::workloads::stream(3, 20_000);
        let fabric = crate::workloads::stream_fabric();
        let mut backend = BackendKind::Sunflow.build(&fabric, &online(), Box::new(ShortestFirst));
        let offline = fingerprint(&run_trace(&coflows, backend.as_mut()));
        let jsonl = ocs_workload::to_jsonl(&coflows);
        let diverged: Vec<usize> = [1, 2, 3, 100, 255, 256]
            .into_iter()
            .filter(|&batch| {
                let run = replay_service(&jsonl, batch, &mut Spans::new(Instant::now()));
                fingerprint(&run.outcomes) != offline
            })
            .collect();
        assert!(
            diverged.is_empty(),
            "batch sizes whose schedule differs: {diverged:?}"
        );
    }
}
