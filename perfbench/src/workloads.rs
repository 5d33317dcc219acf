//! The four workloads: their inputs (made from the benchmark seed) and
//! the program configuration each one runs under.
//!
//! Every workload runs the shipped defaults of its path —
//! `OnlineConfig::default()` (so the replan-thread count resolves as the
//! program resolves it), the default shortest-first priority policy,
//! `DaemonConfig::default()` and `PipelineConfig::default()` — changing
//! only what the workload itself defines: the fabric, the backend
//! selector and, for the lossless daemon replay, `OnFull::Wait`.

use ocs_daemon::{DaemonConfig, OnFull, PipelineConfig};
use ocs_model::{Bandwidth, Coflow, Dur, Fabric};
use ocs_sim::{BackendKind, OnlineConfig};
use ocs_workload::{generate, generate_load, perturb_sizes, LoadgenConfig, SynthConfig};

/// Coflows in the `stream_*` workloads. Long enough that thousands of
/// future arrivals sit queued in the offline stepper; short enough that
/// one replay takes about a second.
pub const STREAM_COFLOWS: u64 = 20_000;

/// The hybrid selector of `fb_hybrid`: the solver split with a packet
/// network at a tenth of the link rate.
pub const HYBRID_SELECTOR: &str = "hybrid:solver:0.1";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FbSunflow,
    FbHybrid,
    StreamOffline,
    StreamDaemon,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FbSunflow,
        Workload::FbHybrid,
        Workload::StreamOffline,
        Workload::StreamDaemon,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FbSunflow => "fb_sunflow",
            Workload::FbHybrid => "fb_hybrid",
            Workload::StreamOffline => "stream_offline",
            Workload::StreamDaemon => "stream_daemon",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The fabric the workload's inputs are made for.
    pub fn fabric(self) -> Fabric {
        match self {
            Workload::FbSunflow | Workload::FbHybrid => Fabric::paper_default(),
            Workload::StreamOffline | Workload::StreamDaemon => stream_fabric(),
        }
    }

    /// The backend the workload replays through.
    pub fn backend(self) -> BackendKind {
        match self {
            Workload::FbHybrid => HYBRID_SELECTOR.parse().expect("valid hybrid selector"),
            _ => BackendKind::Sunflow,
        }
    }

    /// The workload's Coflows, made from `seed` alone.
    pub fn coflows(self, seed: u64) -> Vec<Coflow> {
        match self {
            Workload::FbSunflow | Workload::FbHybrid => fb_trace(seed),
            Workload::StreamOffline | Workload::StreamDaemon => stream(seed, STREAM_COFLOWS),
        }
    }
}

/// The paper's FB-like trace (526 Coflows, 150 ports, one hour of
/// arrivals) with its ±5 % flow-size perturbation drawn from `seed`.
pub fn fb_trace(seed: u64) -> Vec<Coflow> {
    perturb_sizes(&generate(&SynthConfig::default()), 0.05, seed)
}

/// The serving stream: 64 ports, Poisson arrivals at the loadgen's
/// default rate, 95 % small unicasts, with the same ±5 % size
/// perturbation as the trace. The loadgen draws whole megabytes, so
/// without it CCTs fall on a handful of values and a percentile cannot
/// move by less than a step.
pub fn stream(seed: u64, coflows: u64) -> Vec<Coflow> {
    let load = generate_load(&LoadgenConfig {
        coflows,
        seed,
        ..LoadgenConfig::default()
    });
    perturb_sizes(&load, 0.05, seed ^ 0xabcd)
}

/// 64 ports at 10 Gbps with δ = 100 µs — the `ocs-daemond loadgen`
/// fabric.
pub fn stream_fabric() -> Fabric {
    Fabric::new(
        LoadgenConfig::default().ports,
        Bandwidth::from_gbps(10),
        Dur::from_micros(100),
    )
}

/// The replay configuration every workload runs: the program default.
pub fn online() -> OnlineConfig {
    OnlineConfig::default()
}

/// The replan-thread count `OnlineConfig::default()` resolves to on this
/// host (zero means one per available core).
pub fn resolved_replan_threads() -> usize {
    match online().replan_threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// The daemon of `stream_daemon`: the default daemon on the stream
/// fabric.
pub fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        fabric: stream_fabric(),
        ..DaemonConfig::default()
    }
}

/// The default pipeline, lossless: a file replay waits at a full
/// channel instead of shedding.
pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        on_full: OnFull::Wait,
        ..PipelineConfig::default()
    }
}
