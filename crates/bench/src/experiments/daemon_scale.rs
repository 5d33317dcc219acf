//! Daemon scale — the pipelined serving path under a ≥100k-Coflow soak.
//!
//! Where [`crate::experiments::daemon_soak`] checks the service core's
//! *correctness* against the offline replay at a few hundred Coflows,
//! this experiment soaks the *serving path* at scale: a seeded
//! [`ocs_workload::loadgen`] stream (default 100 000 Coflows, overridden
//! via `OCS_SCALE_COFLOWS`) rendered to JSONL and driven through
//! [`ocs_daemon::run_pipelined`] — reader thread, bounded admission
//! channel, batching admission loop — exactly as `ocs-daemond loadgen`
//! runs it. Three passes:
//!
//! 1. **Offline golden** — [`ocs_sim::simulate_circuit`] over the same
//!    Coflows: the byte-identity reference.
//! 2. **Pipelined soak** (lossless `OnFull::Wait`) — must admit every
//!    arrival, complete every admitted Coflow, lose no acks, and produce
//!    outcomes byte-identical to the golden. Records admission
//!    throughput, admission-to-schedule latency quantiles
//!    (p50/p99/p999), and backpressure-wait counts.
//! 3. **Shedding leg** (`OnFull::Reject`, deliberately tiny channel) —
//!    the reader outruns admission, so typed `backpressure` rejects
//!    must fire, every line still gets exactly one verdict, and the
//!    drain completes every Coflow that *was* admitted.
//!
//! A fourth pass soaks the sharded serving path: the same load confined
//! to port groups on a `portgroups:4` backend, checking the sharded
//! pass drains every admitted Coflow.
//!
//! Results are appended to the `daemon_soak` report so everything lands
//! in one `BENCH_daemon.json`.

use ocs_daemon::{run_pipelined, Daemon, DaemonConfig, OnFull, PipelineConfig, PipelineReport};
use ocs_metrics::{Report, RunTiming, SweepTiming};
use ocs_model::{Bandwidth, Coflow, Dur, Fabric, ScheduleOutcome};
use ocs_sim::{simulate_circuit, BackendKind};
use ocs_workload::{generate_load, to_jsonl, LoadgenConfig};
use std::io::Cursor;

/// Scale knobs for the soak, resolved from the environment.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Coflows in the soak trace (`OCS_SCALE_COFLOWS`, default 100 000).
    pub coflows: u64,
    /// Fabric ports.
    pub ports: usize,
    /// Mean arrivals per second of virtual time.
    pub rate_per_sec: f64,
}

impl Default for ScaleConfig {
    fn default() -> ScaleConfig {
        ScaleConfig {
            coflows: 100_000,
            ports: 64,
            rate_per_sec: 2_000.0,
        }
    }
}

/// Interpret an `OCS_SCALE_COFLOWS` value: unset or empty means the
/// default; anything else must be a positive integer. A typo is an
/// error — it must never silently soak at the wrong scale.
pub fn parse_scale_coflows(raw: Option<&str>) -> Result<u64, String> {
    match raw.map(str::trim) {
        None | Some("") => Ok(ScaleConfig::default().coflows),
        Some(s) => match s.parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!(
                "OCS_SCALE_COFLOWS must be a positive integer, got {s:?}"
            )),
        },
    }
}

impl ScaleConfig {
    /// The scale the bench target runs, honoring `OCS_SCALE_COFLOWS`.
    ///
    /// # Panics
    /// Panics with a clear message on an unparseable override.
    pub fn from_env() -> ScaleConfig {
        let coflows = match parse_scale_coflows(std::env::var("OCS_SCALE_COFLOWS").ok().as_deref())
        {
            Ok(n) => n,
            Err(msg) => panic!("{msg}"),
        };
        ScaleConfig {
            coflows,
            ..ScaleConfig::default()
        }
    }
}

/// The soak fabric: δ = 100 µs at 10 Gbps, so 1–4 MB transfers dwarf the
/// reconfiguration delay and the scheduler — not circuit setup — is what
/// the soak stresses.
fn scale_fabric(ports: usize) -> Fabric {
    Fabric::new(ports, Bandwidth::from_gbps(10), Dur::from_micros(100))
}

fn load_config(scale: &ScaleConfig, group_ports: usize) -> LoadgenConfig {
    LoadgenConfig {
        ports: scale.ports,
        coflows: scale.coflows,
        rate_per_sec: scale.rate_per_sec,
        group_ports,
        ..LoadgenConfig::default()
    }
}

fn sorted_outcomes(daemon: &Daemon) -> Vec<ScheduleOutcome> {
    let mut outcomes: Vec<ScheduleOutcome> = daemon
        .completions()
        .iter()
        .map(|c| c.outcome.clone())
        .collect();
    outcomes.sort_by_key(|o| o.coflow);
    outcomes
}

struct SoakPass {
    report: PipelineReport,
    outcomes: Vec<ScheduleOutcome>,
    wall: std::time::Duration,
    admit_p50_ns: u64,
    admit_p99_ns: u64,
    admit_p999_ns: u64,
    completed: u64,
}

fn soak(jsonl: &str, config: &DaemonConfig, pipeline: &PipelineConfig) -> SoakPass {
    let mut daemon = Daemon::new(config);
    let wall = std::time::Instant::now();
    let report = run_pipelined(
        &mut daemon,
        Cursor::new(jsonl),
        None::<&mut std::io::Sink>,
        pipeline,
    )
    .expect("in-memory soak cannot hit I/O errors");
    let wall = wall.elapsed();
    let q = |p: f64| daemon.telemetry().admit_latency.quantile(p).unwrap_or(0);
    SoakPass {
        report,
        outcomes: sorted_outcomes(&daemon),
        wall,
        admit_p50_ns: q(0.50),
        admit_p99_ns: q(0.99),
        admit_p999_ns: q(0.999),
        completed: daemon.telemetry().completed,
    }
}

/// Run the scale soak and append its claims, notes and timing rows to an
/// existing report (the `daemon_soak` report, so one `BENCH_daemon.json`
/// carries both).
pub fn append_measured(report: &mut Report, timing: &mut SweepTiming, scale: &ScaleConfig) {
    let fabric = scale_fabric(scale.ports);
    let coflows: Vec<Coflow> = generate_load(&load_config(scale, 0));
    let jsonl = to_jsonl(&coflows);
    let base = DaemonConfig {
        fabric,
        ..DaemonConfig::default()
    };

    // Pass 1: the offline golden replay of the very same arrivals.
    let golden_wall = std::time::Instant::now();
    let golden = {
        let policy = base.policy.build();
        let mut outcomes =
            simulate_circuit(&coflows, &fabric, &base.online, policy.as_ref()).outcomes;
        outcomes.sort_by_key(|o| o.coflow);
        outcomes
    };
    let golden_wall = golden_wall.elapsed();

    // Pass 2: the lossless pipelined soak.
    let lossless = soak(
        &jsonl,
        &base,
        &PipelineConfig {
            channel_capacity: 512,
            batch_max: 256,
            on_full: OnFull::Wait,
        },
    );
    let admissions_per_sec =
        lossless.report.accepted as f64 / lossless.wall.as_secs_f64().max(1e-9);

    // Pass 3: the shedding leg — a deliberately tiny channel so typed
    // backpressure must engage.
    let shedding = soak(
        &jsonl,
        &base,
        &PipelineConfig {
            channel_capacity: 1,
            batch_max: 1,
            on_full: OnFull::Reject,
        },
    );

    // Pass 4: the sharded serving path — group-local load on portgroups:4.
    let groups = 4usize;
    let sharded_load = generate_load(&load_config(scale, scale.ports.div_ceil(groups)));
    let sharded_jsonl = to_jsonl(&sharded_load);
    let sharded_cfg = DaemonConfig {
        fabric,
        backend: BackendKind::PortGroups {
            groups: groups as u32,
        },
        ..DaemonConfig::default()
    };
    let sharded = soak(
        &sharded_jsonl,
        &sharded_cfg,
        &PipelineConfig {
            channel_capacity: 512,
            batch_max: 256,
            on_full: OnFull::Wait,
        },
    );

    report.claim(
        "scale soak: pipelined daemon admits the full trace (admitted/generated)",
        1.0,
        lossless.report.accepted as f64 / scale.coflows as f64,
        0.0,
    );
    report.claim(
        "scale soak: pipelined outcomes byte-identical to offline replay (1=yes)",
        1.0,
        (lossless.outcomes == golden) as u64 as f64,
        0.0,
    );
    report.claim(
        "scale soak: every line acked exactly once — zero lost acks (1=yes)",
        1.0,
        (lossless.report.lost_acks() == 0 && shedding.report.lost_acks() == 0) as u64 as f64,
        0.0,
    );
    report.claim(
        "scale soak: bounded channel engages backpressure (1 = waits and rejects seen)",
        1.0,
        (lossless.report.backpressure_waits > 0 && shedding.report.backpressure_rejects > 0) as u64
            as f64,
        0.0,
    );
    report.claim(
        "scale soak: drain completes every admitted Coflow, both legs (completed/admitted)",
        1.0,
        (lossless.completed + shedding.completed) as f64
            / (lossless.report.accepted + shedding.report.accepted) as f64,
        0.0,
    );
    report.claim(
        "scale soak: sharded pass drains every admitted Coflow (completed/admitted)",
        1.0,
        sharded.completed as f64 / sharded.report.accepted.max(1) as f64,
        0.0,
    );
    report.note(format!(
        "scale soak: {} Coflows at {:.0}/s virtual over {} ports; pipelined pass \
         {:.2} s wall = {:.0} admissions/s; admit-to-schedule latency p50 {} ns, \
         p99 {} ns, p999 {} ns; {} backpressure waits (lossless leg), {} typed \
         backpressure rejects (shedding leg); {} batches (max {})",
        scale.coflows,
        scale.rate_per_sec,
        scale.ports,
        lossless.wall.as_secs_f64(),
        admissions_per_sec,
        lossless.admit_p50_ns,
        lossless.admit_p99_ns,
        lossless.admit_p999_ns,
        lossless.report.backpressure_waits,
        shedding.report.backpressure_rejects,
        lossless.report.batches,
        lossless.report.max_batch,
    ));
    report.note(format!(
        "scale soak, sharded: portgroups:{groups} admitted {} group-local Coflows \
         and completed {}",
        sharded.report.accepted, sharded.completed,
    ));

    timing.runs.push(RunTiming {
        label: "scale: offline golden".to_string(),
        wall_s: golden_wall.as_secs_f64(),
        compute_s: None,
        backend: Some("Sunflow".to_string()),
        counters: vec![("coflows".to_string(), scale.coflows)],
    });
    timing.runs.push(RunTiming {
        label: "scale: pipelined lossless".to_string(),
        wall_s: lossless.wall.as_secs_f64(),
        compute_s: None,
        backend: Some("Sunflow".to_string()),
        counters: vec![
            ("coflows".to_string(), scale.coflows),
            ("admissions_per_sec".to_string(), admissions_per_sec as u64),
            ("admit_p50_ns".to_string(), lossless.admit_p50_ns),
            ("admit_p99_ns".to_string(), lossless.admit_p99_ns),
            ("admit_p999_ns".to_string(), lossless.admit_p999_ns),
            (
                "backpressure_waits".to_string(),
                lossless.report.backpressure_waits,
            ),
            ("lost_acks".to_string(), lossless.report.lost_acks()),
            ("batches".to_string(), lossless.report.batches),
            ("max_batch".to_string(), lossless.report.max_batch),
        ],
    });
    timing.runs.push(RunTiming {
        label: "scale: pipelined shedding".to_string(),
        wall_s: shedding.wall.as_secs_f64(),
        compute_s: None,
        backend: Some("Sunflow".to_string()),
        counters: vec![
            (
                "backpressure_rejects".to_string(),
                shedding.report.backpressure_rejects,
            ),
            ("accepted".to_string(), shedding.report.accepted),
            ("lost_acks".to_string(), shedding.report.lost_acks()),
        ],
    });
    timing.runs.push(RunTiming {
        label: "scale: portgroups sharded".to_string(),
        wall_s: sharded.wall.as_secs_f64(),
        compute_s: None,
        backend: Some("Sunflow".to_string()),
        counters: vec![
            ("accepted".to_string(), sharded.report.accepted),
            ("completed".to_string(), sharded.completed),
        ],
    });
    timing.wall_s += golden_wall.as_secs_f64()
        + lossless.wall.as_secs_f64()
        + shedding.wall.as_secs_f64()
        + sharded.wall.as_secs_f64();
}

/// Standalone variant for tests: a fresh report holding only the scale
/// claims.
pub fn run_measured_at(scale: &ScaleConfig) -> (Report, SweepTiming) {
    let mut report = Report::new("Daemon scale — pipelined serving path under soak");
    let mut timing = SweepTiming {
        runs: Vec::new(),
        wall_s: 0.0,
        threads: 1,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    append_measured(&mut report, &mut timing, scale);
    (report, timing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_parses_or_errors_loudly() {
        assert_eq!(parse_scale_coflows(None), Ok(100_000));
        assert_eq!(parse_scale_coflows(Some("")), Ok(100_000));
        assert_eq!(parse_scale_coflows(Some(" 10000 ")), Ok(10_000));
        for garbage in ["0", "-5", "many", "1e5"] {
            let err = parse_scale_coflows(Some(garbage)).unwrap_err();
            assert!(
                err.contains("OCS_SCALE_COFLOWS") && err.contains(garbage),
                "error must name the variable and the bad value: {err}"
            );
        }
    }

    #[test]
    fn scale_claims_hold_at_smoke_scale() {
        // The bench target runs 100k (or OCS_SCALE_COFLOWS); debug-build
        // tests keep to a trace that replays four times in seconds.
        let scale = ScaleConfig {
            coflows: 3_000,
            ..ScaleConfig::default()
        };
        let (report, timing) = run_measured_at(&scale);
        assert!(report.all_hold(), "\n{}", report.render());
        assert_eq!(timing.runs.len(), 4);
        let lossless = &timing.runs[1];
        assert!(lossless
            .counters
            .iter()
            .any(|(k, v)| k == "admissions_per_sec" && *v > 0));
    }
}
