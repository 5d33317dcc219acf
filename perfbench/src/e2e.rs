//! The untraced end-to-end passes: the program's own entry points, timed
//! from outside.
//!
//! * Offline: `ocs_sim::run_trace` over the backend the workload's
//!   selector builds. The clock runs from the first `submit` to the
//!   return of the drained outcomes.
//! * Daemon: `ocs_daemon::run_pipelined` over the rendered JSONL. The
//!   clock runs from the first byte the reader thread pulls to the return
//!   after the graceful drain.

use crate::check::{check, Bound, Checked};
use crate::proc::Usage;
use crate::workloads::{daemon_config, online, pipeline_config, Workload};
use ocs_daemon::{run_pipelined, Daemon, PipelineReport};
use ocs_model::{Coflow, ScheduleOutcome};
use ocs_sim::{run_trace, BackendKind};
use std::io::{BufRead, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use sunflow_core::ShortestFirst;

/// A workload's inputs, made once per run during set-up.
pub struct Inputs {
    pub workload: Workload,
    pub coflows: Vec<Coflow>,
    /// The JSONL rendering, for the daemon workload only.
    pub jsonl: Option<String>,
}

impl Inputs {
    /// Make the inputs and build (then drop) the backend or daemon: the
    /// work `setup_s` times.
    pub fn set_up(workload: Workload, seed: u64) -> Inputs {
        let coflows = workload.coflows(seed);
        let jsonl = match workload {
            Workload::StreamDaemon => {
                let jsonl = ocs_workload::to_jsonl(&coflows);
                drop(Daemon::new(&daemon_config()));
                Some(jsonl)
            }
            _ => {
                let fabric = workload.fabric();
                drop(
                    workload
                        .backend()
                        .build(&fabric, &online(), Box::new(ShortestFirst)),
                );
                None
            }
        };
        Inputs {
            workload,
            coflows,
            jsonl,
        }
    }

    /// The lower bound the workload's CCTs must respect.
    pub fn bound(&self) -> Bound {
        match self.workload.backend() {
            BackendKind::Hybrid {
                packet_bw_permille, ..
            } => Bound::HybridPacket {
                permille: packet_bw_permille,
            },
            _ => Bound::Circuit,
        }
    }

    /// Check `outcomes` of a replay of these inputs.
    pub fn check(&self, outcomes: &[ScheduleOutcome]) -> Checked {
        check(
            &self.coflows,
            outcomes,
            &self.workload.fabric(),
            self.bound(),
        )
    }
}

/// One untraced replay.
pub struct Pass {
    pub wall: Duration,
    pub checked: Checked,
    /// Failures beyond the outcome checks: lost, duplicated or negative
    /// acks on the daemon path, a panic anywhere.
    pub failed: u64,
    /// Process CPU and context switches over the timed window.
    pub usage: Usage,
    /// The pipeline's own counters, on the daemon path.
    pub report: Option<PipelineReport>,
}

impl Pass {
    pub fn completed(&self) -> usize {
        self.checked.ccts.len()
    }

    pub fn all_failed(&self) -> u64 {
        self.checked.failed + self.failed
    }

    pub fn coflows_per_s(&self) -> f64 {
        self.completed() as f64 / self.wall.as_secs_f64()
    }
}

/// Run the workload's end-to-end path once, untraced.
pub fn pass(inputs: &Inputs) -> Pass {
    match &inputs.jsonl {
        Some(jsonl) => daemon_pass(inputs, jsonl),
        None => offline_pass(inputs),
    }
}

fn offline_pass(inputs: &Inputs) -> Pass {
    let fabric = inputs.workload.fabric();
    let mut backend = inputs
        .workload
        .backend()
        .build(&fabric, &online(), Box::new(ShortestFirst));
    let usage = Usage::now();
    let start = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_trace(&inputs.coflows, backend.as_mut())
    }));
    let wall = start.elapsed();
    let usage = Usage::now().since(&usage);
    let (outcomes, failed) = match run {
        Ok(outcomes) => (outcomes, 0),
        Err(_) => (Vec::new(), 1),
    };
    Pass {
        wall,
        checked: inputs.check(&outcomes),
        failed,
        usage,
        report: None,
    }
}

/// A `BufRead` that notes when the program first pulls bytes from it.
struct FirstByte<'a, R> {
    inner: R,
    first: &'a OnceLock<Instant>,
}

impl<R: Read> Read for FirstByte<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.first.get_or_init(Instant::now);
        self.inner.read(buf)
    }
}

impl<R: BufRead> BufRead for FirstByte<'_, R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.first.get_or_init(Instant::now);
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt)
    }
}

fn daemon_pass(inputs: &Inputs, jsonl: &str) -> Pass {
    let mut daemon = Daemon::new(&daemon_config());
    let mut acks: Vec<u8> = Vec::with_capacity(jsonl.len());
    let first = OnceLock::new();
    let input = FirstByte {
        inner: jsonl.as_bytes(),
        first: &first,
    };
    let usage = Usage::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_pipelined(&mut daemon, input, Some(&mut acks), &pipeline_config())
    }));
    let end = Instant::now();
    let usage = Usage::now().since(&usage);
    let wall = end.duration_since(*first.get().unwrap_or(&end));
    let lines = jsonl.lines().filter(|l| !l.trim().is_empty()).count() as u64;
    let (report, failed) = match run {
        // A rejected or unfinished admission also lacks its outcome, so
        // the outcome check counts it; the acks are checked here.
        Ok(Ok(report)) => {
            let bad_acks = ack_failures(&acks, lines) + report.lost_acks();
            (Some(report), bad_acks)
        }
        _ => (None, lines.max(1)),
    };
    let outcomes: Vec<ScheduleOutcome> = daemon
        .completions()
        .iter()
        .map(|c| c.outcome.clone())
        .collect();
    Pass {
        wall,
        checked: inputs.check(&outcomes),
        failed,
        usage,
        report,
    }
}

/// The `"line": N` of one ack.
pub fn ack_line(ack: &str) -> Option<u64> {
    let rest = ack.strip_prefix("{\"line\": ")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Acks that break "every line acked exactly once, in order, and
/// accepted": missing, duplicated, reordered or negative acks.
pub fn ack_failures(acks: &[u8], lines: u64) -> u64 {
    let text = String::from_utf8_lossy(acks);
    let mut failed = 0u64;
    let mut acked = 0u64;
    for (i, ack) in text.lines().enumerate() {
        acked += 1;
        let in_order = ack_line(ack) == Some(i as u64 + 1);
        if !in_order || !ack.contains("\"ok\": true") {
            failed += 1;
        }
    }
    failed + lines.abs_diff(acked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acks_must_cover_every_line_once_and_accept() {
        let good =
            b"{\"line\": 1, \"id\": 0, \"ok\": true}\n{\"line\": 2, \"id\": 1, \"ok\": true}\n";
        assert_eq!(ack_failures(good, 2), 0);
        assert_eq!(ack_failures(good, 3), 1, "a lost ack");
        let rejected = b"{\"line\": 1, \"id\": 0, \"ok\": false, \"reject\": \"queue_full\"}\n";
        assert_eq!(ack_failures(rejected, 1), 1);
        let twice =
            b"{\"line\": 1, \"id\": 0, \"ok\": true}\n{\"line\": 1, \"id\": 0, \"ok\": true}\n";
        assert_eq!(ack_failures(twice, 2), 1);
        assert_eq!(ack_line("{\"line\": 42, \"ok\": true}"), Some(42));
    }
}
