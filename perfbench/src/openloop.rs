//! The open-loop leg of `stream_daemon`: lines released at a fixed wall
//! clock rate into `run_pipelined` with `OnFull::Reject`, each line timed
//! from when it was due to when its ack was written. Independent senders
//! do not wait for the service, so a stall delays every later line and
//! the bounded channel sheds instead of pacing the generator.

use crate::check::quantile;
use crate::e2e::ack_line;
use crate::workloads::daemon_config;
use ocs_daemon::{run_pipelined, Daemon, OnFull, PipelineConfig};
use std::io::{BufRead, Read, Write};
use std::time::{Duration, Instant};

/// Offered rate, lines per wall second.
pub const RATE: f64 = 8_000.0;
/// Lines offered: one second at [`RATE`].
pub const LINES: usize = 8_000;

/// Releases line `i` no earlier than `start + i / RATE`, recording how
/// late each release ran.
struct PacedReader<'a> {
    lines: Vec<&'a [u8]>,
    next: usize,
    pos: usize,
    released: bool,
    start: Instant,
    late: &'a mut Vec<Duration>,
}

fn due(start: Instant, index: usize) -> Instant {
    start + Duration::from_secs_f64(index as f64 / RATE)
}

impl BufRead for PacedReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let Some(line) = self.lines.get(self.next) else {
            return Ok(&[]);
        };
        if !self.released {
            let due = due(self.start, self.next);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            self.late
                .push(Instant::now().saturating_duration_since(due));
            self.released = true;
        }
        Ok(&line[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
        if self
            .lines
            .get(self.next)
            .is_some_and(|l| self.pos >= l.len())
        {
            self.next += 1;
            self.pos = 0;
            self.released = false;
        }
    }
}

impl Read for PacedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = {
            let avail = self.fill_buf()?;
            let n = avail.len().min(buf.len());
            buf[..n].copy_from_slice(&avail[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

/// An ack sink that stamps each ack line with the instant it was written.
#[derive(Default)]
struct AckClock {
    partial: Vec<u8>,
    stamps: Vec<(u64, Instant)>,
}

impl Write for AckClock {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        for &b in buf {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.partial);
                if let Some(n) = ack_line(&line) {
                    self.stamps.push((n, now));
                }
                self.partial.clear();
            } else {
                self.partial.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Offer the first [`LINES`] lines of `jsonl` at [`RATE`] and report ack
/// latency, backpressure rejects and generator lateness. Also returns
/// the number of lines whose ack never arrived (a failure).
pub fn open_loop(jsonl: &str) -> (Vec<(&'static str, f64)>, u64) {
    let lines: Vec<&[u8]> = jsonl
        .split_inclusive('\n')
        .take(LINES)
        .map(str::as_bytes)
        .collect();
    let offered = lines.len();
    let mut daemon = Daemon::new(&daemon_config());
    let mut late = Vec::with_capacity(offered);
    let mut acks = AckClock::default();
    // A little slack so thread start-up does not count as lateness.
    let start = Instant::now() + Duration::from_millis(5);
    let reader = PacedReader {
        lines,
        next: 0,
        pos: 0,
        released: false,
        start,
        late: &mut late,
    };
    let config = PipelineConfig {
        on_full: OnFull::Reject,
        ..PipelineConfig::default()
    };
    let report = run_pipelined(&mut daemon, reader, Some(&mut acks), &config)
        .expect("in-memory pipes do not fail");
    let mut ack_ms: Vec<f64> = acks
        .stamps
        .iter()
        .map(|&(line, at)| {
            let due = due(start, line as usize - 1);
            at.saturating_duration_since(due).as_secs_f64() * 1e3
        })
        .collect();
    ack_ms.sort_by(f64::total_cmp);
    let mut late_ms: Vec<f64> = late.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    late_ms.sort_by(f64::total_cmp);
    let lost = (offered as u64).abs_diff(acks.stamps.len() as u64) + report.lost_acks();
    let metrics = vec![
        ("ingest.ack_p50_ms", quantile(&ack_ms, 0.5)),
        ("ingest.ack_p99_ms", quantile(&ack_ms, 0.99)),
        ("ingest.ack_p999_ms", quantile(&ack_ms, 0.999)),
        (
            "ingest.backpressure_rejects",
            report.backpressure_rejects as f64,
        ),
        ("ingest.gen_late_p50_ms", quantile(&late_ms, 0.5)),
        ("ingest.gen_late_p99_ms", quantile(&late_ms, 0.99)),
    ];
    (metrics, lost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_reader_yields_every_line_in_order() {
        let text = "a\nbb\nccc\n";
        let mut late = Vec::new();
        let reader = PacedReader {
            lines: text.split_inclusive('\n').map(str::as_bytes).collect(),
            next: 0,
            pos: 0,
            released: false,
            start: Instant::now(),
            late: &mut late,
        };
        let got: Vec<String> = reader.lines().map(Result::unwrap).collect();
        assert_eq!(got, ["a", "bb", "ccc"]);
        assert_eq!(late.len(), 3);
    }

    #[test]
    fn ack_clock_stamps_whole_lines() {
        let mut acks = AckClock::default();
        acks.write_all(b"{\"line\": 1, \"ok\": true}\n{\"line\": 2,")
            .unwrap();
        acks.write_all(b" \"ok\": true}\n").unwrap();
        let lines: Vec<u64> = acks.stamps.iter().map(|s| s.0).collect();
        assert_eq!(lines, [1, 2]);
    }
}
