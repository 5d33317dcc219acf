//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; a test below keeps the two in step.

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("coflows_per_s", "1/s"),
    ("cct_avg_s", "s"),
    ("cct_p98_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). A layer that
/// does no work on a workload reports zero there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stepper.replan_s", "s"),
    ("stepper.events", "count"),
    ("stepper.coflows_rescheduled", "count"),
    ("stepper.coflows_skipped", "count"),
    ("stepper.skip_ratio", "ratio"),
    ("stepper.reservations_made", "count"),
    ("stepper.reservations_reused", "count"),
    ("stepper.reuse_ratio", "ratio"),
    ("stepper.reservations_truncated", "count"),
    ("stepper.delta_applied", "count"),
    ("stepper.releases_visited", "count"),
    ("stepper.demands_scanned", "count"),
    ("stepper.replan_segments", "count"),
    ("stepper.parallel_replans", "count"),
    ("stepper.reservations_retired", "count"),
    ("stepper.settles", "count"),
    ("stepper.prt_len_max", "count"),
    ("engine.submit_s", "s"),
    ("engine.poll_s", "s"),
    ("engine.advance_s", "s"),
    ("engine.event_p50_us", "us"),
    ("engine.event_p99_us", "us"),
    ("engine.event_max_ms", "ms"),
    ("engine.active_max", "count"),
    ("engine.queued_max", "count"),
    ("inter.compares", "count"),
    ("intra.plan_us_p50", "us"),
    ("intra.plan_us_p99", "us"),
    ("split.calls", "count"),
    ("split.s", "s"),
    ("split.evals", "count"),
    ("split.subflows_split", "count"),
    ("split.bytes_to_packet", "bytes"),
    ("packet.events", "count"),
    ("packet.rerate_s", "s"),
    ("hybrid.circuit_replan_s", "s"),
    ("hybrid.unattributed_s", "s"),
    ("jsonl.lines", "count"),
    ("jsonl.errors", "count"),
    ("jsonl.parse_ns_per_line", "ns"),
    ("service.submit_ns_p50", "ns"),
    ("service.advance_s", "s"),
    ("service.advance_p99_ms", "ms"),
    ("service.rejects", "count"),
    ("ingest.batches", "count"),
    ("ingest.mean_batch", "count"),
    ("ingest.backpressure_waits", "count"),
    ("ingest.cpu_s", "s"),
    ("ingest.sys_s", "s"),
    ("ingest.ctx_switches", "count"),
    ("ingest.overhead_s", "s"),
    ("ingest.schedule_diverged", "ratio"),
    ("ingest.ack_p50_ms", "ms"),
    ("ingest.ack_p99_ms", "ms"),
    ("ingest.ack_p999_ms", "ms"),
    ("ingest.backpressure_rejects", "count"),
    ("ingest.gen_late_p50_ms", "ms"),
    ("ingest.gen_late_p99_ms", "ms"),
    ("proc.cpu_s", "s"),
    ("proc.ctx_switches", "count"),
    ("proc.steal_share", "ratio"),
    ("failed_frac", "ratio"),
    ("unattributed_s", "s"),
    ("trace_overhead", "ratio"),
];

/// The result of one run, as the last line of standard output.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in catalogue order; empty when the run failed.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    /// A run that failed its checks prints no metrics.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = if self.correct() {
            self.metrics
                .iter()
                .map(|(name, value)| {
                    format!(
                        "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                        unit(name)
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The unit of a catalogued metric.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Order `measured` as `catalogue` lists it, filling metrics the run did
/// not produce with zero.
pub fn in_catalogue_order(
    catalogue: &[(&'static str, &str)],
    measured: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    for (name, _) in measured {
        unit(name);
    }
    catalogue
        .iter()
        .map(|(name, _)| {
            let v = measured
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            (*name, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = text
                .find(&format!("\"{section}\": ["))
                .expect("section present");
            let body = &text[start..start + text[start..].find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry[..entry.find('"').unwrap()].to_string();
                    let u = entry.find("\"unit\": \"").unwrap() + 9;
                    let unit = entry[u..u + entry[u..].find('"').unwrap()].to_string();
                    (name, unit)
                })
                .collect()
        };
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
        for w in crate::workloads::Workload::ALL {
            assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn result_line_hides_metrics_on_failure() {
        let ok = RunResult {
            attempted: 526,
            failed: 0,
            metrics: vec![("coflows_per_s", 291.5), ("cct_avg_s", 13.92)],
        };
        assert_eq!(
            ok.json(),
            "{\"correct\": true, \"attempted\": 526, \"failed\": 0, \"metrics\": \
             {\"coflows_per_s\": {\"value\": 291.5, \"unit\": \"1/s\"}, \
             \"cct_avg_s\": {\"value\": 13.92, \"unit\": \"s\"}}}"
        );
        let bad = RunResult { failed: 3, ..ok };
        assert!(bad.json().ends_with("\"failed\": 3, \"metrics\": {}}"));
    }

    #[test]
    fn missing_metrics_fill_with_zero_in_catalogue_order() {
        let got = in_catalogue_order(END_TO_END, &[("setup_s", 0.5), ("coflows_per_s", 9.0)]);
        assert_eq!(got[0], ("coflows_per_s", 9.0));
        assert_eq!(got[1], ("cct_avg_s", 0.0));
        assert_eq!(got[3], ("setup_s", 0.5));
    }
}
