//! Metric names, units and the one-line JSON result.

use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run on every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("node_periods_per_s", "1/s"),
    ("executed_events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run. Every time-valued
/// one is measured on every workload; a count or ratio of a layer the
/// workload does not run, or does not expose, reads 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("host.parallelism", "count"),
    ("host.reference_s", "s"),
    // the workload's own substrate: ClusterSim, ShardedSim or the reactor
    ("substrate.build_s", "s"),
    ("substrate.run_s", "s"),
    // penelope-sim: ClusterSim
    ("sim.events", "count"),
    ("sim.net.sent", "count"),
    ("sim.net.delivered", "count"),
    ("sim.queue.depth", "count"),
    ("sim.queue.push_pop_ns", "ns"),
    ("sim.allocs_per_event", "allocs/event"),
    ("sim.unanswered_frac", "ratio"),
    // penelope-core
    ("core.handle_ns.tick_quiet", "ns"),
    ("core.handle_ns.tick_request", "ns"),
    ("core.handle_ns.request_serve", "ns"),
    ("core.handle_ns.grant_apply", "ns"),
    ("core.handle_ns.ack", "ns"),
    ("core.handle_ns.grant_outcome", "ns"),
    ("core.handle_ns.sweep_escrow", "ns"),
    ("core.requests_sent", "count"),
    ("core.requests_served", "count"),
    ("core.request_timeout", "count"),
    ("core.grant_escrowed", "count"),
    ("core.grant_reclaimed", "count"),
    ("core.messages_per_grant", "msgs/grant"),
    // penelope-sim: ShardedSim
    ("shard.executed_events", "count"),
    ("shard.elided_ticks", "count"),
    ("shard.elided_share", "ratio"),
    ("shard.messages", "count"),
    ("shard.partition_overhead", "x"),
    ("shard.jobs2_speedup", "x"),
    // penelope-daemon: the multiplexed reactor
    ("mux.frames_sent", "count"),
    ("mux.frames_delivered", "count"),
    ("mux.injected_drops", "count"),
    ("mux.frames_per_input", "ratio"),
    ("mux.wire_fail_frac", "ratio"),
    ("mux.allocs_per_event", "allocs/event"),
    // penelope-daemon: the wire codec
    ("wire.encode_ns.request", "ns"),
    ("wire.encode_ns.grant", "ns"),
    ("wire.encode_ns.ack", "ns"),
    ("wire.decode_ns.request", "ns"),
    ("wire.decode_ns.grant", "ns"),
    ("wire.decode_ns.ack", "ns"),
    // penelope-net
    ("net.udp_send_ns", "ns"),
    ("net.udp_recv_ns", "ns"),
    ("net.faulty_send_ns", "ns"),
    ("net.next_fate_ns", "ns"),
    // penelope-trace
    ("trace.emit_ns.noop", "ns"),
    ("trace.emit_ns.counter", "ns"),
    ("trace.emit_ns.jsonl", "ns"),
    ("trace.counter_overhead", "x"),
    ("trace.span_overhead", "x"),
    // the probe harness and the reconciliation
    ("probe.timer_ns", "ns"),
    ("probe.max_rel_iqr", "ratio"),
    ("reconcile.unattributed_share", "ratio"),
];

/// Unit of a metric named in [`END_TO_END`] or [`PER_LAYER`].
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Peak resident set size of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The result object the benchmark prints as its last line. Metrics are
/// written in the order given; every value must be finite.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} has no unit"));
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_documented_shape() {
        let line = result_line(true, 12, 0, &[("setup_s", 0.25), ("peak_rss_mb", 31.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 31.5, \"unit\": \"MB\"}}}"
        );
        // Large and tiny values print as plain decimals, never exponents.
        let line = result_line(true, 1, 0, &[("node_periods_per_s", 6.5e7)]);
        assert!(line.contains("\"value\": 65000000,"), "{line}");
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
    }

    /// Every metric this program prints is declared in the repository's
    /// BENCHMARK.json with the same unit, and nothing more is declared.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        let declared = json.matches("\"unit\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
