//! Every metric the benchmark reports, by name. `BENCHMARK.json` at the
//! root of the repo lists the same names, units, directions and bounds; a
//! unit test keeps the two in step.

/// Which clock a number is read from. Simulated numbers repeat exactly
/// for a seed; host numbers carry the host's noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may worsen
    /// before the change counts as a regression.
    pub bound: f64,
}

/// What a user of the system sees. Someone evaluating the proxy principle
/// reads the `Sim` rows; someone running experiments on the simulator
/// reads the `Host` rows.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        clock: Clock::Host,
        bound: 0.25,
    },
    EndToEnd {
        name: "calls_per_s",
        unit: "1/s",
        better: "higher",
        clock: Clock::Host,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        clock: Clock::Host,
        bound: 0.08,
    },
    EndToEnd {
        name: "sim_call_mean_us",
        unit: "us",
        better: "lower",
        clock: Clock::Sim,
        bound: 0.20,
    },
    EndToEnd {
        name: "sim_call_p99_us",
        unit: "us",
        better: "lower",
        clock: Clock::Sim,
        bound: 0.25,
    },
    EndToEnd {
        name: "msgs_per_call",
        unit: "msg/call",
        better: "lower",
        clock: Clock::Sim,
        bound: 0.10,
    },
    EndToEnd {
        name: "wire_bytes_per_call",
        unit: "B/call",
        better: "lower",
        clock: Clock::Sim,
        bound: 0.15,
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// An exact count from one of the program's public reports. Every run
    /// prints it and it must repeat exactly for a seed.
    Count,
    /// Timed by the benchmark's own spans, or read from the program's
    /// profiler, in the traced run.
    Timed,
    /// A probe: the benchmark calls the layer's public functions directly.
    Probe,
    /// Measured on the host outside the program (memory, context
    /// switches) or derived by comparing runs.
    Host,
}

impl Source {
    pub fn label(self) -> &'static str {
        match self {
            Source::Count => "C",
            Source::Timed => "T",
            Source::Probe => "P",
            Source::Host => "H",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
    /// The end-to-end metric and workload this number should move; empty
    /// where the prediction is no movement.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Source::{Count as C, Host as H, Probe as P, Timed as T};

/// One row per layer metric; the layer is the part of the name before the
/// first dot, and the layers are the crates. `migration`, `replication`
/// and `dsm` are not exercised by any workload and have no rows.
pub const PER_LAYER: [PerLayer; 55] = [
    pl(
        "simnet.events_per_call",
        "1/call",
        "lower",
        C,
        "calls_per_s on fleet_*",
    ),
    pl(
        "simnet.ns_per_event",
        "ns",
        "lower",
        T,
        "calls_per_s on fleet_*",
    ),
    pl(
        "simnet.bare_poll_ns_per_event",
        "ns",
        "lower",
        P,
        "upper-bounds any simnet gain on fleet_stub",
    ),
    pl(
        "simnet.bare_thread_ns_per_event",
        "ns",
        "lower",
        P,
        "calls_per_s on pipeline_blob, proxy_cache, bulk_edge",
    ),
    pl(
        "simnet.ctx_switches_per_event",
        "1/event",
        "lower",
        H,
        "calls_per_s on pipeline_blob, proxy_cache, bulk_edge",
    ),
    pl(
        "simnet.spawn_us_per_proc",
        "us",
        "lower",
        T,
        "setup_s on fleet_*",
    ),
    pl(
        "simnet.rss_kb_per_client",
        "kB",
        "lower",
        H,
        "peak_rss_mb on fleet_*",
    ),
    pl("simnet.procs_peak", "count", "lower", C, ""),
    pl("simnet.time_inversions", "count", "lower", C, ""),
    pl(
        "simnet.sched_pick_share",
        "1",
        "lower",
        T,
        "calls_per_s on fleet_sharded",
    ),
    pl(
        "simnet.sched_exec_share",
        "1",
        "higher",
        T,
        "calls_per_s on fleet_sharded",
    ),
    pl(
        "simnet.sched_merge_share",
        "1",
        "lower",
        T,
        "calls_per_s on fleet_sharded",
    ),
    pl(
        "simnet.sched_stall_share",
        "1",
        "lower",
        T,
        "calls_per_s on fleet_sharded",
    ),
    pl("simnet.t2_over_t1", "1", "lower", H, ""),
    pl(
        "wire.frame_ns_per_msg",
        "ns",
        "lower",
        P,
        "calls_per_s on pipeline_blob, bulk_edge; none on fleet_*",
    ),
    pl(
        "wire.unframe_ns_per_msg",
        "ns",
        "lower",
        P,
        "calls_per_s on pipeline_blob, bulk_edge; none on fleet_*",
    ),
    pl(
        "wire.crc_ns_64b",
        "ns",
        "lower",
        P,
        "calls_per_s on pipeline_blob, bulk_edge",
    ),
    pl(
        "wire.crc_gib_per_s_64k",
        "GiB/s",
        "higher",
        P,
        "calls_per_s on pipeline_blob, bulk_edge",
    ),
    pl(
        "wire.est_share",
        "1",
        "lower",
        P,
        "calls_per_s on pipeline_blob, bulk_edge",
    ),
    pl("wire.bytes_per_msg", "B", "lower", C, "wire_bytes_per_call"),
    pl(
        "wire.undecodable",
        "count",
        "lower",
        C,
        "wire_bytes_per_call",
    ),
    pl(
        "rpc.begin_call_ns",
        "ns",
        "lower",
        T,
        "calls_per_s on pipeline_blob",
    ),
    pl(
        "rpc.span_share",
        "1",
        "lower",
        T,
        "calls_per_s on pipeline_blob",
    ),
    pl(
        "rpc.calls_per_datagram",
        "1",
        "higher",
        C,
        "msgs_per_call on pipeline_blob",
    ),
    pl(
        "rpc.retransmits_per_kcall",
        "1/kcall",
        "lower",
        C,
        "sim_call_p99_us on pipeline_blob, bulk_edge",
    ),
    pl(
        "rpc.dups_suppressed",
        "count",
        "lower",
        C,
        "sim_call_p99_us on pipeline_blob, bulk_edge",
    ),
    pl(
        "rpc.stale_replies",
        "count",
        "lower",
        C,
        "sim_call_p99_us on pipeline_blob, bulk_edge",
    ),
    pl(
        "rpc.timeouts",
        "count",
        "lower",
        C,
        "failed calls everywhere",
    ),
    pl(
        "naming.lookups_per_call",
        "1/call",
        "lower",
        C,
        "msgs_per_call, calls_per_s on fleet_*",
    ),
    pl(
        "naming.directory_lookup_ns_8",
        "ns",
        "lower",
        P,
        "calls_per_s on fleet_*",
    ),
    pl(
        "naming.directory_lookup_ns_10k",
        "ns",
        "lower",
        P,
        "calls_per_s on fleet_*",
    ),
    pl("core.bind_ns", "ns", "lower", T, "calls_per_s on fleet_*"),
    pl(
        "core.invoke_async_ns",
        "ns",
        "lower",
        T,
        "calls_per_s on fleet_*",
    ),
    pl(
        "core.poll_call_ns",
        "ns",
        "lower",
        T,
        "calls_per_s on fleet_*",
    ),
    pl(
        "core.hit_ns",
        "ns",
        "lower",
        T,
        "calls_per_s on proxy_cache",
    ),
    pl(
        "core.span_share",
        "1",
        "lower",
        T,
        "calls_per_s on fleet_*, proxy_cache",
    ),
    pl(
        "core.cache_hit_ratio",
        "1",
        "higher",
        C,
        "calls_per_s, msgs_per_call, sim_call_mean_us on proxy_cache",
    ),
    pl(
        "core.invalidations_per_write",
        "1",
        "lower",
        C,
        "calls_per_s, msgs_per_call on proxy_cache",
    ),
    pl(
        "core.bulk_spills",
        "count",
        "lower",
        C,
        "wire_bytes_per_call on bulk_edge",
    ),
    pl(
        "core.bulk_resolves",
        "count",
        "lower",
        C,
        "wire_bytes_per_call on bulk_edge",
    ),
    pl(
        "services.dispatch_ns",
        "ns",
        "lower",
        T,
        "calls_per_s on proxy_cache, bulk_edge; about 0 on pipeline_blob",
    ),
    pl(
        "services.span_share",
        "1",
        "lower",
        T,
        "calls_per_s on proxy_cache, bulk_edge",
    ),
    pl(
        "services.edge_hit_ratio",
        "1",
        "higher",
        C,
        "sim_call_mean_us, sim_call_p99_us, msgs_per_call on bulk_edge",
    ),
    pl(
        "services.chunks_per_get",
        "1",
        "lower",
        C,
        "sim_call_mean_us, msgs_per_call on bulk_edge",
    ),
    pl(
        "obs.spans_per_call",
        "1/call",
        "lower",
        C,
        "peak_rss_mb, calls_per_s on fleet_*",
    ),
    pl(
        "obs.span_table_mb_peak",
        "MB",
        "lower",
        C,
        "peak_rss_mb on fleet_*",
    ),
    pl("obs.losses", "count", "lower", C, ""),
    pl(
        "obs.profiler_self_share",
        "1",
        "lower",
        T,
        "bench.trace_overhead_pct",
    ),
    pl("bench.trace_overhead_pct", "%", "lower", H, ""),
    pl("bench.unattributed_share", "1", "lower", T, ""),
    pl("bench.pinned", "count", "higher", H, ""),
    pl("bench.sim_call_p50_us", "us", "lower", C, ""),
    pl("bench.sim_call_samples", "count", "higher", C, ""),
    pl("bench.failed_share", "1", "lower", C, ""),
    pl("bench.rounds", "count", "higher", H, ""),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use obs::json::{parse, Json};

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key).and_then(Json::as_str).unwrap_or("")
    }

    #[test]
    fn manifest_lists_the_same_workloads() {
        let m = manifest();
        let rows = m.get("workloads").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = rows.iter().map(|r| field(r, "name")).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names, ours);
        for (row, (_, why)) in rows.iter().zip(WORKLOADS) {
            assert_eq!(field(row, "why"), why);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn manifest_lists_the_same_end_to_end_metrics() {
        let m = manifest();
        let rows = m.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        for (row, ours) in rows.iter().zip(END_TO_END) {
            assert_eq!(field(row, "name"), ours.name);
            assert_eq!(field(row, "unit"), ours.unit);
            assert_eq!(field(row, "better"), ours.better);
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(ours.bound));
            assert!(ours.bound <= 0.25);
        }
        let setup = end_to_end("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn manifest_lists_the_same_per_layer_metrics() {
        let m = manifest();
        let rows = m.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), PER_LAYER.len());
        for (row, ours) in rows.iter().zip(PER_LAYER) {
            assert_eq!(field(row, "name"), ours.name);
            assert_eq!(field(row, "unit"), ours.unit);
            assert_eq!(field(row, "better"), ours.better);
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.0, "count")))
        {
            assert!(name_ok(n), "name {n}");
            assert!(unit_ok(u), "unit {u} of {n}");
            assert!(seen.insert(n), "{n} is used twice");
        }
    }
}
