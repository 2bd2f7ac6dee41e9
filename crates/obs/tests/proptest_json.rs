//! Property test of the one JSON model: any `RunReport` reads back from
//! its own JSON and prints the same bytes again.
//!
//! The generated reports carry `u64`s on both sides of 2^53 (those from
//! 2^53 up are written as decimal strings, so none is rounded), map keys
//! with quotes, backslashes, control characters and non-BMP characters,
//! exemplars with and without a breakdown, a flight recording and a
//! profile.

use std::collections::BTreeMap;

use obs::{
    CallStats, Exemplar, ExemplarBreakdown, FrameStat, GaugeStat, MetricsSnapshot, ObsPlaneReport,
    OpLatency, ProfileReport, ProxyStats, ReplyReport, RpcReport, RunMeta, RunReport, ServeStats,
    ServerStats, SpanId, SpanReport, TimeSeriesReport, WindowReport,
};
use proptest::prelude::*;
use proptest::TestRng;

/// Map keys and names: quote, backslash, control characters, a non-BMP
/// character and the separators the report itself uses.
const NAME: &str = "[a\"\\\u{1}\u{1f}\n\t𝄞é/@;]{0,6}";

fn num(rng: &mut TestRng) -> u64 {
    prop_oneof![0u64..1_000, any::<u64>()].generate(rng)
}

fn name(rng: &mut TestRng) -> String {
    NAME.generate(rng)
}

fn map<T>(rng: &mut TestRng, value: impl Fn(&mut TestRng) -> T) -> BTreeMap<String, T> {
    (0..rng.below(4)).map(|_| (name(rng), value(rng))).collect()
}

fn maybe<T>(rng: &mut TestRng, value: impl Fn(&mut TestRng) -> T) -> Option<T> {
    any::<bool>().generate(rng).then(|| value(rng))
}

/// A struct whose every field is a random `u64`.
macro_rules! nums {
    ($rng:expr, $ty:ident { $($field:ident),* $(,)? }) => {
        $ty { $($field: num($rng)),* }
    };
}

fn latency(rng: &mut TestRng) -> OpLatency {
    nums!(
        rng,
        OpLatency {
            count,
            min_ns,
            max_ns,
            mean_ns,
            p50_ns,
            p95_ns,
            p99_ns
        }
    )
}

fn exemplar(rng: &mut TestRng) -> Exemplar {
    Exemplar {
        span: SpanId(num(rng)),
        service: name(rng),
        op: name(rng),
        start_ns: num(rng),
        latency_ns: num(rng),
        threshold_ns: num(rng),
        p99_ns: num(rng),
        trigger: prop_oneof![Just("p99"), Just("slo")].generate(rng),
        ok: any::<bool>().generate(rng),
        breakdown: maybe(rng, |rng| {
            nums!(
                rng,
                ExemplarBreakdown {
                    queue_ns,
                    wire_ns,
                    server_ns,
                    retransmit_ns,
                    retransmissions,
                    drops,
                }
            )
        }),
    }
}

fn window(rng: &mut TestRng) -> WindowReport {
    WindowReport {
        start_ns: num(rng),
        counters: map(rng, num),
        gauges: map(rng, |rng| {
            nums!(
                rng,
                GaugeStat {
                    last,
                    min,
                    max,
                    sum,
                    samples
                }
            )
        }),
        hists: map(rng, latency),
    }
}

fn report() -> BoxedStrategy<RunReport> {
    BoxedStrategy::new(|rng| RunReport {
        end_time_ns: num(rng),
        net: nums!(
            rng,
            MetricsSnapshot {
                msgs_sent,
                msgs_delivered,
                msgs_dropped,
                msgs_duplicated,
                msgs_blackholed,
                bytes_sent,
                events_dispatched,
                processes_spawned,
                processes_peak,
                sched_time_inversions,
            }
        ),
        rpc: RpcReport {
            client: nums!(
                rng,
                CallStats {
                    calls,
                    retries,
                    timeouts,
                    stale_replies,
                    strays_dropped
                }
            ),
            server: nums!(
                rng,
                ServeStats {
                    executed,
                    duplicates_suppressed,
                    duplicates_dropped,
                    oneways,
                    undecodable,
                }
            ),
        },
        proxies: map(rng, |rng| {
            nums!(
                rng,
                ProxyStats {
                    invocations,
                    local_hits,
                    remote_calls,
                    invalidations_rx,
                    migrations,
                    checkins,
                    rebinds,
                    strategy_switches,
                    datagrams_discarded,
                    bulk_spills,
                    bulk_resolves,
                }
            )
        }),
        servers: map(rng, |rng| {
            nums!(
                rng,
                ServerStats {
                    dispatched,
                    writes,
                    invalidations_sent,
                    checkouts,
                    checkins,
                    recalls_sent,
                    unavailable,
                    checkpoints,
                }
            )
        }),
        ops: map(rng, latency),
        spans: SpanReport {
            started: num(rng),
            completed: num(rng),
            open: num(rng),
            oneways: num(rng),
            retransmissions: num(rng),
            replies: nums!(
                rng,
                ReplyReport {
                    matched,
                    late,
                    unknown_span,
                    untracked
                }
            ),
        },
        obs: nums!(
            rng,
            ObsPlaneReport {
                spans_retired,
                spans_sampled,
                spans_resident,
                spans_resident_peak,
                span_table_bytes,
                span_table_bytes_peak,
                self_ns,
                self_calls,
            }
        ),
        trace_evicted: num(rng),
        meta: RunMeta {
            seed: Some(u64::MAX),
            mode: maybe(rng, name),
            config_hash: maybe(rng, name),
            git_rev: maybe(rng, name),
            date: maybe(rng, name),
        },
        timeseries: maybe(rng, |rng| TimeSeriesReport {
            width_ns: num(rng),
            windows_evicted: num(rng),
            late_dropped: num(rng),
            windows: (0..rng.below(3)).map(|_| window(rng)).collect(),
        }),
        profile: maybe(rng, |rng| ProfileReport {
            frames: map(rng, |rng| nums!(rng, FrameStat { calls, wall_ns })),
            frames_resident: num(rng),
            frames_evicted: num(rng),
            self_ns: num(rng),
            self_calls: num(rng),
        }),
        exemplars: (0..rng.below(3)).map(|_| exemplar(rng)).collect(),
        exemplars_suppressed: num(rng),
    })
}

proptest! {
    /// `from_json` reads back every field, exactly: re-printing what it
    /// read reproduces the bytes.
    #[test]
    fn run_report_round_trips_byte_for_byte(r in report()) {
        let text = r.to_json();
        let back = RunReport::from_json(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back.to_json(), text);
        prop_assert_eq!(back.meta.seed, Some(u64::MAX));
        prop_assert!(text.contains("\"seed\":\"18446744073709551615\""), "{text}");
    }
}
