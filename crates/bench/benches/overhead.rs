//! E8 — Real-CPU-time overheads (Criterion).
//!
//! Everything measured here is wall-clock cost on the host, not
//! simulated time: the marshalling path every call pays, the framing
//! checksum, and the cost of dispatching through the proxy abstraction
//! (dynamic dispatch + self-describing arguments) versus a plain method
//! call — the paper's "encapsulation must not tax invocation" claim at
//! the CPU level.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use proxy_core::{OpDesc, SessionCore};
use services::kv::KvStore;
use simnet::{NetworkConfig, NodeId, Simulation};
use wire::{crc32, crc32_bytewise, decode, decode_bytes, encode, frame, unframe, Encoder, Value};

fn kv_request(value_len: usize) -> Value {
    Value::record([
        ("op", Value::str("put")),
        ("key", Value::str("some/interesting/key")),
        ("value", Value::blob(vec![0xA5u8; value_len])),
    ])
}

fn bench_marshalling(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    for size in [64usize, 1024, 16 * 1024] {
        let v = kv_request(size);
        let encoded = encode(&v);
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode", size), &v, |b, v| {
            b.iter(|| encode(std::hint::black_box(v)))
        });
        group.bench_with_input(BenchmarkId::new("decode", size), &encoded, |b, e| {
            b.iter(|| decode(std::hint::black_box(e)).unwrap())
        });
        // Zero-copy decode: Str/Blob payloads alias the input frame
        // instead of being copied out — the new hot path.
        let shared = bytes::Bytes::copy_from_slice(&encoded);
        group.bench_with_input(BenchmarkId::new("decode_bytes", size), &shared, |b, s| {
            b.iter(|| decode_bytes(std::hint::black_box(s)).unwrap())
        });
        // Pooled encode: one scratch buffer reused across messages vs a
        // fresh allocation per `encode` call.
        group.bench_with_input(BenchmarkId::new("encode_pooled", size), &v, |b, v| {
            let mut enc = Encoder::with_capacity(encoded.len());
            b.iter(|| enc.encode(std::hint::black_box(v)))
        });
        group.bench_with_input(BenchmarkId::new("frame+crc", size), &v, |b, v| {
            b.iter(|| frame(std::hint::black_box(v)))
        });
        let framed = frame(&v);
        group.bench_with_input(BenchmarkId::new("unframe+verify", size), &framed, |b, f| {
            b.iter(|| unframe(std::hint::black_box(f)).unwrap())
        });
    }
    group.finish();
}

fn bench_crc(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for size in [1024usize, 64 * 1024] {
        let data = vec![0x5Au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("crc32", size), &data, |b, d| {
            b.iter(|| crc32(std::hint::black_box(d)))
        });
        // The byte-at-a-time oracle `crc32`'s kernels are verified
        // against — kept here so the speedup stays measured.
        group.bench_with_input(BenchmarkId::new("bytewise", size), &data, |b, d| {
            b.iter(|| crc32_bytewise(std::hint::black_box(d)))
        });
    }
    group.finish();
}

fn bench_value_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("value");
    let v = kv_request(128);
    group.bench_function("record_get", |b| {
        b.iter(|| std::hint::black_box(&v).get_str("key").unwrap().len())
    });
    let op = OpDesc::write("put", "key");
    group.bench_function("op_tag", |b| b.iter(|| op.tag(std::hint::black_box(&v))));
    let spec = proxy_core::ProxySpec::Caching(proxy_core::CachingParams::default());
    group.bench_function("proxyspec_roundtrip", |b| {
        b.iter(|| {
            let enc = std::hint::black_box(&spec).to_value();
            proxy_core::ProxySpec::from_value(&enc).unwrap()
        })
    });
    group.finish();
}

/// Dispatch through the full proxy abstraction (trait object, runtime
/// routing, self-describing args) for a local object vs. what a plain
/// method call would do. Measured by running N in-context invocations
/// inside a simulation and dividing the wall time.
fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    group.bench_function("local_proxy_invoke", |b| {
        b.iter_custom(|iters| {
            let mut sim = Simulation::new(NetworkConfig::lan(), 0);
            let ns = simnet::Endpoint::new(NodeId(0), simnet::PortId(1));
            let start = std::sync::Arc::new(std::sync::Mutex::new(Duration::ZERO));
            let s2 = std::sync::Arc::clone(&start);
            sim.spawn("host", NodeId(0), move |ctx| {
                let mut rt = SessionCore::new(ns);
                let kv = rt.host_local("kv", Box::new(KvStore::new()));
                let args = Value::record([("key", Value::str("k")), ("value", Value::str("v"))]);
                let t0 = Instant::now();
                for _ in 0..iters {
                    rt.invoke(ctx, kv, "put", args.clone()).unwrap();
                }
                *s2.lock().unwrap() = t0.elapsed();
            });
            sim.run();
            let elapsed = *start.lock().unwrap();
            elapsed
        })
    });
    group.bench_function("direct_btreemap_insert", |b| {
        let mut map = std::collections::BTreeMap::new();
        b.iter(|| {
            map.insert(
                std::hint::black_box("k".to_string()),
                std::hint::black_box("v".to_string()),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
        .sample_size(30);
    targets = bench_marshalling, bench_crc, bench_value_ops, bench_dispatch
}
criterion_main!(benches);
