//! The system under test, as the benchmark sees it.
//!
//! Every call that makes the program do work is made from this file and
//! nowhere else, so a PR that changes a public API knows the surface it
//! must keep (README lists it). Elsewhere the benchmark only builds and
//! reads `Value`s and reads the fields of the reports returned here. The
//! benchmark measures each layer from outside: the wrappers below put one
//! of the benchmark's own spans (see [`crate::trace`]) around the call and
//! add nothing to the program. With recording off a wrapper costs one
//! relaxed atomic load.
//!
//! Clients use [`SessionCore`] for both surfaces, blocking and poll-driven.

use std::time::Duration;

use crate::trace;

pub use proxy_core::{
    AsyncHandle, BindFuture, BulkParams, CachingParams, CallFuture, Coherence, InterfaceDesc,
    ProxyHandle, ProxySpec, ServiceObject, SessionCore,
};
pub use rpc::{CallHandle, Channel, ChannelStats, RemoteError, Request, RpcError};
pub use simnet::{Ctx, Endpoint, NodeId, Poll, ProcCx, Process, Simulation};
pub use wire::Value;

// -- simnet ---------------------------------------------------------------

/// The LAN profile with `jitter` added, so that simulated latencies depend
/// on the seed and not only on message sizes.
pub fn lan(jitter: f64) -> simnet::NetworkConfig {
    simnet::NetworkConfig::lan().with_jitter(jitter)
}

pub fn lossy_lan(jitter: f64, loss: f64, duplicate: f64) -> simnet::NetworkConfig {
    lan(jitter).with_loss(loss).with_duplicate(duplicate)
}

pub fn wan() -> simnet::NetworkConfig {
    simnet::NetworkConfig::wan()
}

pub fn new_sim(
    config: simnet::NetworkConfig,
    seed: u64,
    domains: usize,
    threads: usize,
) -> Simulation {
    let sim = Simulation::new(config, seed);
    if domains > 1 {
        sim.with_domains(domains).with_threads(threads)
    } else {
        sim
    }
}

pub fn set_link_latency(sim: &Simulation, a: NodeId, b: NodeId, d: Duration) {
    sim.net().set_link_latency(a, b, d);
}

pub fn spawn<F>(sim: &Simulation, name: String, node: NodeId, body: F) -> Endpoint
where
    F: FnOnce(&mut Ctx) + Send + 'static,
{
    trace::span("simnet.spawn", 0, || sim.spawn(name, node, body))
}

pub fn spawn_at<F>(sim: &Simulation, name: &str, node: NodeId, port: u32, body: F) -> Endpoint
where
    F: FnOnce(&mut Ctx) + Send + 'static,
{
    trace::span("simnet.spawn", 0, || {
        sim.spawn_at(name, node, simnet::PortId(port), body)
    })
}

pub fn spawn_poll<P: Process>(sim: &Simulation, name: String, node: NodeId, p: P) -> Endpoint {
    trace::span("simnet.spawn", 0, || sim.spawn_poll(name, node, p))
}

/// Arms the program's own profiler through its public switch (traced runs
/// only; the scheduler's `sched;round;*` frames come from here).
pub fn enable_profile(sim: &Simulation) {
    sim.obs().enable_profile(4096);
}

/// `Simulation::run`: drives the simulation to quiescence.
pub fn run(sim: &mut Simulation) -> simnet::RunReport {
    trace::blocking_span("simnet.run", 0, || sim.run())
}

pub fn obs_report(sim: &Simulation) -> obs::RunReport {
    sim.obs_report()
}

pub fn now_ns(ctx: &Ctx) -> u64 {
    ctx.now().as_nanos()
}

/// Asks for a timer wake of a poll-driven process at simulated `at_ns`.
pub fn wake_at_ns(cx: &mut ProcCx, at_ns: u64) {
    cx.wake_at(simnet::SimTime::from_nanos(at_ns));
}

/// Blocks the calling thread-backed process for `d` of simulated time.
/// Returns `false` when the simulation is shutting down.
pub fn sleep(ctx: &mut Ctx, d: Duration) -> bool {
    ctx.sleep(d).is_ok()
}

// Raw datagram surface, used by the bare-scheduler probes only.

/// Sends a received datagram's payload back to its sender.
pub fn echo(ctx: &Ctx, m: &simnet::Message) {
    ctx.send(m.src, m.payload.clone());
}

pub fn send_value(ctx: &Ctx, dst: Endpoint, v: &Value) {
    ctx.send(dst, wire::frame(v));
}

pub fn recv(ctx: &mut Ctx) -> Option<simnet::Message> {
    ctx.recv().ok()
}

pub fn try_recv(cx: &mut ProcCx) -> Option<simnet::Message> {
    cx.try_recv().ok().flatten()
}

// -- naming ---------------------------------------------------------------

pub fn spawn_name_server(sim: &Simulation, node: NodeId) -> Endpoint {
    trace::span("simnet.spawn", 0, || naming::spawn_name_server(sim, node))
}

/// A directory holding `names` entries `svc0..`, for the lookup probe.
pub fn directory_with(names: usize, ep: Endpoint) -> naming::Directory {
    let dir = naming::Directory::new();
    for i in 0..names {
        dir.register(&format!("svc{i}"), ep, Value::Null);
    }
    dir
}

pub fn directory_lookup(dir: &naming::Directory, name: &str) -> bool {
    dir.lookup(name).is_some()
}

// -- core: services -------------------------------------------------------

/// A service object that delegates to the program's own and times
/// `dispatch`: the benchmark's view of the `services` layer.
struct TimedObject(Box<dyn ServiceObject>);

impl ServiceObject for TimedObject {
    fn interface(&self) -> InterfaceDesc {
        self.0.interface()
    }

    fn dispatch(&mut self, ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        trace::span("services.dispatch", 0, || self.0.dispatch(ctx, op, args))
    }

    fn snapshot(&self) -> Result<Value, RemoteError> {
        self.0.snapshot()
    }
}

fn spawn_service(
    sim: &Simulation,
    name: &str,
    spec: ProxySpec,
    node: NodeId,
    ns: Endpoint,
    object: impl Fn() -> Box<dyn ServiceObject> + Send + Sync + 'static,
) -> Endpoint {
    trace::span("simnet.spawn", 0, || {
        proxy_core::ServiceBuilder::new(name)
            .spec(spec)
            .object(move || Box::new(TimedObject(object())))
            .spawn(sim, node, ns)
    })
}

/// Publishes an empty `KvStore` under `name` with the given proxy spec.
pub fn spawn_kv(
    sim: &Simulation,
    name: &str,
    spec: ProxySpec,
    node: NodeId,
    ns: Endpoint,
) -> Endpoint {
    spawn_service(sim, name, spec, node, ns, || {
        Box::new(services::kv::KvStore::new())
    })
}

/// Publishes a `KvStore` that starts out holding `entries`.
pub fn spawn_kv_prefilled(
    sim: &Simulation,
    name: &str,
    spec: ProxySpec,
    node: NodeId,
    ns: Endpoint,
    entries: Vec<(String, Value)>,
) -> Endpoint {
    let snapshot = Value::record(entries);
    spawn_service(sim, name, spec, node, ns, move || {
        services::kv::KvStore::from_snapshot(&snapshot).expect("a record is a valid kv snapshot")
    })
}

pub fn spawn_blob_store(sim: &Simulation, name: &str, node: NodeId, ns: Endpoint) -> Endpoint {
    spawn_service(sim, name, ProxySpec::Stub, node, ns, || {
        Box::new(services::blob::BlobStore::new())
    })
}

pub fn spawn_edge_cache(
    sim: &Simulation,
    node: NodeId,
    ns: Endpoint,
    name: String,
    origin: &str,
    capacity: usize,
) -> Endpoint {
    trace::span("simnet.spawn", 0, || {
        services::blob::spawn_edge_cache(sim, node, ns, name, origin, capacity)
    })
}

// -- core: the blocking client surface ------------------------------------

pub fn session(ns: Endpoint) -> SessionCore {
    SessionCore::new(ns)
}

/// A session whose bulk references resolve through the edge cache `route`.
pub fn session_routed(ns: Endpoint, route: String) -> SessionCore {
    let mut core = SessionCore::new(ns);
    core.binder_mut().set_bulk_route(Some(route));
    core
}

pub fn bind(core: &mut SessionCore, ctx: &mut Ctx, service: &str) -> Result<ProxyHandle, RpcError> {
    trace::blocking_span("core.bind", 0, || core.bind(ctx, service))
}

/// `SessionCore::invoke`. In a traced run the span is named by how the
/// call ended: `core.hit` when the proxy's `local_hits` counter moved (a
/// hit never blocks, so the span is pure self time), `core.invoke_remote`
/// (blocking) otherwise.
pub fn invoke(
    core: &mut SessionCore,
    ctx: &mut Ctx,
    handle: ProxyHandle,
    op: &str,
    args: Value,
    req: u64,
) -> Result<Value, RpcError> {
    if !trace::enabled() {
        return core.invoke(ctx, handle, op, args);
    }
    let hits_before = core.stats(handle).local_hits;
    let open = trace::begin();
    let r = core.invoke(ctx, handle, op, args);
    let stopped = trace::stop(open);
    if core.stats(handle).local_hits != hits_before {
        trace::label(stopped, "core.hit", req, false);
    } else {
        trace::label(stopped, "core.invoke_remote", req, true);
    }
    r
}

pub fn shutdown(core: &mut SessionCore, ctx: &mut Ctx) {
    trace::blocking_span("core.shutdown", 0, || core.shutdown(ctx));
}

// -- core: the poll-driven client surface ---------------------------------

pub fn bind_async(core: &mut SessionCore, cx: &mut ProcCx, service: &str, req: u64) -> BindFuture {
    trace::span("core.bind_async", req, || core.bind_async(cx, service))
}

pub fn poll_bind(
    core: &mut SessionCore,
    cx: &mut ProcCx,
    f: BindFuture,
    req: u64,
) -> Poll<Result<AsyncHandle, RpcError>> {
    trace::span("core.poll_bind", req, || core.poll_bind(cx, f))
}

pub fn invoke_async(
    core: &mut SessionCore,
    cx: &mut ProcCx,
    h: AsyncHandle,
    op: &str,
    args: Value,
    req: u64,
) -> CallFuture {
    trace::span("core.invoke_async", req, || {
        core.invoke_async(cx, h, op, args)
    })
}

pub fn poll_call(
    core: &mut SessionCore,
    cx: &mut ProcCx,
    f: CallFuture,
    req: u64,
) -> Poll<Result<Value, RpcError>> {
    trace::span("core.poll_call", req, || core.poll_call(cx, f))
}

pub fn async_stats(core: &SessionCore, h: AsyncHandle) -> ChannelStats {
    core.async_stats(h)
}

// -- rpc ------------------------------------------------------------------

/// A pipelined channel: `depth` calls in flight, `batch` per datagram,
/// exponential retransmission from 10 ms with `attempts` tries.
pub fn channel(
    service: &str,
    server: Endpoint,
    depth: usize,
    batch: usize,
    attempts: u32,
) -> Channel {
    let policy = rpc::RetryPolicy::exponential(Duration::from_millis(10), attempts);
    let cfg = rpc::ChannelConfig::with_depth(depth)
        .batched(batch)
        .with_policy(policy);
    Channel::new(service, server, cfg)
}

pub fn begin_call(ch: &mut Channel, ctx: &mut Ctx, op: &str, args: Value, req: u64) -> CallHandle {
    trace::span("rpc.begin_call", req, || ch.begin_call(ctx, op, args))
}

pub fn wait(ch: &mut Channel, ctx: &mut Ctx, h: CallHandle, req: u64) -> Result<Value, RpcError> {
    trace::blocking_span("rpc.wait", req, || ch.wait(ctx, h))
}

pub fn is_settled(ch: &Channel, h: CallHandle) -> bool {
    ch.is_settled(h)
}

pub fn channel_stats(ch: &Channel) -> ChannelStats {
    ch.stats
}

/// `RpcServer::serve` with the caller's handler, until the run ends.
pub fn serve(ctx: &mut Ctx, handler: impl FnMut(&mut Ctx, &Request) -> Result<Value, RemoteError>) {
    rpc::RpcServer::new().serve(ctx, handler, |_, _| {});
}

pub fn no_such_op(op: &str) -> RemoteError {
    RemoteError::new(rpc::ErrorCode::NoSuchOp, op.to_owned())
}

/// An endpoint such as a client process gets (first ephemeral port).
pub fn client_endpoint(node: NodeId) -> Endpoint {
    Endpoint::new(node, simnet::PortId(simnet::PortId::EPHEMERAL_BASE))
}

/// The wire value of a request as `rpc` would send it (probe input).
pub fn request_value(reply_to: Endpoint, op: &str, args: Value) -> Value {
    Request {
        call_id: 1_000_003,
        reply_to,
        object: String::new(),
        op: op.to_owned(),
        args,
        span: 4_242,
    }
    .to_value()
}

/// The wire value of a successful reply as `rpc` would send it.
pub fn reply_value(result: Value) -> Value {
    rpc::Reply {
        call_id: 1_000_003,
        result: Ok(result),
        span: 4_242,
    }
    .to_value()
}

// -- wire (probes) --------------------------------------------------------

/// Times `wire::frame` and `wire::unframe_bytes` over `values`, `iters`
/// passes each. The loops live here because the datagram type (`Bytes`)
/// belongs to the program, and the benchmark depends on nothing else.
pub struct WireProbe {
    pub frame_ns_per_msg: f64,
    pub unframe_ns_per_msg: f64,
}

pub fn wire_probe(values: &[Value], iters: usize) -> WireProbe {
    use std::hint::black_box;
    use std::time::Instant;
    let msgs = (values.len() * iters) as f64;
    let t0 = Instant::now();
    for _ in 0..iters {
        for v in values {
            black_box(wire::frame(black_box(v)));
        }
    }
    let frame_ns = t0.elapsed().as_nanos() as f64;
    let frames: Vec<_> = values.iter().map(wire::frame).collect();
    let t0 = Instant::now();
    for _ in 0..iters {
        for f in &frames {
            black_box(wire::unframe_bytes(black_box(f)).expect("own frame decodes"));
        }
    }
    let unframe_ns = t0.elapsed().as_nanos() as f64;
    WireProbe {
        frame_ns_per_msg: frame_ns / msgs,
        unframe_ns_per_msg: unframe_ns / msgs,
    }
}

pub fn crc32(data: &[u8]) -> u32 {
    wire::crc32(data)
}
