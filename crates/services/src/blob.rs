//! The blob store: chunked bulk payloads behind the proxy surface.
//!
//! This is the storage half of the out-of-band bulk data plane
//! (`proxy_core::bulk`): spilled payloads live here, uploaded and
//! fetched chunk-by-chunk over the pipelined RPC channel. Chunk
//! operations are tagged by blob key, so the existing write-invalidation
//! machinery gives cache coherence for free: a `put_chunk` at the origin
//! pushes `inv [svc, key]` to every subscribed edge cache.
//!
//! [`spawn_edge_cache`] is the hierarchy piece: a region-local process
//! serving the same chunk protocol out of a [`ReadCache`] in front of
//! the origin store — the caching proxy's store and coherence rules,
//! filled through an outstanding-miss table instead of a blocking call.
//! Repeat fetches in a region are served locally; origin writes
//! invalidate the edge through the ordinary subscription. Both hops
//! batch: the misses a client's datagram brings go to the origin in one
//! datagram, the origin answers them in one, and the fills that land
//! together reach each waiting client in one.

use std::borrow::Cow;
use std::collections::BTreeMap;

use bytes::Bytes;
use proxy_core::bulk::{ops, MAX_CHUNK};
use proxy_core::proxies::{note_lookup, ReadCache};
use proxy_core::{
    protocol, CachingParams, Coherence, InterfaceDesc, OpDesc, OpKind, ProxySpec, ProxyStats,
    ServiceObject,
};
use rpc::{
    CallHandle, Channel, ChannelConfig, ErrorCode, RemoteError, Request, RpcError, RpcServer,
    Served,
};
use simnet::{AsyncCx, Ctx, Endpoint, NodeId, Simulation};
use wire::Value;

use crate::{bad_args, malformed};

/// The interface type name (keys the factory registry).
pub const TYPE_NAME: &str = "proxide.blob";

/// Upper bound on a blob's chunk count (with the default 64 KiB chunk
/// this admits blobs up to 4 GiB; the wire-level `MAX_BULK_LEN` caps a
/// blob one byte below that).
pub const MAX_TOTAL_CHUNKS: u64 = 1 << 16;

#[derive(Debug, Clone)]
struct Stored {
    total: u64,
    len: u64,
    crc: u32,
    chunks: Vec<Option<Bytes>>,
}

impl Stored {
    fn complete(&self) -> bool {
        self.chunks.iter().all(Option::is_some)
    }
}

/// Server-side state of the blob store.
#[derive(Debug, Default, Clone)]
pub struct BlobStore {
    map: BTreeMap<String, Stored>,
}

impl BlobStore {
    /// An empty store.
    pub fn new() -> BlobStore {
        BlobStore::default()
    }

    /// The interface every `BlobStore` exports. Chunk reads and writes
    /// are tagged by blob key: edge caches cache per key and origin
    /// writes invalidate per key.
    pub fn interface() -> InterfaceDesc {
        InterfaceDesc::new(
            TYPE_NAME,
            [
                OpDesc::read(ops::GET_CHUNK, "key"),
                OpDesc::read(ops::STAT, "key"),
                OpDesc::write(ops::PUT_CHUNK, "key"),
                OpDesc::write(ops::DEL, "key"),
                OpDesc::read_whole("len"),
            ],
        )
    }

    /// Rebuilds a store from a snapshot (factory entry point).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadArgs`] for a shape [`ServiceObject::snapshot`]
    /// does not produce: a snapshot that cannot be read is refused, not
    /// reset.
    pub fn from_snapshot(v: &Value) -> Result<Box<dyn ServiceObject>, RemoteError> {
        let fields = v
            .as_record()
            .ok_or_else(|| malformed("a blob snapshot is a record"))?;
        let mut store = BlobStore::new();
        for (k, entry) in fields {
            let len = entry.get_u64("len").map_err(bad_args)?;
            let crc = u32::try_from(entry.get_u64("crc").map_err(bad_args)?)
                .map_err(|_| malformed(format!("`{k}`: crc out of range")))?;
            let chunks = entry
                .get_list("chunks")
                .map_err(bad_args)?
                .iter()
                .map(|c| c.as_blob().cloned().map(Some))
                .collect::<Option<Vec<_>>>()
                .filter(|chunks| !chunks.is_empty())
                .ok_or_else(|| malformed(format!("`{k}`: chunks are not blobs")))?;
            store.map.insert(
                k.to_string_owned(),
                Stored {
                    total: chunks.len() as u64,
                    len,
                    crc,
                    chunks,
                },
            );
        }
        Ok(Box::new(store))
    }

    fn put_chunk(&mut self, args: &Value) -> Result<Value, RemoteError> {
        let _p = obs::scope("blob;chunk_put");
        let key = args.get_str("key").map_err(bad_args)?;
        let seq = args.get_u64("seq").map_err(bad_args)?;
        let total = args.get_u64("total").map_err(bad_args)?;
        let len = args.get_u64("len").map_err(bad_args)?;
        let crc = args.get_u64("crc").map_err(bad_args)? as u32;
        let data = args.get_blob("data").map_err(bad_args)?;
        if total == 0 || total > MAX_TOTAL_CHUNKS {
            return Err(RemoteError::new(
                ErrorCode::BadArgs,
                format!("total {total} outside 1..={MAX_TOTAL_CHUNKS}"),
            ));
        }
        if seq >= total {
            return Err(RemoteError::new(
                ErrorCode::BadArgs,
                format!("seq {seq} >= total {total}"),
            ));
        }
        // The hostile-size guard: a chunk larger than MAX_CHUNK is
        // rejected before it is stored (its bytes necessarily arrived,
        // but they are dropped here rather than retained and served).
        if data.len() > MAX_CHUNK {
            return Err(RemoteError::new(
                ErrorCode::BadArgs,
                format!(
                    "chunk of {} bytes exceeds MAX_CHUNK {MAX_CHUNK}",
                    data.len()
                ),
            ));
        }
        if len > wire::MAX_BULK_LEN {
            return Err(RemoteError::new(
                ErrorCode::BadArgs,
                format!("declared length {len} exceeds MAX_BULK_LEN"),
            ));
        }
        let entry = self.map.entry(key.to_owned()).or_insert_with(|| Stored {
            total,
            len,
            crc,
            chunks: vec![None; total as usize],
        });
        if entry.total != total || entry.len != len || entry.crc != crc {
            // A different payload under the same key: a fresh upload
            // supersedes whatever was there (chunk retransmits of the
            // *same* upload match the header and fall through).
            *entry = Stored {
                total,
                len,
                crc,
                chunks: vec![None; total as usize],
            };
        }
        entry.chunks[seq as usize] = Some(data.clone());
        Ok(Value::Null)
    }

    fn get_chunk(&self, args: &Value) -> Result<Value, RemoteError> {
        let _p = obs::scope("blob;chunk_get");
        let key = args.get_str("key").map_err(bad_args)?;
        let seq = args.get_u64("seq").map_err(bad_args)?;
        let entry = self
            .map
            .get(key)
            .ok_or_else(|| RemoteError::new(ErrorCode::NoSuchObject, key.to_owned()))?;
        let chunk = entry.chunks.get(seq as usize).ok_or_else(|| {
            RemoteError::new(
                ErrorCode::BadArgs,
                format!("seq {seq} >= total {}", entry.total),
            )
        })?;
        match chunk {
            Some(data) => Ok(Value::record([("data", Value::Blob(data.clone()))])),
            None => Err(RemoteError::new(
                ErrorCode::Unavailable,
                format!("{key}: chunk {seq} not yet uploaded"),
            )),
        }
    }

    fn stat(&self, args: &Value) -> Result<Value, RemoteError> {
        let key = args.get_str("key").map_err(bad_args)?;
        let entry = self
            .map
            .get(key)
            .ok_or_else(|| RemoteError::new(ErrorCode::NoSuchObject, key.to_owned()))?;
        Ok(Value::record([
            ("len", Value::U64(entry.len)),
            ("crc", Value::U64(u64::from(entry.crc))),
            ("chunks", Value::U64(entry.total)),
            ("complete", Value::Bool(entry.complete())),
        ]))
    }
}

impl ServiceObject for BlobStore {
    fn interface(&self) -> InterfaceDesc {
        BlobStore::interface()
    }

    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        match op {
            ops::PUT_CHUNK => self.put_chunk(args),
            ops::GET_CHUNK => self.get_chunk(args),
            ops::STAT => self.stat(args),
            ops::DEL => {
                let key = args.get_str("key").map_err(bad_args)?;
                Ok(Value::Bool(self.map.remove(key).is_some()))
            }
            "len" => Ok(Value::U64(self.map.len() as u64)),
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }

    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::record(self.map.iter().filter_map(|(k, e)| {
            if !e.complete() {
                return None; // partial uploads do not survive migration
            }
            Some((
                k.clone(),
                Value::record([
                    ("len", Value::U64(e.len)),
                    ("crc", Value::U64(u64::from(e.crc))),
                    (
                        "chunks",
                        Value::list(
                            e.chunks
                                .iter()
                                .map(|c| Value::Blob(c.clone().expect("checked complete"))),
                        ),
                    ),
                ]),
            ))
        })))
    }
}

/// How many origin calls an edge keeps in flight, and how many share a
/// datagram. A client pipelines up to its bulk depth (8 by default) in
/// chunk fetches and single-flight folds requests for the same chunk
/// together, so 64 covers eight clients all missing on different blobs
/// at once; beyond it misses queue on the channel and cost a further
/// origin round trip. The misses staged between two sends leave
/// together, so one client datagram's misses cost one datagram to the
/// origin and one back.
const UPSTREAM_DEPTH: usize = 64;

/// What to do with the cache when an origin call's answer lands.
enum Then {
    /// A read: file the answer under this key of the fetch's tag.
    Install(Vec<u8>),
    /// A write: drop what it staled (the fetch's tag), as the origin's
    /// own invalidation, already on its way, will again.
    Invalidate,
    /// Nothing: an op the interface omits, or a read whose tag was
    /// invalidated while it was in flight — its answer is still what the
    /// origin said when asked, so the waiters get it, but it must not
    /// outlive them in the cache.
    Nothing,
}

/// One origin call in flight and the requests waiting on its answer.
struct Fetch {
    call: CallHandle,
    /// The op's coherence tag (`"*"` for ops the interface omits).
    tag: String,
    then: Then,
    /// `(reply_to, call_id)` of every request waiting on this fetch.
    waiters: Vec<(Endpoint, u64)>,
}

/// The edge's request-side state: the cache and the outstanding-miss
/// table in front of the origin channel.
struct Edge {
    origin: String,
    iface: InterfaceDesc,
    cache: ReadCache,
    misses: Vec<Fetch>,
    stats: ProxyStats,
}

impl Edge {
    /// Serves one request: a cached read is answered on the spot;
    /// anything else is staged on the origin channel (or joins the fetch
    /// already in flight for the same read) and answered when that lands.
    fn on_request(
        &mut self,
        ctx: &mut Ctx,
        up: &mut Channel,
        req: &Request,
    ) -> Option<Result<Value, RemoteError>> {
        self.stats.invocations += 1;
        let waiter = (req.reply_to, req.call_id);
        let desc = self.iface.op(&req.op);
        let tag = desc.map_or(Cow::Borrowed("*"), |d| d.tag(&req.args));
        let then = match desc.map(|d| d.kind) {
            Some(OpKind::Read) => {
                let key = ReadCache::key(&req.op, &req.args);
                if let Some(v) = self.cache.lookup(&tag, &key, ctx.now()) {
                    self.stats.local_hits += 1;
                    note_lookup(ctx, &self.origin, &req.op, true);
                    return Some(Ok(v));
                }
                note_lookup(ctx, &self.origin, &req.op, false);
                Then::Install(key)
            }
            Some(OpKind::Write) => Then::Invalidate,
            None => Then::Nothing,
        };
        self.stats.remote_calls += 1;
        if let Then::Install(key) = &then {
            // Single-flight: a fetch still bound for the cache is for the
            // same bytes this request would get. One its tag's
            // invalidation overtook is not — this request came after the
            // write, so it asks again.
            let inflight = self
                .misses
                .iter_mut()
                .find(|f| matches!(&f.then, Then::Install(k) if k == key));
            if let Some(fetch) = inflight {
                fetch.waiters.push(waiter);
                return None;
            }
        }
        self.misses.push(Fetch {
            call: up.begin_call(ctx, &req.op, req.args.clone()),
            tag: tag.into_owned(),
            then,
            waiters: vec![waiter],
        });
        None
    }

    /// Applies an origin invalidation to the cache and to the reads in
    /// flight for that tag.
    fn on_oneway(&mut self, oneway: &rpc::Oneway) {
        let Some(tag) = self.cache.on_invalidate(oneway) else {
            return;
        };
        self.stats.invalidations_rx += 1;
        self.stale_in_flight(tag);
    }

    /// Keeps the answers of reads now in flight under `tag` out of the
    /// cache (their waiters still get them).
    fn stale_in_flight(&mut self, tag: &str) {
        for fetch in &mut self.misses {
            let staled = tag == "*" || fetch.tag == tag || fetch.tag == "*";
            if staled && matches!(fetch.then, Then::Install(_)) {
                fetch.then = Then::Nothing;
            }
        }
    }

    /// Answers the waiters of every fetch whose origin call has settled,
    /// all in one completion: the fills one origin reply batch brought
    /// reach each client as one datagram.
    fn settle(&mut self, ctx: &mut Ctx, up: &mut Channel, rpc: &mut RpcServer) {
        let mut answers = Vec::new();
        let mut at = 0;
        while at < self.misses.len() {
            let Some(result) = up.try_take(self.misses[at].call) else {
                at += 1;
                continue;
            };
            // `remove`, not `swap_remove`: fills landing at the same
            // instant are answered in the order their requests came.
            let fetch = self.misses.remove(at);
            let result = result.map_err(|e| match e {
                RpcError::Remote(re) => re,
                e => RemoteError::new(ErrorCode::Unavailable, e.to_string()),
            });
            match (&result, fetch.then) {
                (Ok(v), Then::Install(key)) => {
                    self.cache.insert(fetch.tag, key, v.clone(), ctx.now());
                }
                (Ok(_), Then::Invalidate) => {
                    // The origin tells every sharer of the tag but the
                    // writer, and to the origin that is us: a read it
                    // served before this write may still be on its way
                    // back, and no invalidation will follow it.
                    self.cache.invalidate_tag(&fetch.tag);
                    self.stale_in_flight(&fetch.tag);
                }
                _ => {}
            }
            answers.extend(
                fetch
                    .waiters
                    .into_iter()
                    .map(|(reply_to, call_id)| (reply_to, call_id, result.clone())),
            );
        }
        rpc.complete(ctx, answers);
    }
}

/// Spawns a region-local edge cache for the blob store registered under
/// `origin`: an `async` process serving the same chunk protocol out of a
/// [`ReadCache`] kept coherent with the origin by invalidation.
///
/// The edge registers itself in the name service under `name` (with a
/// plain stub spec — its *clients* need no smarts; the caching happens
/// here). Repeat `get_chunk` fetches for a key are served from the edge
/// cache without touching the WAN; a write at the origin pushes an
/// invalidation to the edge's subscription, after which the next fetch
/// re-reads through to the origin.
///
/// Once registered, the edge never waits on its origin. It is one loop
/// over one mailbox: a hit is answered at once even while misses are in
/// flight; a miss is staged on a long-lived pipelined, batching channel
/// to the origin and its reply deferred until the fill lands, and
/// concurrent requests for the same chunk wait on the one fetch. A cold
/// get therefore costs one origin round trip, whatever else the region
/// is asking for, and on a loss-free network one datagram each way on
/// each hop: the misses of one client datagram travel to the origin
/// together, the origin answers them in one reply batch, and the fills
/// that batch settles are completed together — one datagram per waiting
/// client.
pub fn spawn_edge_cache(
    sim: &Simulation,
    node: NodeId,
    ns: Endpoint,
    name: impl Into<String>,
    origin: impl Into<String>,
    capacity: usize,
) -> Endpoint {
    let name = name.into();
    let origin = origin.into();
    let label = format!("edge-{name}");
    sim.spawn_async(label, node, move |cx| {
        edge_cache(cx, ns, name, origin, capacity)
    })
}

/// The edge's body: resolve the origin, subscribe there, register, then
/// serve.
async fn edge_cache(cx: AsyncCx, ns: Endpoint, name: String, origin: String, capacity: usize) {
    let mut nsc = naming::NameClient::new(ns);
    // The origin registers asynchronously; wait for it.
    let record = loop {
        match nsc.lookup(cx, &origin, None).await {
            Ok(r) => break r,
            Err(e) if naming::is_not_found(&e) => {
                if cx.sleep(std::time::Duration::from_millis(1)).await.is_err() {
                    return;
                }
            }
            Err(RpcError::Stopped) => return,
            Err(e) => panic!("edge cache failed to resolve origin `{origin}`: {e}"),
        }
    };
    let iface = proxy_core::split_binding_meta(&record.meta)
        .ok()
        .and_then(|[_, iface]| InterfaceDesc::from_value(iface).ok())
        .unwrap_or_else(BlobStore::interface);
    let mut up = Channel::new(
        origin.clone(),
        record.endpoint,
        ChannelConfig::with_depth(UPSTREAM_DEPTH).batched(UPSTREAM_DEPTH),
    );
    // Nobody calls the edge before it registers, so set-up may wait on
    // one call at a time and let it own the mailbox. Subscribing over the
    // origin channel itself gives its timers a first look at the path
    // before the first burst of misses.
    let subscribe = cx.with(|cx| {
        let cb = rpc::endpoint_to_value(cx.endpoint());
        up.begin_call(cx, protocol::OP_SUBSCRIBE, cb)
    });
    let waited = up.wait_async(cx, Some(subscribe), None).await;
    match waited.and_then(|()| up.try_take(subscribe).expect("the call settled")) {
        Ok(_) => {}
        Err(RpcError::Stopped) => return,
        Err(e) => panic!("edge cache failed to subscribe at origin `{origin}`: {e}"),
    }
    let meta = proxy_core::binding_meta(&ProxySpec::Stub, &iface);
    let me = cx.with(|cx| cx.endpoint());
    match nsc.register(cx, &name, me, meta).await {
        Ok(_) => {}
        Err(RpcError::Stopped) => return,
        Err(e) => panic!("edge cache `{name}` failed to register: {e}"),
    }
    let mut rpc = RpcServer::new();
    let mut edge = Edge {
        origin,
        iface,
        cache: ReadCache::new(CachingParams {
            coherence: Coherence::Invalidate,
            capacity,
        }),
        misses: Vec::new(),
        stats: ProxyStats::default(),
    };
    loop {
        // Park until a datagram arrives or an origin call is due for
        // retransmission, whichever is first.
        let msg = match up.next_deadline() {
            Some(deadline) => cx.recv_deadline(deadline).await,
            None => cx.recv().await.map(Some),
        };
        let Ok(msg) = msg else { return };
        cx.with(|cx| {
            if let Some(msg) = msg {
                if !up.offer(cx, &msg) {
                    let served = rpc
                        .handle_deferred(cx, &msg, |ctx, req| edge.on_request(ctx, &mut up, req));
                    if let Served::Oneway(o) = served {
                        edge.on_oneway(&o);
                    }
                }
            }
            up.tick(cx);
            edge.settle(cx, &mut up, &mut rpc);
            cx.obs()
                .set_proxy_stats(cx.name(), &edge.origin, edge.stats);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetworkConfig, Simulation};

    fn with_object(f: impl FnOnce(&mut Ctx, &mut BlobStore) + Send + 'static) {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        sim.spawn("driver", NodeId(0), move |ctx| {
            let mut store = BlobStore::new();
            f(ctx, &mut store);
        });
        sim.run();
    }

    fn put_args(key: &str, seq: u64, total: u64, len: u64, crc: u32, data: &[u8]) -> Value {
        Value::record([
            ("key", Value::str(key)),
            ("seq", Value::U64(seq)),
            ("total", Value::U64(total)),
            ("len", Value::U64(len)),
            ("crc", Value::U64(u64::from(crc))),
            ("data", Value::blob(data.to_vec())),
        ])
    }

    #[test]
    fn chunked_put_get_roundtrip() {
        with_object(|ctx, store| {
            let payload: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
            let crc = wire::crc32(&payload);
            for (seq, chunk) in payload.chunks(128).enumerate() {
                store
                    .dispatch(
                        ctx,
                        ops::PUT_CHUNK,
                        &put_args("k", seq as u64, 3, 300, crc, chunk),
                    )
                    .unwrap();
            }
            let stat = store
                .dispatch(ctx, ops::STAT, &Value::record([("key", Value::str("k"))]))
                .unwrap();
            assert_eq!(stat.get_u64("len").unwrap(), 300);
            assert_eq!(stat.get("complete"), Some(&Value::Bool(true)));
            let mut out = Vec::new();
            for seq in 0..3 {
                let rep = store
                    .dispatch(
                        ctx,
                        ops::GET_CHUNK,
                        &Value::record([("key", Value::str("k")), ("seq", Value::U64(seq))]),
                    )
                    .unwrap();
                out.extend_from_slice(rep.get_blob("data").unwrap());
            }
            assert_eq!(out, payload);
        });
    }

    #[test]
    fn retransmitted_chunk_is_idempotent_and_new_upload_supersedes() {
        with_object(|ctx, store| {
            let a = vec![1u8; 64];
            let crc_a = wire::crc32(&a);
            store
                .dispatch(ctx, ops::PUT_CHUNK, &put_args("k", 0, 1, 64, crc_a, &a))
                .unwrap();
            // Duplicate delivery of the same chunk: same result.
            store
                .dispatch(ctx, ops::PUT_CHUNK, &put_args("k", 0, 1, 64, crc_a, &a))
                .unwrap();
            let stat = store
                .dispatch(ctx, ops::STAT, &Value::record([("key", Value::str("k"))]))
                .unwrap();
            assert_eq!(stat.get("complete"), Some(&Value::Bool(true)));
            // A different payload under the same key resets the entry.
            let b = vec![2u8; 32];
            let crc_b = wire::crc32(&b);
            store
                .dispatch(ctx, ops::PUT_CHUNK, &put_args("k", 0, 2, 64, crc_b, &b))
                .unwrap();
            let stat = store
                .dispatch(ctx, ops::STAT, &Value::record([("key", Value::str("k"))]))
                .unwrap();
            assert_eq!(stat.get("complete"), Some(&Value::Bool(false)));
        });
    }

    #[test]
    fn hostile_sizes_rejected() {
        with_object(|ctx, store| {
            let big = vec![0u8; MAX_CHUNK + 1];
            let err = store
                .dispatch(ctx, ops::PUT_CHUNK, &put_args("k", 0, 1, 1, 0, &big))
                .unwrap_err();
            assert_eq!(err.code, ErrorCode::BadArgs);
            let err = store
                .dispatch(
                    ctx,
                    ops::PUT_CHUNK,
                    &put_args("k", 0, MAX_TOTAL_CHUNKS + 1, 1, 0, &[1]),
                )
                .unwrap_err();
            assert_eq!(err.code, ErrorCode::BadArgs);
            let err = store
                .dispatch(ctx, ops::PUT_CHUNK, &put_args("k", 5, 2, 1, 0, &[1]))
                .unwrap_err();
            assert_eq!(err.code, ErrorCode::BadArgs);
            assert_eq!(
                store.dispatch(ctx, "len", &Value::Null).unwrap(),
                Value::U64(0),
                "rejected chunks must not be retained"
            );
        });
    }

    #[test]
    fn missing_key_and_chunk_errors() {
        with_object(|ctx, store| {
            let err = store
                .dispatch(
                    ctx,
                    ops::GET_CHUNK,
                    &Value::record([("key", Value::str("nope")), ("seq", Value::U64(0))]),
                )
                .unwrap_err();
            assert_eq!(err.code, ErrorCode::NoSuchObject);
            store
                .dispatch(ctx, ops::PUT_CHUNK, &put_args("k", 0, 2, 64, 7, &[1]))
                .unwrap();
            let err = store
                .dispatch(
                    ctx,
                    ops::GET_CHUNK,
                    &Value::record([("key", Value::str("k")), ("seq", Value::U64(1))]),
                )
                .unwrap_err();
            assert_eq!(err.code, ErrorCode::Unavailable);
        });
    }

    #[test]
    fn snapshot_keeps_only_complete_blobs() {
        with_object(|ctx, store| {
            let data = vec![9u8; 16];
            let crc = wire::crc32(&data);
            store
                .dispatch(ctx, ops::PUT_CHUNK, &put_args("done", 0, 1, 16, crc, &data))
                .unwrap();
            store
                .dispatch(
                    ctx,
                    ops::PUT_CHUNK,
                    &put_args("partial", 0, 2, 32, 0, &data),
                )
                .unwrap();
            let snap = store.snapshot().unwrap();
            let mut restored = BlobStore::from_snapshot(&snap).unwrap();
            assert_eq!(
                restored.dispatch(ctx, "len", &Value::Null).unwrap(),
                Value::U64(1)
            );
            let rep = restored
                .dispatch(
                    ctx,
                    ops::GET_CHUNK,
                    &Value::record([("key", Value::str("done")), ("seq", Value::U64(0))]),
                )
                .unwrap();
            assert_eq!(rep.get_blob("data").unwrap().as_ref(), &data[..]);
        });
    }

    #[test]
    fn interface_tags_chunk_ops_by_key() {
        let i = BlobStore::interface();
        assert!(i.is_read(ops::GET_CHUNK));
        assert!(i.is_write(ops::PUT_CHUNK));
        let args = Value::record([("key", Value::str("k7")), ("seq", Value::U64(3))]);
        assert_eq!(i.op(ops::GET_CHUNK).unwrap().tag(&args), "k7");
        assert_eq!(i.op(ops::PUT_CHUNK).unwrap().tag(&args), "k7");
    }
}
