//! The binding protocol.
//!
//! [`Binder::bind`] is the proxy principle's installation step: resolve
//! the service name, read the **service-chosen** [`ProxySpec`] from the
//! binding metadata, and instantiate the corresponding proxy in the
//! client's context. The client never picks the strategy.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use naming::{NameClient, NameRecord};
use rpc::{oneways_into, Oneway, RpcError};
use simnet::{AsyncCx, Endpoint};
use wire::{Value, WireError};

use crate::bulk::BulkEngine;
use crate::interface::InterfaceDesc;
use crate::object::FactoryRegistry;
use crate::proxies::{AdaptiveProxy, CachingProxy, MigratoryProxy, StubProxy};
use crate::proxy::{Proxy, ProxyFuture};
use crate::spec::ProxySpec;

/// Everything a custom proxy factory gets to work with.
#[derive(Debug, Clone, Copy)]
pub struct BindContext<'a> {
    /// The service name being bound.
    pub service: &'a str,
    /// The resolved name record.
    pub record: &'a NameRecord,
    /// The service interface from the binding metadata.
    pub iface: &'a InterfaceDesc,
    /// Spec parameters (for [`ProxySpec::Custom`]).
    pub params: &'a Value,
    /// The name server, for proxies that need rebinds.
    pub ns: Endpoint,
    /// Object factories available in this context.
    pub factories: &'a FactoryRegistry,
}

/// What a [`ProxyCtor`] returns: the proxy, once its bind step is done.
pub type BoundProxy<'a> = ProxyFuture<'a, Result<Box<dyn Proxy>, RpcError>>;

/// Constructor for a [`ProxySpec::Custom`] proxy. One-way notifications
/// that arrive while its bind step waits go into the `Vec` it is handed.
pub type ProxyCtor =
    dyn for<'a> Fn(AsyncCx, BindContext<'a>, &'a mut Vec<Oneway>) -> BoundProxy<'a> + Send + Sync;

/// Client-side half of the binding protocol.
pub struct Binder {
    ns: NameClient,
    factories: FactoryRegistry,
    proxy_ctors: HashMap<String, Arc<ProxyCtor>>,
    /// When set, bulk-enabled proxies bound by this binder resolve blob
    /// references through this service (a region-local edge cache)
    /// instead of each ref's origin store.
    bulk_route: Option<String>,
}

impl fmt::Debug for Binder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Binder")
            .field("ns", &self.ns.server())
            .field("factories", &self.factories)
            .finish_non_exhaustive()
    }
}

impl Binder {
    /// Creates a binder talking to the name server at `ns`.
    pub fn new(ns: Endpoint) -> Binder {
        Binder {
            ns: NameClient::new(ns),
            factories: FactoryRegistry::new(),
            proxy_ctors: HashMap::new(),
            bulk_route: None,
        }
    }

    /// Routes bulk resolution through a region-local blob service (an
    /// edge cache) for every bulk-enabled proxy this binder creates
    /// from now on. `None` restores direct-to-origin fetches.
    ///
    /// This is *placement*, not policy: the service still chooses the
    /// spill contract via its published spec; the client context merely
    /// names the nearest replica of the store hierarchy.
    pub fn set_bulk_route(&mut self, route: Option<String>) {
        self.bulk_route = route;
    }

    /// Supplies object factories (needed to host migrated objects).
    pub fn with_factories(mut self, factories: FactoryRegistry) -> Binder {
        self.factories = factories;
        self
    }

    /// The name-server endpoint this binder resolves against.
    pub fn ns_endpoint(&self) -> Endpoint {
        self.ns.server()
    }

    /// Registers a constructor for [`ProxySpec::Custom`] specs of the
    /// given kind. This is the Rust substitute for shipping proxy code:
    /// the client pre-registers implementations, the service selects one
    /// by name (see `DESIGN.md` §6).
    pub fn register_proxy(
        &mut self,
        kind: impl Into<String>,
        ctor: impl for<'a> Fn(AsyncCx, BindContext<'a>, &'a mut Vec<Oneway>) -> BoundProxy<'a>
            + Send
            + Sync
            + 'static,
    ) {
        self.proxy_ctors.insert(kind.into(), Arc::new(ctor));
    }

    /// Binds to `service`: resolves the name and instantiates the proxy
    /// the service asked for. One-way notifications that arrive while it
    /// waits (for the name server, or for the proxy's own bind step) go
    /// into `strays`, for the caller to route.
    ///
    /// # Errors
    ///
    /// * name-service errors (unknown name, transport),
    /// * [`RpcError::Wire`] if the binding metadata is malformed,
    /// * any error from the proxy's own bind step (e.g. subscribe).
    pub async fn bind(
        &mut self,
        cx: AsyncCx,
        service: &str,
        strays: &mut Vec<Oneway>,
    ) -> Result<Box<dyn Proxy>, RpcError> {
        let record = self
            .ns
            .resolve(cx, service, Some(&mut oneways_into(strays)))
            .await?;
        let [spec_v, iface_v] = split_binding_meta(&record.meta)?;
        let spec = ProxySpec::from_value(spec_v)?;
        let iface = InterfaceDesc::from_value(iface_v)?;
        self.instantiate(cx, service, &record, spec, iface, strays)
            .await
    }

    /// Binds, retrying while the name is not yet registered (services
    /// register asynchronously at simulation start).
    ///
    /// # Errors
    ///
    /// The final error if the deadline passes without a successful bind.
    pub async fn bind_wait(
        &mut self,
        cx: AsyncCx,
        service: &str,
        within: std::time::Duration,
        strays: &mut Vec<Oneway>,
    ) -> Result<Box<dyn Proxy>, RpcError> {
        let deadline = cx.with(|cx| cx.now()) + within;
        loop {
            match self.bind(cx, service, strays).await {
                Ok(p) => return Ok(p),
                Err(e) if naming::is_not_found(&e) && cx.with(|cx| cx.now()) < deadline => {
                    self.ns.forget(service);
                    cx.sleep(std::time::Duration::from_millis(1)).await?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    async fn instantiate(
        &mut self,
        cx: AsyncCx,
        service: &str,
        record: &NameRecord,
        spec: ProxySpec,
        iface: InterfaceDesc,
        strays: &mut Vec<Oneway>,
    ) -> Result<Box<dyn Proxy>, RpcError> {
        let (server, ns) = (record.endpoint, self.ns.server());
        let (kind, params) = match spec {
            ProxySpec::Stub => return Ok(Box::new(StubProxy::new(service, server, ns, iface))),
            ProxySpec::Caching(params) => {
                let p = CachingProxy::bind(cx, service, server, ns, iface, params, strays).await?;
                return Ok(Box::new(p));
            }
            ProxySpec::Migratory { threshold } => {
                let factories = self.factories.clone();
                let p = MigratoryProxy::new(service, server, ns, iface, factories, threshold);
                return Ok(Box::new(p));
            }
            ProxySpec::Adaptive(params) => {
                let p = AdaptiveProxy::bind(cx, service, server, ns, iface, params, strays).await?;
                return Ok(Box::new(p));
            }
            ProxySpec::Bulk { inner, params } => {
                let mut bulk = BulkEngine::new(params, ns);
                bulk.set_route(self.bulk_route.clone());
                return match *inner {
                    ProxySpec::Stub => {
                        let mut p = StubProxy::new(service, server, ns, iface);
                        p.enable_bulk(bulk);
                        Ok(Box::new(p))
                    }
                    ProxySpec::Caching(cp) => {
                        let mut p =
                            CachingProxy::bind(cx, service, server, ns, iface, cp, strays).await?;
                        p.enable_bulk(bulk);
                        Ok(Box::new(p))
                    }
                    other => Err(RpcError::Wire(WireError::WrongKind {
                        expected: "bulk inner spec of kind stub or caching",
                        actual: other.kind(),
                    })),
                };
            }
            // The replica proxy lives in the `replication` crate; it
            // registers itself here under this custom kind.
            ProxySpec::Replicated { .. } => ("replicated".to_owned(), spec.to_value()),
            ProxySpec::Custom { kind, params } => (kind, params),
        };
        let ctor = self.proxy_ctors.get(&kind).cloned().ok_or_else(|| {
            RpcError::Remote(rpc::RemoteError::new(
                rpc::ErrorCode::Unavailable,
                format!("no proxy implementation registered for kind `{kind}`"),
            ))
        })?;
        let bind_ctx = BindContext {
            service,
            record,
            iface: &iface,
            params: &params,
            ns,
            factories: &self.factories,
        };
        ctor(cx, bind_ctx, strays).await
    }
}

/// The binding metadata a service registers with the name server,
/// `[spec, iface]`: what a binder reads to build the service's proxy.
pub fn binding_meta(spec: &ProxySpec, iface: &InterfaceDesc) -> Value {
    Value::list([spec.to_value(), iface.to_value()])
}

/// Splits [`binding_meta`] into its spec and interface slots.
///
/// # Errors
///
/// [`WireError::WrongKind`] for any other shape.
pub fn split_binding_meta(meta: &Value) -> Result<&[Value; 2], WireError> {
    meta.as_list()
        .and_then(|slots| slots.try_into().ok())
        .ok_or(WireError::WrongKind {
            expected: "binding metadata [spec, iface]",
            actual: "another shape",
        })
}
