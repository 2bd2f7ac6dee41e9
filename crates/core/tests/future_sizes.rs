//! The sizes of the client engine's futures, printed, not judged: a
//! remote call's future is what a proxy boxes per call and what a
//! blocking body pins on its stack while it waits. Run it in the build
//! that is measured:
//!
//! ```text
//! cargo test --release -p proxy-core --test future_sizes -- --ignored --nocapture
//! ```

use std::mem::size_of_val;

use naming::NameClient;
use proxy_core::proxies::Remote;
use proxy_core::{Binder, InterfaceDesc, SessionCore};
use rpc::{Channel, ChannelConfig};
use simnet::{Endpoint, NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

#[test]
#[ignore = "prints sizes; run by hand with --ignored --nocapture"]
fn print_the_client_engines_future_sizes() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let far = Endpoint::new(NodeId(0), PortId(1));
    sim.spawn_async("probe", NodeId(1), move |cx| async move {
        let mut sizes = Vec::new();
        let mut remote = Remote::new("svc", far, far, InterfaceDesc::new("svc", []));
        let mut strays = Vec::new();
        let f = remote.call(cx, "get", Value::Null, &mut strays);
        sizes.push(("Remote::call (stub)", size_of_val(&f)));
        drop(f);
        let mut channel = Channel::new("", far, ChannelConfig::with_depth(1));
        let f = channel.call(cx, "", "get", Value::Null, None);
        sizes.push(("Channel::call", size_of_val(&f)));
        drop(f);
        let mut ns = NameClient::new(far);
        let f = ns.lookup_async(cx, "svc", None);
        sizes.push(("NameClient::lookup_async", size_of_val(&f)));
        drop(f);
        let mut binder = Binder::new(far);
        let f = binder.bind(cx, "svc", &mut strays);
        sizes.push(("Binder::bind", size_of_val(&f)));
        drop(f);
        let mut core = SessionCore::new(far);
        let f = core.attach(cx, "svc");
        sizes.push(("SessionCore::attach", size_of_val(&f)));
        drop(f);
        let object = Box::new(services::kv::KvStore::new());
        let local = core.host_local("local", object);
        let f = core.call(cx, local, "get", Value::Null);
        sizes.push(("SessionCore::call", size_of_val(&f)));
        drop(f);
        for (future, bytes) in sizes {
            println!("{future:<28} {bytes:>6} B");
        }
    });
    sim.run();
}
