//! Exact sizes of the client engine's futures: a remote call's future is
//! what a proxy boxes per call and what a blocking body pins on its stack
//! while it waits. One column per build profile; each build checks its
//! own. A change that moves a size pastes the table a failure prints and
//! says why, as the per-call budgets ask. The release column is checked
//! by
//!
//! ```text
//! cargo test --release -p proxy-core --test future_sizes
//! ```
//!
//! The sizes are this toolchain's: a compiler upgrade may move them.

use std::fmt::Write as _;
use std::mem::size_of_val;
use std::sync::{Arc, Mutex};

use naming::NameClient;
use proxy_core::proxies::Remote;
use proxy_core::{Binder, InterfaceDesc, SessionCore};
use rpc::{Channel, ChannelConfig};
use simnet::{Endpoint, NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

/// One future's size in bytes, per build profile.
#[derive(Debug, PartialEq)]
struct Size {
    future: &'static str,
    debug: usize,
    release: usize,
}

#[rustfmt::skip]
const EXPECTED: &[Size] = &[
    Size { future: "Remote::call (stub)", debug: 792, release: 792 },
    Size { future: "Channel::call", debug: 280, release: 280 },
    Size { future: "NameClient::lookup", debug: 352, release: 352 },
    Size { future: "Binder::bind", debug: 2216, release: 2216 },
    Size { future: "SessionCore::attach", debug: 2480, release: 2480 },
    Size { future: "SessionCore::call", debug: 592, release: 592 },
];

/// Each future's size in this build.
fn measure() -> Vec<(&'static str, usize)> {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let far = Endpoint::new(NodeId(0), PortId(1));
    let measured = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::clone(&measured);
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
        let f = ns.lookup(cx, "svc", None);
        sizes.push(("NameClient::lookup", size_of_val(&f)));
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
        *out.lock().unwrap() = sizes;
    });
    sim.run();
    let sizes = std::mem::take(&mut *measured.lock().unwrap());
    sizes
}

#[test]
fn the_client_engines_futures_are_exactly_their_size() {
    let is_release = !cfg!(debug_assertions);
    let actual: Vec<Size> = measure()
        .into_iter()
        .map(|(future, bytes)| {
            // The other profile's column stays as it is.
            let known = EXPECTED.iter().find(|e| e.future == future);
            let other = known.map_or(bytes, |e| if is_release { e.debug } else { e.release });
            let (debug, release) = if is_release {
                (other, bytes)
            } else {
                (bytes, other)
            };
            Size {
                future,
                debug,
                release,
            }
        })
        .collect();
    if actual != EXPECTED {
        let profile = if is_release { "release" } else { "debug" };
        let mut table = String::from("const EXPECTED: &[Size] = &[\n");
        for s in &actual {
            let _ = writeln!(table, "    {s:?},");
        }
        table.push_str("];\n");
        panic!("future sizes moved in the {profile} column; the whole table:\n\n{table}");
    }
}
