//! Stable storage and checkpointing: crash-survivable service state.
//!
//! The system the paper came from (SOS) treated objects as persistent;
//! this module supplies the minimal machinery for that: a per-node
//! *stable store* (the simulated disk) into which a [`crate::ServiceServer`]
//! periodically checkpoints its object's snapshot, and a recovery path
//! that re-instantiates the object from the last checkpoint after a
//! crash.
//!
//! A checkpoint is `[object, windows]`: the object's snapshot and, in one
//! save with it, the server's reply windows
//! ([`rpc::RpcServer::encode_windows`]), taken once the reply of the
//! write that made it due is recorded. The two cannot disagree after
//! recovery: a call whose effect the checkpoint holds has its reply
//! there too, and one whose effect it lacks is unknown to it and runs.
//!
//! Semantics are deliberately classic checkpoint/restart: writes since
//! the last checkpoint are lost on a crash; the name service is
//! re-registered on recovery (bumping the binding generation), and
//! proxies recover by re-resolving after their calls time out and
//! re-sending them under their ids — no client code changes, which is
//! the proxy principle applied to *failure* transparency, and no call
//! is run twice.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::NodeId;
use wire::Value;

/// A handle to the simulation's stable storage: one logical disk per
/// node, addressed by `(node, key)`. Cloning shares the storage.
///
/// Stable storage survives process crashes by construction (it lives
/// outside every simulated process); it does *not* survive dropping the
/// `Simulation`, mirroring a disk that outlives processes but not the
/// machine room.
#[derive(Debug, Clone, Default)]
pub struct StableStore {
    inner: Arc<Mutex<HashMap<(NodeId, String), Value>>>,
}

impl StableStore {
    /// Creates empty stable storage.
    pub fn new() -> StableStore {
        StableStore::default()
    }

    /// Durably saves `value` under `(node, key)`, replacing any previous
    /// checkpoint.
    pub fn save(&self, node: NodeId, key: &str, value: Value) {
        self.inner.lock().insert((node, key.to_owned()), value);
    }

    /// Loads the last checkpoint for `(node, key)`, if any.
    pub fn load(&self, node: NodeId, key: &str) -> Option<Value> {
        self.inner.lock().get(&(node, key.to_owned())).cloned()
    }
}

/// Checkpointing policy for a service: how it checkpoints, and where
/// it recovers from.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Shared stable storage (the node's disk).
    pub store: StableStore,
    /// Take a checkpoint after this many successful writes.
    pub every_writes: u64,
}

impl CheckpointPolicy {
    /// Checkpoints after every `every_writes` writes.
    ///
    /// # Panics
    ///
    /// Panics if `every_writes` is zero.
    pub fn every(store: StableStore, every_writes: u64) -> CheckpointPolicy {
        assert!(every_writes > 0, "checkpoint interval must be positive");
        CheckpointPolicy {
            store,
            every_writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_load_roundtrip() {
        let s = StableStore::new();
        assert_eq!(s.load(NodeId(1), "svc"), None);
        s.save(NodeId(1), "svc", Value::U64(7));
        assert_eq!(s.load(NodeId(1), "svc"), Some(Value::U64(7)));
        assert_eq!(s.load(NodeId(2), "svc"), None, "disks are per node");
        assert_eq!(s.load(NodeId(1), "other"), None);
    }

    #[test]
    fn save_replaces() {
        let s = StableStore::new();
        s.save(NodeId(1), "svc", Value::U64(1));
        s.save(NodeId(1), "svc", Value::U64(2));
        assert_eq!(s.load(NodeId(1), "svc"), Some(Value::U64(2)));
    }

    #[test]
    fn clones_share_storage() {
        let a = StableStore::new();
        let b = a.clone();
        a.save(NodeId(3), "x", Value::Bool(true));
        assert_eq!(b.load(NodeId(3), "x"), Some(Value::Bool(true)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = CheckpointPolicy::every(StableStore::new(), 0);
    }
}
