//! The network model: latency, jitter, loss, duplication, reordering,
//! link overrides and partitions.
//!
//! The model is intentionally simple and fully deterministic given the
//! simulation seed: every random decision is drawn from the scheduler's
//! single seeded RNG, in event order.
//!
//! Same-node messages model IPC: they pay [`NetworkConfig::local_latency`]
//! and are exempt from loss, duplication, jitter and partitions. Cross-node
//! messages pay latency + per-byte cost + jitter and are subject to every
//! configured fault.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use rand::Rng;

use crate::addr::NodeId;
use crate::time::SimTime;

/// Static parameters of the simulated network.
///
/// ```
/// use simnet::NetworkConfig;
/// use std::time::Duration;
///
/// let cfg = NetworkConfig::lan().with_loss(0.01);
/// assert_eq!(cfg.loss, 0.01);
/// assert!(cfg.remote_latency > Duration::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// One-way latency between two ports on the same node (IPC cost).
    pub local_latency: Duration,
    /// Default one-way latency between distinct nodes.
    pub remote_latency: Duration,
    /// Additional transmission delay charged per payload byte
    /// (bandwidth model). Applies to cross-node messages only.
    pub per_byte: Duration,
    /// Uniform jitter as a fraction of the base latency: each cross-node
    /// message's latency is multiplied by a factor drawn uniformly from
    /// `[1 - jitter, 1 + jitter]`. Must be in `[0, 1)`.
    pub jitter: f64,
    /// Probability a cross-node message is silently dropped.
    pub loss: f64,
    /// Probability a cross-node message is delivered twice.
    pub duplicate: f64,
    /// Extra random delay drawn uniformly from `[0, reorder_window]` per
    /// cross-node message; a nonzero window lets later sends overtake
    /// earlier ones.
    pub reorder_window: Duration,
}

impl NetworkConfig {
    /// A fault-free local-area network: 10µs IPC, 500µs one-way remote
    /// latency, 1ns/byte (~1 GB/s), no jitter/loss/duplication.
    pub fn lan() -> NetworkConfig {
        NetworkConfig {
            local_latency: Duration::from_micros(10),
            remote_latency: Duration::from_micros(500),
            per_byte: Duration::from_nanos(1),
            jitter: 0.0,
            loss: 0.0,
            duplicate: 0.0,
            reorder_window: Duration::ZERO,
        }
    }

    /// A wide-area network: 50µs IPC, 20ms one-way remote latency,
    /// 10ns/byte, 10% jitter.
    pub fn wan() -> NetworkConfig {
        NetworkConfig {
            local_latency: Duration::from_micros(50),
            remote_latency: Duration::from_millis(20),
            per_byte: Duration::from_nanos(10),
            jitter: 0.10,
            loss: 0.0,
            duplicate: 0.0,
            reorder_window: Duration::ZERO,
        }
    }

    /// Sets the drop probability for cross-node messages.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not in `[0, 1]`.
    pub fn with_loss(mut self, loss: f64) -> NetworkConfig {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0,1]");
        self.loss = loss;
        self
    }

    /// Sets the duplication probability for cross-node messages.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn with_duplicate(mut self, p: f64) -> NetworkConfig {
        assert!((0.0..=1.0).contains(&p), "duplicate must be in [0,1]");
        self.duplicate = p;
        self
    }

    /// Sets the jitter fraction for cross-node messages.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is not in `[0, 1)`.
    pub fn with_jitter(mut self, jitter: f64) -> NetworkConfig {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0,1)");
        self.jitter = jitter;
        self
    }

    /// Sets the default cross-node latency.
    pub fn with_remote_latency(mut self, d: Duration) -> NetworkConfig {
        self.remote_latency = d;
        self
    }

    /// Sets the reorder window for cross-node messages.
    pub fn with_reorder_window(mut self, d: Duration) -> NetworkConfig {
        self.reorder_window = d;
        self
    }
}

impl Default for NetworkConfig {
    /// The [`NetworkConfig::lan`] profile.
    fn default() -> NetworkConfig {
        NetworkConfig::lan()
    }
}

/// An unordered node pair, used as the key for per-link state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LinkKey(NodeId, NodeId);

impl LinkKey {
    fn new(a: NodeId, b: NodeId) -> LinkKey {
        if a <= b {
            LinkKey(a, b)
        } else {
            LinkKey(b, a)
        }
    }
}

/// What the network decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Deliver at `at`, and a second copy at `duplicate` if duplicated.
    Deliver {
        at: SimTime,
        duplicate: Option<SimTime>,
    },
    /// Dropped by the loss model.
    Dropped,
    /// Discarded: src and dst are partitioned or a node is down.
    Blackholed,
}

/// Mutable network state: configuration plus runtime faults.
///
/// Owned by the simulation; processes manipulate it through
/// [`crate::Ctx::net`] and test drivers through
/// [`crate::Simulation::net`].
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    latency_overrides: HashMap<LinkKey, Duration>,
    partitions: HashSet<LinkKey>,
    down: HashSet<NodeId>,
}

impl Network {
    pub(crate) fn new(config: NetworkConfig) -> Network {
        Network {
            config,
            latency_overrides: HashMap::new(),
            partitions: HashSet::new(),
            down: HashSet::new(),
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Replaces the drop probability (runtime fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not in `[0, 1]`.
    pub fn set_loss(&mut self, loss: f64) {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0,1]");
        self.config.loss = loss;
    }

    /// Overrides the one-way latency between a specific node pair
    /// (both directions). Used to model topologies where some replicas
    /// are nearer than others.
    pub fn set_link_latency(&mut self, a: NodeId, b: NodeId, d: Duration) {
        self.latency_overrides.insert(LinkKey::new(a, b), d);
    }

    /// Cuts the link between `a` and `b`: messages in either direction are
    /// blackholed until [`Network::heal`].
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitions.insert(LinkKey::new(a, b));
    }

    /// Restores the link between `a` and `b`.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitions.remove(&LinkKey::new(a, b));
    }

    /// Whether the pair is currently partitioned.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions.contains(&LinkKey::new(a, b))
    }

    /// Marks a node as crashed: all messages to or from it are blackholed.
    pub fn take_down(&mut self, n: NodeId) {
        self.down.insert(n);
    }

    /// Brings a crashed node back.
    pub fn bring_up(&mut self, n: NodeId) {
        self.down.remove(&n);
    }

    /// Base one-way latency between two nodes, before jitter and the
    /// per-byte charge.
    pub fn base_latency(&self, src: NodeId, dst: NodeId) -> Duration {
        if src == dst {
            self.config.local_latency
        } else {
            self.latency_overrides
                .get(&LinkKey::new(src, dst))
                .copied()
                .unwrap_or(self.config.remote_latency)
        }
    }

    /// Decides the fate and delivery time(s) of a message sent `now`.
    pub(crate) fn plan<R: Rng>(
        &self,
        src: NodeId,
        dst: NodeId,
        size: usize,
        now: SimTime,
        rng: &mut R,
    ) -> Fate {
        if self.down.contains(&src) || self.down.contains(&dst) {
            return Fate::Blackholed;
        }
        let local = src == dst;
        if !local && self.partitions.contains(&LinkKey::new(src, dst)) {
            return Fate::Blackholed;
        }
        if local {
            // IPC: fixed cost, fault-exempt.
            return Fate::Deliver {
                at: now + self.config.local_latency,
                duplicate: None,
            };
        }
        if self.config.loss > 0.0 && rng.gen_bool(self.config.loss) {
            return Fate::Dropped;
        }
        let base = self.base_latency(src, dst)
            + Duration::from_nanos(
                (self.config.per_byte.as_nanos() as u64).saturating_mul(size as u64),
            );
        let duplicated = self.config.duplicate > 0.0 && rng.gen_bool(self.config.duplicate);
        // Each copy draws its own jitter and reordering, first copy first.
        let mut arrival = || {
            let mut lat = base;
            if self.config.jitter > 0.0 {
                let factor = 1.0 + rng.gen_range(-self.config.jitter..=self.config.jitter);
                lat = Duration::from_nanos((base.as_nanos() as f64 * factor) as u64);
            }
            if !self.config.reorder_window.is_zero() {
                lat += Duration::from_nanos(
                    rng.gen_range(0..=self.config.reorder_window.as_nanos() as u64),
                );
            }
            now + lat
        };
        let at = arrival();
        Fate::Deliver {
            at,
            duplicate: duplicated.then(arrival),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn local_messages_are_fault_exempt() {
        let mut net = Network::new(NetworkConfig::lan().with_loss(1.0).with_duplicate(1.0));
        net.partition(NodeId(0), NodeId(1));
        let fate = net.plan(NodeId(0), NodeId(0), 100, SimTime::ZERO, &mut rng());
        assert_eq!(
            fate,
            Fate::Deliver {
                at: SimTime::ZERO + Duration::from_micros(10),
                duplicate: None,
            }
        );
    }

    #[test]
    fn total_loss_drops_every_remote_message() {
        let net = Network::new(NetworkConfig::lan().with_loss(1.0));
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(
                net.plan(NodeId(0), NodeId(1), 10, SimTime::ZERO, &mut r),
                Fate::Dropped
            );
        }
    }

    #[test]
    fn duplication_yields_two_copies() {
        let net = Network::new(NetworkConfig::lan().with_duplicate(1.0));
        match net.plan(NodeId(0), NodeId(1), 0, SimTime::ZERO, &mut rng()) {
            Fate::Deliver { duplicate, .. } => assert!(duplicate.is_some()),
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn partition_blackholes_both_directions() {
        let mut net = Network::new(NetworkConfig::lan());
        net.partition(NodeId(1), NodeId(2));
        assert!(net.is_partitioned(NodeId(2), NodeId(1)));
        let mut r = rng();
        assert_eq!(
            net.plan(NodeId(1), NodeId(2), 1, SimTime::ZERO, &mut r),
            Fate::Blackholed
        );
        assert_eq!(
            net.plan(NodeId(2), NodeId(1), 1, SimTime::ZERO, &mut r),
            Fate::Blackholed
        );
        net.heal(NodeId(2), NodeId(1));
        assert!(!net.is_partitioned(NodeId(1), NodeId(2)));
        assert!(matches!(
            net.plan(NodeId(1), NodeId(2), 1, SimTime::ZERO, &mut r),
            Fate::Deliver { .. }
        ));
    }

    #[test]
    fn down_node_blackholes_even_local_traffic() {
        let mut net = Network::new(NetworkConfig::lan());
        net.take_down(NodeId(3));
        let mut r = rng();
        assert_eq!(
            net.plan(NodeId(3), NodeId(3), 1, SimTime::ZERO, &mut r),
            Fate::Blackholed
        );
        net.bring_up(NodeId(3));
        assert!(matches!(
            net.plan(NodeId(3), NodeId(3), 1, SimTime::ZERO, &mut r),
            Fate::Deliver { .. }
        ));
    }

    #[test]
    fn per_byte_cost_scales_with_size() {
        let net = Network::new(NetworkConfig::lan());
        let mut r = rng();
        let small = match net.plan(NodeId(0), NodeId(1), 0, SimTime::ZERO, &mut r) {
            Fate::Deliver { at, .. } => at,
            _ => unreachable!(),
        };
        let big = match net.plan(NodeId(0), NodeId(1), 1_000_000, SimTime::ZERO, &mut r) {
            Fate::Deliver { at, .. } => at,
            _ => unreachable!(),
        };
        assert_eq!(big - small, Duration::from_millis(1));
    }

    #[test]
    fn link_override_changes_latency() {
        let mut net = Network::new(NetworkConfig::lan());
        net.set_link_latency(NodeId(0), NodeId(1), Duration::from_millis(7));
        assert_eq!(
            net.base_latency(NodeId(1), NodeId(0)),
            Duration::from_millis(7)
        );
        assert_eq!(
            net.base_latency(NodeId(0), NodeId(2)),
            NetworkConfig::lan().remote_latency
        );
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let net = Network::new(NetworkConfig::lan().with_jitter(0.2));
        let base = NetworkConfig::lan().remote_latency.as_nanos() as f64;
        let mut r = rng();
        for _ in 0..200 {
            match net.plan(NodeId(0), NodeId(1), 0, SimTime::ZERO, &mut r) {
                Fate::Deliver { at, .. } => {
                    let lat = at.as_nanos() as f64;
                    assert!(lat >= base * 0.8 - 1.0 && lat <= base * 1.2 + 1.0);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "loss must be in [0,1]")]
    fn invalid_loss_rejected() {
        let _ = NetworkConfig::lan().with_loss(1.5);
    }
}
