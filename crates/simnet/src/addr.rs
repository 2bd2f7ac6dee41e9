//! Addressing: nodes, ports and endpoints.
//!
//! A *node* models a machine. Each simulated process owns one or more
//! *ports* on its node; a `(node, port)` pair is an [`Endpoint`], the unit
//! of message addressing (the analogue of a socket address).

use std::fmt;

/// Identifier of a simulated machine.
///
/// ```
/// use simnet::NodeId;
/// let n = NodeId(3);
/// assert_eq!(n.to_string(), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a port on a node.
///
/// Ports below [`PortId::EPHEMERAL_BASE`] are "well-known" and may be bound
/// explicitly (services listen on them); ports at or above it are assigned
/// automatically to spawned processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u32);

impl PortId {
    /// First automatically-assigned port number.
    pub const EPHEMERAL_BASE: u32 = 1 << 16;

    /// Whether this port was assigned automatically rather than bound
    /// to a well-known number.
    pub const fn is_ephemeral(self) -> bool {
        self.0 >= Self::EPHEMERAL_BASE
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A message destination: a port on a node.
///
/// ```
/// use simnet::{Endpoint, NodeId, PortId};
/// let ep = Endpoint::new(NodeId(1), PortId(80));
/// assert_eq!(ep.to_string(), "n1:p80");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Endpoint {
    /// The node this endpoint lives on.
    pub node: NodeId,
    /// The port on that node.
    pub port: PortId,
}

impl Endpoint {
    /// Creates an endpoint from its parts.
    pub const fn new(node: NodeId, port: PortId) -> Endpoint {
        Endpoint { node, port }
    }

    /// Whether `other` is on the same node (a local, same-machine peer).
    pub const fn is_colocated_with(self, other: Endpoint) -> bool {
        self.node.0 == other.node.0
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

/// Identifier of a simulated process (scheduler-internal, exposed for
/// diagnostics and trace output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colocation_is_by_node() {
        let a = Endpoint::new(NodeId(1), PortId(1));
        let b = Endpoint::new(NodeId(1), PortId(2));
        let c = Endpoint::new(NodeId(2), PortId(1));
        assert!(a.is_colocated_with(b));
        assert!(!a.is_colocated_with(c));
    }

    #[test]
    fn ephemeral_port_classification() {
        assert!(!PortId(80).is_ephemeral());
        assert!(PortId(PortId::EPHEMERAL_BASE).is_ephemeral());
        assert!(PortId(PortId::EPHEMERAL_BASE + 7).is_ephemeral());
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(0).to_string(), "n0");
        assert_eq!(ProcId(4).to_string(), "proc4");
        assert_eq!(Endpoint::new(NodeId(2), PortId(9)).to_string(), "n2:p9");
    }

    #[test]
    fn endpoint_ordering_is_stable() {
        let a = Endpoint::new(NodeId(1), PortId(5));
        let b = Endpoint::new(NodeId(2), PortId(0));
        assert!(a < b);
    }
}
