//! Packets and addressing.

use longlook_wire::quic::QuicPacket;
use longlook_wire::tcp::TcpSegment;

/// Identifies a node (host, router, proxy) in the simulated world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Demultiplexing key: identifies a transport connection end-to-end.
/// The 4-tuple of a real network collapses to a single u64 here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// How the receiving host processes this packet — the kernel/userspace
/// distinction at the heart of the paper's mobile findings (Sec 5.2,
/// Fig 13): QUIC packets are decrypted and processed in an application
/// process, TCP segments in the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PktClass {
    /// Processed in userspace (QUIC over UDP).
    Userspace,
    /// Processed in the kernel (TCP).
    Kernel,
}

/// What a packet carries between endpoints: the typed protocol structure,
/// handed to the peer by value. Nothing is serialized; the link layers
/// charge the analytic wire size the packet was built with. Links never
/// look inside: loss and corruption drop whole packets, they never forge
/// bytes.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A typed QUIC packet carried in memory.
    Quic(QuicPacket),
    /// A typed TCP segment carried in memory.
    Tcp(TcpSegment),
}

impl From<QuicPacket> for Payload {
    fn from(p: QuicPacket) -> Payload {
        Payload::Quic(p)
    }
}

impl From<TcpSegment> for Payload {
    fn from(s: TcpSegment) -> Payload {
        Payload::Tcp(s)
    }
}

/// A simulated packet.
///
/// The payload carries the typed *protocol control information*; bulk
/// object data is synthetic, accounted only by `wire_size`, which is the
/// full on-the-wire size the link models charge for. This keeps a 210 MB
/// download from allocating 210 MB.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Sending node.
    pub src: NodeId,
    /// Destination node (must be adjacent via a link).
    pub dst: NodeId,
    /// Connection demux key.
    pub flow: FlowId,
    /// Receive-side processing class.
    pub class: PktClass,
    /// Total bytes on the wire (headers + control + synthetic payload).
    pub wire_size: u32,
    /// Protocol control information.
    pub payload: Payload,
}

impl Packet {
    /// Convenience constructor.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        flow: FlowId,
        class: PktClass,
        wire_size: u32,
        payload: impl Into<Payload>,
    ) -> Self {
        Packet {
            src,
            dst,
            flow,
            class,
            wire_size,
            payload: payload.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_fields() {
        let p = Packet::new(
            NodeId(1),
            NodeId(2),
            FlowId(7),
            PktClass::Userspace,
            1350,
            TcpSegment::control(3, 0, 0, 100),
        );
        assert_eq!(p.src, NodeId(1));
        assert_eq!(p.dst, NodeId(2));
        assert_eq!(p.flow, FlowId(7));
        assert_eq!(p.wire_size, 1350);
        assert!(matches!(p.payload, Payload::Tcp(s) if s.seq == 3));
    }

    #[test]
    fn payload_conversions() {
        let q = QuicPacket {
            conn_id: 1,
            pn: 2,
            frames: Vec::new(),
        };
        assert!(matches!(Payload::from(q), Payload::Quic(_)));
        let t = TcpSegment::control(0, 0, 0, 100);
        let p: Payload = t.into();
        assert!(matches!(p, Payload::Tcp(_)));
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(NodeId(1));
        s.insert(NodeId(1));
        assert_eq!(s.len(), 1);
        assert!(FlowId(1) < FlowId(2));
    }
}
