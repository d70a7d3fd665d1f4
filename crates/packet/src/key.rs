//! Flow keys and per-packet records.

use core::fmt;

/// Transport protocol carried in the IPv4 header.
///
/// The three protocols the paper's datasets contain (TCP, UDP, ICMP) get
/// dedicated variants; anything else is preserved verbatim in
/// [`Protocol::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// TCP (IP protocol number 6).
    Tcp,
    /// UDP (IP protocol number 17).
    Udp,
    /// ICMP (IP protocol number 1).
    Icmp,
    /// Any other IP protocol, identified by its protocol number.
    Other(u8),
}

impl Protocol {
    /// Builds a `Protocol` from the raw IPv4 protocol number.
    #[must_use]
    pub fn from_number(n: u8) -> Self {
        match n {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }

    /// Returns the raw IPv4 protocol number.
    #[must_use]
    pub fn number(self) -> u8 {
        match self {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(n) => n,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
            Protocol::Icmp => write!(f, "icmp"),
            Protocol::Other(n) => write!(f, "proto{n}"),
        }
    }
}

impl From<u8> for Protocol {
    fn from(n: u8) -> Self {
        Protocol::from_number(n)
    }
}

/// The L4 5-tuple identifying a flow: source/destination IPv4 address,
/// source/destination port and transport protocol — 104 bits, matching the
/// WSAF entry layout in the paper (§IV-D).
///
/// For ICMP and other port-less protocols the port fields are zero.
///
/// # Example
///
/// ```
/// use instameasure_packet::{FlowKey, Protocol};
/// let k = FlowKey::new([1, 2, 3, 4], [5, 6, 7, 8], 1234, 80, Protocol::Tcp);
/// assert_eq!(k.to_bytes().len(), 13); // 104 bits
/// assert_eq!(FlowKey::from_bytes(k.to_bytes()), k);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address, big-endian byte order.
    pub src_ip: [u8; 4],
    /// Destination IPv4 address, big-endian byte order.
    pub dst_ip: [u8; 4],
    /// Source transport port (0 for port-less protocols).
    pub src_port: u16,
    /// Destination transport port (0 for port-less protocols).
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl FlowKey {
    /// Creates a flow key from its five components.
    #[must_use]
    pub fn new(
        src_ip: [u8; 4],
        dst_ip: [u8; 4],
        src_port: u16,
        dst_port: u16,
        protocol: Protocol,
    ) -> Self {
        FlowKey { src_ip, dst_ip, src_port, dst_port, protocol }
    }

    /// Serializes the key into its canonical 13-byte (104-bit) wire layout:
    /// `src_ip ‖ dst_ip ‖ src_port ‖ dst_port ‖ protocol`.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 13] {
        let mut b = [0u8; 13];
        b[0..4].copy_from_slice(&self.src_ip);
        b[4..8].copy_from_slice(&self.dst_ip);
        b[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        b[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        b[12] = self.protocol.number();
        b
    }

    /// Reconstructs a flow key from its canonical 13-byte layout.
    #[must_use]
    pub fn from_bytes(b: [u8; 13]) -> Self {
        FlowKey {
            src_ip: [b[0], b[1], b[2], b[3]],
            dst_ip: [b[4], b[5], b[6], b[7]],
            src_port: u16::from_be_bytes([b[8], b[9]]),
            dst_port: u16::from_be_bytes([b[10], b[11]]),
            protocol: Protocol::from_number(b[12]),
        }
    }

    /// Source IPv4 address as a host-order integer (used by the multi-core
    /// dispatcher, which hashes on the popcount of the source address).
    #[must_use]
    pub fn src_ip_u32(&self) -> u32 {
        u32::from_be_bytes(self.src_ip)
    }

    /// Destination IPv4 address as a host-order integer.
    #[must_use]
    pub fn dst_ip_u32(&self) -> u32 {
        u32::from_be_bytes(self.dst_ip)
    }

    /// The flow key with source and destination swapped (the reverse
    /// direction of the same conversation).
    #[must_use]
    pub fn reversed(&self) -> Self {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}:{} -> {}.{}.{}.{}:{} ({})",
            self.src_ip[0],
            self.src_ip[1],
            self.src_ip[2],
            self.src_ip[3],
            self.src_port,
            self.dst_ip[0],
            self.dst_ip[1],
            self.dst_ip[2],
            self.dst_ip[3],
            self.dst_port,
            self.protocol
        )
    }
}

/// The minimal per-packet record the measurement pipeline consumes.
///
/// `wire_len` is the on-the-wire frame length in bytes (what the byte
/// counter accumulates); `ts_nanos` is the capture timestamp in nanoseconds
/// since an arbitrary epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRecord {
    /// The flow this packet belongs to.
    pub key: FlowKey,
    /// On-the-wire frame length in bytes.
    pub wire_len: u16,
    /// Capture timestamp, nanoseconds since trace start.
    pub ts_nanos: u64,
}

impl PacketRecord {
    /// Creates a packet record.
    #[must_use]
    pub fn new(key: FlowKey, wire_len: u16, ts_nanos: u64) -> Self {
        PacketRecord { key, wire_len, ts_nanos }
    }

    /// Size of the canonical wire encoding in bytes (13-byte key +
    /// 2-byte length + 8-byte timestamp) — what the live-service ingest
    /// protocol ships per packet.
    pub const WIRE_BYTES: usize = 23;

    /// Serializes the record into its canonical 23-byte wire layout:
    /// `key ‖ wire_len (BE) ‖ ts_nanos (BE)`.
    #[must_use]
    pub fn to_wire_bytes(&self) -> [u8; Self::WIRE_BYTES] {
        let mut b = [0u8; Self::WIRE_BYTES];
        b[0..13].copy_from_slice(&self.key.to_bytes());
        b[13..15].copy_from_slice(&self.wire_len.to_be_bytes());
        b[15..23].copy_from_slice(&self.ts_nanos.to_be_bytes());
        b
    }

    /// Reconstructs a record from its canonical 23-byte wire layout.
    /// Total — every 23-byte string is a valid record, so frame decoding
    /// needs no per-record error path.
    #[must_use]
    pub fn from_wire_bytes(b: [u8; Self::WIRE_BYTES]) -> Self {
        let mut key = [0u8; 13];
        key.copy_from_slice(&b[0..13]);
        PacketRecord {
            key: FlowKey::from_bytes(key),
            wire_len: u16::from_be_bytes([b[13], b[14]]),
            ts_nanos: u64::from_be_bytes(b[15..23].try_into().expect("8-byte slice")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_roundtrip() {
        for n in 0..=255u8 {
            assert_eq!(Protocol::from_number(n).number(), n);
        }
    }

    #[test]
    fn protocol_display() {
        assert_eq!(Protocol::Tcp.to_string(), "tcp");
        assert_eq!(Protocol::Udp.to_string(), "udp");
        assert_eq!(Protocol::Icmp.to_string(), "icmp");
        assert_eq!(Protocol::Other(89).to_string(), "proto89");
    }

    #[test]
    fn key_bytes_roundtrip() {
        let k = FlowKey::new([10, 20, 30, 40], [50, 60, 70, 80], 12345, 443, Protocol::Udp);
        assert_eq!(FlowKey::from_bytes(k.to_bytes()), k);
    }

    #[test]
    fn key_reversed_is_involution() {
        let k = FlowKey::new([1, 1, 1, 1], [2, 2, 2, 2], 10, 20, Protocol::Tcp);
        assert_eq!(k.reversed().reversed(), k);
        assert_ne!(k.reversed(), k);
    }

    #[test]
    fn key_ip_accessors() {
        let k = FlowKey::new([192, 168, 1, 2], [10, 0, 0, 1], 1, 2, Protocol::Tcp);
        assert_eq!(k.src_ip_u32(), 0xC0A8_0102);
        assert_eq!(k.dst_ip_u32(), 0x0A00_0001);
    }

    #[test]
    fn key_display_is_readable() {
        let k = FlowKey::new([1, 2, 3, 4], [5, 6, 7, 8], 99, 100, Protocol::Tcp);
        assert_eq!(k.to_string(), "1.2.3.4:99 -> 5.6.7.8:100 (tcp)");
    }

    #[test]
    fn record_wire_roundtrip() {
        let k = FlowKey::new([10, 20, 30, 40], [50, 60, 70, 80], 12345, 443, Protocol::Udp);
        let p = PacketRecord::new(k, 1500, u64::MAX - 7);
        assert_eq!(PacketRecord::from_wire_bytes(p.to_wire_bytes()), p);
        // Arbitrary bytes decode to *some* record (total decoding).
        let garbage = [0xA5u8; PacketRecord::WIRE_BYTES];
        let rec = PacketRecord::from_wire_bytes(garbage);
        assert_eq!(rec.to_wire_bytes(), garbage);
    }

    #[test]
    fn record_construction() {
        let k = FlowKey::new([1, 2, 3, 4], [5, 6, 7, 8], 9, 10, Protocol::Icmp);
        let p = PacketRecord::new(k, 64, 42);
        assert_eq!(p.wire_len, 64);
        assert_eq!(p.ts_nanos, 42);
    }
}
