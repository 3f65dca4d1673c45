//! Probe packet wire format.
//!
//! Section 7.1: "Each probe is a UDP packet of 40 bytes. The probing
//! packets consist of a 20-byte IP header, an 8-byte UDP header, and a
//! payload of 12 bytes that contains the probing packet sequence
//! number." This module reproduces that format exactly, so the examples
//! and the loopback tests can exercise a realistic encode → lossy
//! channel → decode pipeline. The hot simulation loop works on logical
//! packets instead; see [`crate::engine`].

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Total probe size on the wire (paper: 40 bytes).
pub const PROBE_WIRE_SIZE: usize = 40;
/// IPv4 header length (no options).
pub const IP_HEADER_LEN: usize = 20;
/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;
/// Payload length (sequence number + measurement ids).
pub const PAYLOAD_LEN: usize = 12;

/// UDP port used by the probing tool (arbitrary registered-range port,
/// fixed so that flow-identification-based load balancing sees one flow
/// per path — Section 3.1's argument for why T.2 holds under ECMP).
pub const PROBE_PORT: u16 = 33_434;

/// A decoded probe packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbePacket {
    /// IPv4 source address.
    pub src_ip: u32,
    /// IPv4 destination address.
    pub dst_ip: u32,
    /// Sequence number within the snapshot (0-based).
    pub seq: u32,
    /// Snapshot index the probe belongs to.
    pub snapshot: u32,
    /// Path id, so the collector can bin replies without a lookup.
    pub path: u32,
}

impl ProbePacket {
    /// Encodes the probe into its 40-byte wire representation.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(PROBE_WIRE_SIZE);
        // --- IPv4 header (20 bytes, checksum left zero: computed by
        // the OS / NIC offload in a real deployment) ---
        b.put_u8(0x45); // version 4, IHL 5
        b.put_u8(0); // DSCP/ECN
        b.put_u16(PROBE_WIRE_SIZE as u16); // total length
        b.put_u16(0); // identification
        b.put_u16(0x4000); // flags: don't fragment
        b.put_u8(64); // TTL
        b.put_u8(17); // protocol: UDP
        b.put_u16(0); // header checksum (offloaded)
        b.put_u32(self.src_ip);
        b.put_u32(self.dst_ip);
        // --- UDP header (8 bytes) ---
        b.put_u16(PROBE_PORT); // source port
        b.put_u16(PROBE_PORT); // destination port
        b.put_u16((UDP_HEADER_LEN + PAYLOAD_LEN) as u16);
        b.put_u16(0); // UDP checksum (optional for IPv4)
                      // --- payload (12 bytes) ---
        b.put_u32(self.seq);
        b.put_u32(self.snapshot);
        b.put_u32(self.path);
        debug_assert_eq!(b.len(), PROBE_WIRE_SIZE);
        b.freeze()
    }

    /// Decodes a probe from its wire representation.
    ///
    /// Returns `None` when the buffer is not a well-formed probe (wrong
    /// size, version, protocol, or port).
    pub fn decode(mut buf: Bytes) -> Option<Self> {
        if buf.len() != PROBE_WIRE_SIZE {
            return None;
        }
        let ver_ihl = buf.get_u8();
        if ver_ihl != 0x45 {
            return None;
        }
        buf.advance(1); // DSCP
        let total_len = buf.get_u16();
        if total_len as usize != PROBE_WIRE_SIZE {
            return None;
        }
        buf.advance(4); // id + flags
        buf.advance(1); // TTL
        let proto = buf.get_u8();
        if proto != 17 {
            return None;
        }
        buf.advance(2); // checksum
        let src_ip = buf.get_u32();
        let dst_ip = buf.get_u32();
        let sport = buf.get_u16();
        let dport = buf.get_u16();
        if sport != PROBE_PORT || dport != PROBE_PORT {
            return None;
        }
        buf.advance(4); // UDP length + checksum
        let seq = buf.get_u32();
        let snapshot = buf.get_u32();
        let path = buf.get_u32();
        Some(ProbePacket {
            src_ip,
            dst_ip,
            seq,
            snapshot,
            path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProbePacket {
        ProbePacket {
            src_ip: 0xC0A8_0001,
            dst_ip: 0x0A00_0002,
            seq: 123_456,
            snapshot: 42,
            path: 7,
        }
    }

    #[test]
    fn wire_size_is_forty_bytes() {
        assert_eq!(sample().encode().len(), 40);
        assert_eq!(IP_HEADER_LEN + UDP_HEADER_LEN + PAYLOAD_LEN, 40);
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = sample();
        let decoded = ProbePacket::decode(p.encode()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn decode_rejects_wrong_size() {
        let mut short = sample().encode().to_vec();
        short.pop();
        assert!(ProbePacket::decode(Bytes::from(short)).is_none());
    }

    #[test]
    fn decode_rejects_non_udp() {
        let mut raw = sample().encode().to_vec();
        raw[9] = 6; // TCP
        assert!(ProbePacket::decode(Bytes::from(raw)).is_none());
    }

    #[test]
    fn decode_rejects_foreign_port() {
        let mut raw = sample().encode().to_vec();
        raw[20] = 0;
        raw[21] = 80;
        assert!(ProbePacket::decode(Bytes::from(raw)).is_none());
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut raw = sample().encode().to_vec();
        raw[0] = 0x60; // IPv6-ish
        assert!(ProbePacket::decode(Bytes::from(raw)).is_none());
    }
}
