//! Seeded renaming of flows.
//!
//! Each workload draws its traffic once with a fixed seed and lets
//! `--seed` rename every flow. Packet counts, flow sizes, timings, frame
//! lengths and the popcount shard of every flow stay the same for every
//! seed, so runs with different seeds carry the same load; what the seed
//! changes is where the flows hash in the sketch and the WSAF.

use instameasure_packet::hash::mix64;
use instameasure_packet::{FlowKey, PacketRecord};

/// The seed every workload's generator is called with.
pub const BASE_SEED: u64 = 42;

/// A 32-bit mask with an even number of set bits: XOR with it keeps an
/// address's popcount parity, and so its shard under two-way popcount
/// routing.
fn even_mask(m: u64) -> [u8; 4] {
    let m = m as u32;
    (if m.count_ones().is_multiple_of(2) { m } else { m ^ 1 }).to_be_bytes()
}

/// A bijection on flow keys chosen by `seed`: addresses and the source
/// port are XOR-masked; the service port and the protocol are kept.
pub fn remap(key: FlowKey, seed: u64) -> FlowKey {
    let m = mix64(seed ^ 0x5EED_F10E);
    let (a, b) = (even_mask(m), even_mask(m >> 32));
    let xor = |ip: [u8; 4], k: [u8; 4]| [ip[0] ^ k[0], ip[1] ^ k[1], ip[2] ^ k[2], ip[3] ^ k[3]];
    FlowKey::new(
        xor(key.src_ip, a),
        xor(key.dst_ip, b),
        key.src_port ^ (mix64(m) as u16),
        key.dst_port,
        key.protocol,
    )
}

/// `records` with every flow renamed by [`remap`].
pub fn remap_all(records: Vec<PacketRecord>, seed: u64) -> Vec<PacketRecord> {
    records.into_iter().map(|r| PacketRecord { key: remap(r.key, seed), ..r }).collect()
}
