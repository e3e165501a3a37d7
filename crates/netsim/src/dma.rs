//! The DMA engine: moves packets between rings and the cache hierarchy
//! through the DDIO path.

use crate::ring::{PacketSlot, RxRing, TxRing};
use crate::traffic::PacketBatch;
use iat_cachesim::{MemoryHierarchy, WayMask, LINE_BYTES};

/// Per-device DMA statistics and transfer logic.
///
/// Receive: for each inbound packet the engine claims a ring slot and
/// DMA-writes the descriptor line plus every payload line through
/// [`MemoryHierarchy::io_write`] — i.e. through DDIO, performing write
/// update or write allocate exactly as the paper describes. A full ring
/// drops the packet *without* touching the cache (the NIC discards it at
/// the MAC).
///
/// Transmit: the device pops the Tx ring and reads descriptor + payload
/// through [`MemoryHierarchy::io_read`], which never allocates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaEngine {
    /// Packets successfully DMA-written into an Rx ring.
    pub rx_packets: u64,
    /// Inbound packets dropped because the Rx ring was full.
    pub rx_dropped: u64,
    /// Packets transmitted (drained from a Tx ring).
    pub tx_packets: u64,
    /// Cache lines written through DDIO.
    pub lines_written: u64,
    /// Cache lines read by the device.
    pub lines_read: u64,
}

impl DmaEngine {
    /// Creates an engine with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Receives one packet: claims a slot in `ring` and writes it through
    /// DDIO with the current `ddio` way mask. Returns `false` on drop.
    pub fn rx_one(
        &mut self,
        hierarchy: &mut MemoryHierarchy,
        ddio: WayMask,
        ring: &mut RxRing,
        slot: PacketSlot,
    ) -> bool {
        let Some(idx) = ring.push(slot) else {
            self.rx_dropped += 1;
            return false;
        };
        // Descriptor write-back (one line) ...
        hierarchy.io_write(ddio, ring.desc_addr(idx));
        self.lines_written += 1;
        // ... then the payload, line by line.
        let base = ring.buf_addr(idx);
        for l in 0..slot.payload_lines() {
            hierarchy.io_write(ddio, base + l * LINE_BYTES);
            self.lines_written += 1;
        }
        self.rx_packets += 1;
        true
    }

    /// Receives a whole generated batch into `ring`; returns how many
    /// packets were accepted (the rest were dropped).
    pub fn rx_batch(
        &mut self,
        hierarchy: &mut MemoryHierarchy,
        ddio: WayMask,
        ring: &mut RxRing,
        batch: &PacketBatch,
    ) -> usize {
        if !iat_cachesim::config::batching_enabled() {
            let mut accepted = 0;
            for &flow in &batch.flows {
                if self.rx_one(hierarchy, ddio, ring, PacketSlot::new(flow, batch.size)) {
                    accepted += 1;
                }
            }
            return accepted;
        }
        // Batched path: ring claims and drop decisions depend only on ring
        // occupancy, never on cache outcomes, so the whole burst's DDIO
        // line writes enqueue up front and resolve in one slice-bucketed
        // flush — bit-identical to line-at-a-time delivery.
        let mut accepted = 0;
        for &flow in &batch.flows {
            let slot = PacketSlot::new(flow, batch.size);
            let Some(idx) = ring.push(slot) else {
                self.rx_dropped += 1;
                continue;
            };
            hierarchy.batch_io_write(ddio, ring.desc_addr(idx));
            self.lines_written += 1;
            let base = ring.buf_addr(idx);
            for l in 0..slot.payload_lines() {
                hierarchy.batch_io_write(ddio, base + l * LINE_BYTES);
                self.lines_written += 1;
            }
            self.rx_packets += 1;
            accepted += 1;
        }
        hierarchy.batch_flush();
        accepted
    }

    /// Device side of transmit: drains up to `max` packets from `ring`,
    /// reading each descriptor and payload line (no allocation).
    /// Returns the number of packets sent.
    pub fn tx_drain(
        &mut self,
        hierarchy: &mut MemoryHierarchy,
        ring: &mut TxRing,
        max: usize,
    ) -> usize {
        let batching = iat_cachesim::config::batching_enabled();
        let mut sent = 0;
        while sent < max {
            let Some((idx, slot)) = ring.pop() else { break };
            let desc = ring.desc_addr(idx);
            if batching {
                hierarchy.batch_io_read(desc);
            } else {
                hierarchy.io_read(desc);
            }
            self.lines_read += 1;
            let base = slot.ext_buf.unwrap_or_else(|| ring.buf_addr(idx));
            for l in 0..slot.payload_lines() {
                if batching {
                    hierarchy.batch_io_read(base + l * LINE_BYTES);
                } else {
                    hierarchy.io_read(base + l * LINE_BYTES);
                }
                self.lines_read += 1;
            }
            self.tx_packets += 1;
            sent += 1;
        }
        if batching {
            hierarchy.batch_flush();
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowId;

    #[test]
    fn rx_writes_descriptor_and_payload_lines() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut ring = RxRing::new(0x10_0000, 8, 2048);
        let mut dma = DmaEngine::new();
        let ddio = WayMask::contiguous(2, 2).unwrap();
        assert!(dma.rx_one(&mut h, ddio, &mut ring, PacketSlot::new(FlowId(0), 1500)));
        // 1 descriptor + 24 payload lines.
        assert_eq!(dma.lines_written, 25);
        let st = h.llc().stats();
        assert_eq!(st.ddio_hits() + st.ddio_misses(), 25);
    }

    #[test]
    fn drop_on_full_ring_touches_nothing() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut ring = RxRing::new(0x10_0000, 1, 2048);
        let mut dma = DmaEngine::new();
        let ddio = WayMask::single(3);
        assert!(dma.rx_one(&mut h, ddio, &mut ring, PacketSlot::new(FlowId(0), 64)));
        let lines_before = dma.lines_written;
        assert!(!dma.rx_one(&mut h, ddio, &mut ring, PacketSlot::new(FlowId(0), 64)));
        assert_eq!(dma.lines_written, lines_before);
        assert_eq!(dma.rx_dropped, 1);
        assert_eq!(ring.drops(), 1);
    }

    #[test]
    fn ring_reuse_yields_ddio_hits() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut ring = RxRing::new(0x10_0000, 2, 2048);
        let mut dma = DmaEngine::new();
        let ddio = WayMask::contiguous(0, 4).unwrap();
        // Fill, drain, refill: the second round reuses the same buffer
        // addresses, so (with an undisturbed cache) it write-updates.
        for _ in 0..2 {
            dma.rx_one(&mut h, ddio, &mut ring, PacketSlot::new(FlowId(0), 64));
        }
        ring.pop();
        ring.pop();
        let hits_before = h.llc().stats().ddio_hits();
        dma.rx_one(&mut h, ddio, &mut ring, PacketSlot::new(FlowId(0), 64));
        assert!(h.llc().stats().ddio_hits() > hits_before);
    }

    #[test]
    fn tx_drain_reads_without_allocating() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut tx = TxRing::new(0x20_0000, 8, 2048);
        let mut dma = DmaEngine::new();
        tx.push(PacketSlot::new(FlowId(1), 128)).unwrap();
        tx.push(PacketSlot::new(FlowId(2), 128)).unwrap();
        let sent = dma.tx_drain(&mut h, &mut tx, 10);
        assert_eq!(sent, 2);
        assert_eq!(dma.tx_packets, 2);
        // 2 packets x (1 desc + 2 payload lines).
        assert_eq!(dma.lines_read, 6);
        // Nothing allocated: payload wasn't resident, reads hit memory.
        assert_eq!(h.llc().valid_lines(), 0);
    }

    #[test]
    fn batch_rx_counts_accepted() {
        let mut h = MemoryHierarchy::tiny(1);
        let mut ring = RxRing::new(0, 4, 2048);
        let mut dma = DmaEngine::new();
        let batch = PacketBatch { flows: vec![FlowId(0); 6], size: 64 };
        let accepted = dma.rx_batch(&mut h, WayMask::single(0), &mut ring, &batch);
        assert_eq!(accepted, 4);
        assert_eq!(dma.rx_dropped, 2);
    }
}
