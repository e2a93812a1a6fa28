//! Frames and the simulated wire.
//!
//! A [`Frame`] is the fully gathered on-wire representation of one packet.
//! Two [`Port`]s created by [`link`] form a bidirectional wire: frames
//! pushed into one port pop out of the other, in order. Loss, duplication,
//! reordering, bit corruption, and delay are injected deterministically
//! through the [`crate::fault`] layer — arm a port with
//! [`Port::install_faults`] and drive it from a seeded
//! [`crate::fault::FaultPlan`] or the returned
//! [`crate::fault::FaultInjector`]'s surgical per-frame operations. The
//! queues themselves are no longer poked directly.
//!
//! Every gathered frame carries a CRC32 frame check sequence at
//! [`FCS_OFFSET`], written by the NIC at transmit time ([`Frame::seal`],
//! modeling checksum offload — no CPU charge) and verified by the receiving
//! stack ([`fcs_ok`]), so wire corruption is detected and counted rather
//! than silently consumed. The FCS costs 0 virtual ns, but it runs twice
//! per frame on the host, so [`frame_fcs`] is a slicing-by-16 CRC32
//! (~0.5 ns/B or better on the reference host, against ~2.9 ns/B for a
//! byte-at-a-time loop) producing exactly the IEEE CRC32 bytes.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use cf_sim::Clock;

use crate::fault::{FaultInjector, FaultPlan, FaultState};

/// Byte offset of the CRC32 frame check sequence within a frame.
///
/// Both the UDP and TCP header layouts (48-byte L2/L3/L4 stubs) leave bytes
/// 18..22 zero, so the FCS lives there without disturbing any port, length,
/// sequence, or application-metadata offset.
pub const FCS_OFFSET: usize = 18;

/// CRC32 (IEEE, reflected) slicing-by-16 tables, built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// carries a byte through `k` further zero bytes, so sixteen independent
/// lookups fold a 16-byte block in one step.
static CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Folds the little-endian word `w` as if its four bytes sat `k`..`k + 4`
/// places before the end of the block being folded.
#[inline(always)]
fn fold(w: u32, k: usize) -> u32 {
    let t = &CRC_TABLES;
    let byte = |shift: u32| ((w >> shift) & 0xFF) as usize;
    (t[k + 3][byte(0)] ^ t[k + 2][byte(8)]) ^ (t[k + 1][byte(16)] ^ t[k][byte(24)])
}

/// Folds `data` into the running (pre-inverted) CRC32 state `crc`:
/// 16-byte blocks, then 4-byte words, then single bytes.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        // Only the first word depends on the running CRC; folding the other
        // three first keeps their lookups off the loop-carried chain.
        let rest = fold(word(&b[4..]), 8) ^ fold(word(&b[8..]), 4) ^ fold(word(&b[12..]), 0);
        crc = fold(word(b) ^ crc, 12) ^ rest;
    }
    let mut words = blocks.remainder().chunks_exact(4);
    for w in &mut words {
        crc = fold(word(w) ^ crc, 0);
    }
    for &b in words.remainder() {
        crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC32 of `data` with the FCS field itself treated as zero: the bytes
/// before the field, up to four zero bytes (fewer when the frame ends
/// inside the field), then the bytes after it.
pub fn frame_fcs(data: &[u8]) -> u32 {
    let head = data.len().min(FCS_OFFSET);
    let field = data.len().min(FCS_OFFSET + 4) - head;
    let mut c = crc32_update(!0, &data[..head]);
    c = crc32_update(c, &[0; 4][..field]);
    c = crc32_update(c, &data[head + field..]);
    !c
}

/// Verifies the FCS written by [`Frame::seal`]. Frames too short to carry
/// one (control stubs, runts) trivially pass — the stacks' length checks
/// handle those.
pub fn fcs_ok(data: &[u8]) -> bool {
    if data.len() < FCS_OFFSET + 4 {
        return true;
    }
    let stored = u32::from_le_bytes(
        data[FCS_OFFSET..FCS_OFFSET + 4]
            .try_into()
            .expect("4-byte slice"),
    );
    stored == frame_fcs(data)
}

/// A gathered on-wire frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Frame bytes, headers included.
    pub data: Vec<u8>,
    /// Set on copies created by wire duplication, so a copy is never
    /// duplicated again (a duplicate probability of 1.0 must terminate).
    pub(crate) wire_copy: bool,
}

impl Frame {
    /// Creates a frame from bytes.
    pub fn new(data: Vec<u8>) -> Self {
        Frame {
            data,
            wire_copy: false,
        }
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Writes the CRC32 frame check sequence into the FCS field — done by
    /// the NIC when the frame is gathered (checksum offload: NIC-side work,
    /// never charged to the virtual clock). No-op on frames too short to
    /// carry an FCS.
    pub fn seal(&mut self) {
        if self.data.len() < FCS_OFFSET + 4 {
            return;
        }
        let fcs = frame_fcs(&self.data);
        self.data[FCS_OFFSET..FCS_OFFSET + 4].copy_from_slice(&fcs.to_le_bytes());
    }

    /// Whether the stored FCS matches the frame contents.
    pub fn fcs_ok(&self) -> bool {
        fcs_ok(&self.data)
    }
}

/// Bound on a channel's recycled frame-data buffers. Covers the deepest
/// steady-state burst (one spare per in-flight frame); anything beyond
/// that is transient and may fall back to the allocator.
const MAX_DATA_SPARES: usize = 64;

/// One direction of a wire: an ordered frame queue plus, once
/// [`Port::install_faults`] has armed it, the fault state that filters
/// deliveries.
#[derive(Debug, Default)]
pub(crate) struct Channel {
    pub(crate) queue: VecDeque<Frame>,
    pub(crate) faults: Option<FaultState>,
    /// Frame-data buffers returned by the receiver after consumption, for
    /// this channel's *sender* to reuse on its next gather — the wire's
    /// frame allocations amortize to zero in steady state.
    spares: Vec<Vec<u8>>,
}

impl Channel {
    fn deliver(&mut self) -> Option<Frame> {
        match &mut self.faults {
            None => self.queue.pop_front(),
            Some(f) => f.deliver(&mut self.queue),
        }
    }

    fn pending(&self) -> usize {
        let due_delayed = self.faults.as_ref().map_or(0, |f| f.due_count());
        self.queue.len() + due_delayed
    }
}

/// One end of a simulated wire.
#[derive(Clone, Debug)]
pub struct Port {
    tx: Rc<RefCell<Channel>>,
    rx: Rc<RefCell<Channel>>,
}

/// Creates a connected pair of ports: what one transmits, the other
/// receives.
pub fn link() -> (Port, Port) {
    let a_to_b = Rc::new(RefCell::new(Channel::default()));
    let b_to_a = Rc::new(RefCell::new(Channel::default()));
    (
        Port {
            tx: Rc::clone(&a_to_b),
            rx: Rc::clone(&b_to_a),
        },
        Port {
            tx: b_to_a,
            rx: a_to_b,
        },
    )
}

impl Port {
    /// Creates a port looped back to itself (transmitted frames are
    /// received by the same port). Useful for single-machine tests.
    pub fn loopback() -> Port {
        let q = Rc::new(RefCell::new(Channel::default()));
        Port {
            tx: Rc::clone(&q),
            rx: q,
        }
    }

    /// Transmits a frame.
    pub fn send(&self, frame: Frame) {
        self.tx.borrow_mut().queue.push_back(frame);
    }

    /// An empty frame-data buffer for the next transmit, reusing capacity
    /// the peer recycled via [`Port::recycle_rx_data`] when one is
    /// available.
    pub fn take_tx_data(&self) -> Vec<u8> {
        self.tx.borrow_mut().spares.pop().unwrap_or_default()
    }

    /// Returns a consumed frame's data buffer to the sender of this port's
    /// receive direction, so its next gather reuses the capacity instead
    /// of allocating. Buffers beyond the channel's bounded spare stash are
    /// simply freed.
    pub fn recycle_rx_data(&self, mut data: Vec<u8>) {
        let mut ch = self.rx.borrow_mut();
        if ch.spares.len() < MAX_DATA_SPARES {
            data.clear();
            ch.spares.push(data);
        }
    }

    /// Receives the next frame, if any. With faults installed, the frame is
    /// first filtered through the active [`FaultPlan`] (delivery-time
    /// application preserves determinism regardless of when senders ran).
    pub fn recv(&self) -> Option<Frame> {
        self.rx.borrow_mut().deliver()
    }

    /// Number of frames currently deliverable (held-back delayed frames not
    /// yet due are excluded; frames that the plan may still drop are
    /// included).
    pub fn pending_rx(&self) -> usize {
        self.rx.borrow().pending()
    }

    /// Arms deterministic fault injection on this port's **receive**
    /// direction: every frame subsequently delivered through [`Port::recv`]
    /// is filtered through `plan`, seeded from the plan's own RNG stream.
    /// `clock` provides virtual time for delayed-frame release.
    ///
    /// Returns the [`FaultInjector`] handle for surgical per-frame
    /// operations and fault statistics. Installing a new plan replaces the
    /// previous one; frames the old plan still held back are re-queued for
    /// delivery.
    pub fn install_faults(&self, clock: Clock, plan: FaultPlan) -> FaultInjector {
        {
            let mut ch = self.rx.borrow_mut();
            let old = ch.faults.replace(FaultState::new(clock, plan));
            if let Some(old) = old {
                old.requeue_delayed(&mut ch.queue);
            }
        }
        FaultInjector::new(Rc::clone(&self.rx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linked_ports_exchange_frames() {
        let (a, b) = link();
        a.send(Frame::new(vec![1, 2, 3]));
        assert_eq!(b.pending_rx(), 1);
        assert_eq!(b.recv().unwrap().data, vec![1, 2, 3]);
        assert!(b.recv().is_none());

        b.send(Frame::new(vec![4]));
        assert_eq!(a.recv().unwrap().data, vec![4]);
    }

    #[test]
    fn frames_stay_ordered() {
        let (a, b) = link();
        for i in 0..10u8 {
            a.send(Frame::new(vec![i]));
        }
        for i in 0..10u8 {
            assert_eq!(b.recv().unwrap().data, vec![i]);
        }
    }

    #[test]
    fn loopback_receives_own_frames() {
        let p = Port::loopback();
        p.send(Frame::new(vec![9]));
        assert_eq!(p.recv().unwrap().data, vec![9]);
    }

    #[test]
    fn loss_injection_via_fault_injector() {
        let (a, b) = link();
        let faults = b.install_faults(Clock::new(), FaultPlan::none());
        a.send(Frame::new(vec![1]));
        a.send(Frame::new(vec![2]));
        assert!(faults.drop_pending(), "a frame was pending to drop");
        assert_eq!(b.recv().unwrap().data, vec![2]);
        assert_eq!(faults.stats().dropped, 1);
    }

    #[test]
    fn frame_len() {
        let f = Frame::new(vec![0; 42]);
        assert_eq!(f.len(), 42);
        assert!(!f.is_empty());
        assert!(Frame::new(vec![]).is_empty());
    }

    #[test]
    fn seal_and_verify_fcs() {
        let mut f = Frame::new(vec![0xAB; 64]);
        f.seal();
        assert!(f.fcs_ok());
        // A single flipped bit anywhere must be detected.
        f.data[40] ^= 0x10;
        assert!(!f.fcs_ok());
        f.data[40] ^= 0x10;
        assert!(f.fcs_ok());
        // Corruption inside the FCS field itself is also detected.
        f.data[FCS_OFFSET] ^= 1;
        assert!(!f.fcs_ok());
    }

    /// The byte-at-a-time CRC that [`frame_fcs`] replaced, kept as the
    /// reference the table version must match bit for bit.
    fn reference_fcs(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for (i, &b) in data.iter().enumerate() {
            let b = if (FCS_OFFSET..FCS_OFFSET + 4).contains(&i) {
                0
            } else {
                b
            };
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Deterministic pseudo-random bytes (SplitMix64).
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    const JUMBO: usize = 9216;

    #[test]
    fn crc_core_matches_the_ieee_check_value() {
        assert_eq!(!crc32_update(!0, b"123456789"), 0xCBF4_3926);
        assert_eq!(!crc32_update(!0, b""), 0);
    }

    #[test]
    fn table_fcs_matches_reference_at_every_length() {
        // Each pattern sits at a different unaligned start inside a larger
        // buffer, so the 16-byte blocks never line up with the allocation.
        let patterns = [
            (noise(JUMBO + 8, 7), 1),
            (vec![0u8; JUMBO + 8], 3),
            (vec![0xFFu8; JUMBO + 8], 5),
        ];
        for (buf, start) in &patterns {
            for len in 0..=JUMBO {
                let data = &buf[*start..*start + len];
                assert_eq!(
                    frame_fcs(data),
                    reference_fcs(data),
                    "len {len}, start {start}, first byte {:#x}",
                    buf[*start]
                );
            }
        }
    }

    #[test]
    fn table_fcs_matches_reference_on_short_and_partial_field_frames() {
        // Below 18 the field is absent; 19..=21 end inside it.
        let buf = noise(64, 11);
        for start in 0..16 {
            for len in 0..=FCS_OFFSET + 8 {
                let data = &buf[start..start + len];
                assert_eq!(frame_fcs(data), reference_fcs(data), "len {len}");
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        for len in [FCS_OFFSET + 4, 64, 1514] {
            let mut f = Frame::new(noise(len, len as u64));
            f.seal();
            assert!(f.fcs_ok());
            for pos in 0..len {
                let bit = 1u8 << (pos % 8);
                f.data[pos] ^= bit;
                assert!(!f.fcs_ok(), "len {len}: flip at byte {pos} missed");
                f.data[pos] ^= bit;
            }
        }
        // Jumbo frames: every byte position, with a stride over the bits.
        let mut f = Frame::new(noise(JUMBO, 3));
        f.seal();
        for pos in (0..JUMBO).step_by(97).chain(JUMBO - 16..JUMBO) {
            let bit = 1u8 << (pos % 8);
            f.data[pos] ^= bit;
            assert!(!f.fcs_ok(), "jumbo: flip at byte {pos} missed");
            f.data[pos] ^= bit;
        }
    }

    #[test]
    fn short_frames_trivially_pass_fcs() {
        let f = Frame::new(vec![1, 2, 3]);
        assert!(f.fcs_ok());
        let mut f = Frame::new(vec![0; FCS_OFFSET + 3]);
        f.seal(); // no-op
        assert!(f.fcs_ok());
    }

    #[test]
    fn recycled_data_flows_back_to_the_sender() {
        let (a, b) = link();
        let mut buf = a.take_tx_data();
        assert!(buf.is_empty(), "fresh take is empty");
        buf.extend_from_slice(&[1, 2, 3]);
        let cap = buf.capacity();
        a.send(Frame::new(buf));
        let frame = b.recv().unwrap();
        assert_eq!(frame.data, vec![1, 2, 3]);
        // Receiver hands the capacity back; the sender's next take gets it.
        b.recycle_rx_data(frame.data);
        let reused = a.take_tx_data();
        assert!(reused.is_empty(), "recycled buffer is cleared");
        assert_eq!(reused.capacity(), cap, "capacity survived the round trip");
    }

    #[test]
    fn reinstalling_faults_requeues_delayed_frames() {
        let clock = Clock::new();
        let (a, b) = link();
        let faults = b.install_faults(clock.clone(), FaultPlan::none());
        a.send(Frame::new(vec![7]));
        assert!(faults.delay_pending(1_000_000));
        assert_eq!(b.pending_rx(), 0, "held back until due");
        // Replacing the plan releases the held frame back into the queue.
        b.install_faults(clock, FaultPlan::none());
        assert_eq!(b.pending_rx(), 1);
        assert_eq!(b.recv().unwrap().data, vec![7]);
    }
}
