//! Pinned ("DMA-safe") memory substrate for the Cornflakes reproduction.
//!
//! Cornflakes's zero-copy transmit path requires three memory facilities
//! (paper §3.1, §4):
//!
//! 1. **A pinned memory allocator** ([`pool::PinnedPool`]) that hands out
//!    power-of-two-sized buffers from large registered regions. On real
//!    hardware these regions would be pinned by the kernel and registered
//!    with the NIC for DMA; here registration makes them *recoverable* (see
//!    below) and visible to the simulated NIC.
//! 2. **Reference-counted buffers** ([`rcbuf::RcBuf`]) providing the paper's
//!    use-after-free guarantee: the NIC (and a TCP retransmission queue)
//!    holds a reference from descriptor post until completion/ACK, so an
//!    application "free" (dropping its `RcBuf`) never releases memory with
//!    pending I/O.
//! 3. **Memory transparency** ([`registry::Registry`]): given an *arbitrary
//!    interior pointer* into application data, `recover` finds the owning
//!    registered region — if any — and reconstructs an `RcBuf` for it
//!    (incrementing the reference count). Pointers outside registered
//!    regions return `None`, telling the serialization layer to fall back to
//!    copying.
//!
//! The crate also provides the bump [`arena::Arena`] used for the copied
//! side of hybrid serialization: fast allocation, mass deallocation per
//! request batch (§3.2.2).
//!
//! # Unsafe policy
//!
//! This crate is the workspace's unsafe boundary: it manages raw memory that
//! is concurrently referenced by the application, the serialization layer,
//! and the simulated NIC. All `unsafe` blocks carry `// SAFETY:` comments;
//! everything above this crate is safe code.

pub mod arena;
pub mod cow;
pub mod line;
pub mod pool;
pub mod rcbuf;
pub mod region;
pub mod registry;
pub mod stats;

pub use arena::{Arena, ArenaBytes};
pub use cow::CowBuf;
pub use line::LineBytes;
pub use pool::{AllocError, PinnedPool, PoolConfig};
pub use rcbuf::RcBuf;
pub use registry::Registry;
pub use stats::{ArenaStats, MemStats};
