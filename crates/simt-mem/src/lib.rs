//! GPU memory hierarchy model for the `bows-sim` SIMT simulator.
//!
//! This crate is the memory substrate the paper's evaluation depends on. It
//! models, cycle by cycle:
//!
//! * [`GlobalMem`] — the device's functional global memory (a flat arena),
//! * [`Coalescer`] — grouping of a warp's 32 lane accesses into 128-byte
//!   line transactions,
//! * per-SM L1 data caches (write-through, no write-allocate, **not
//!   coherent** — exactly the property the paper highlights when spinning
//!   warps compete for memory bandwidth),
//! * banked L2 partitions with [`Mshr`]s and an **atomic unit**: atomic
//!   operations bypass the L1 and are applied, lane-ordered, when the
//!   request is serviced at its L2 partition — this is what makes lock
//!   hand-offs, intra-warp vs. inter-warp CAS races and release/acquire
//!   ordering behave as they do on real GPUs,
//! * a DRAM channel model (fixed latency plus a bandwidth-limiting minimum
//!   service interval).
//!
//! The top-level type is [`MemorySystem`]: SMs enqueue [`MemRequest`]s and
//! call [`MemorySystem::cycle`] once per core cycle, collecting
//! [`MemCompletion`]s that unblock warps.
//!
//! # Example
//!
//! ```
//! use simt_mem::{MemConfig, MemRequest, MemorySystem, ReqKind};
//!
//! let mut mem = MemorySystem::new(MemConfig::default(), 1);
//! let buf = mem.gmem_mut().alloc(32);
//! mem.gmem_mut().write_u32(buf, 7);
//!
//! // A (timing-only) load of the line holding `buf` from SM 0:
//! mem.enqueue(0, MemRequest::new(ReqKind::Load { bypass_l1: false }, buf, 0xbeef), 0);
//! let mut done = Vec::new();
//! for cycle in 0..10_000 {
//!     done.extend(mem.cycle(cycle));
//!     if !done.is_empty() { break; }
//! }
//! assert_eq!(done[0].tag, 0xbeef);
//! ```

mod cache;
mod chaos;
mod coalescer;
mod config;
mod gmem;
mod mshr;
mod slab;
mod stats;
mod system;

pub use cache::{AccessOutcome, Cache};
pub use chaos::{ChaosConfig, ChaosEngine, ChaosStats};
pub use coalescer::{Coalescer, LaneAccess, Transaction};
pub use config::MemConfig;
pub use gmem::{GlobalMem, MemFault};
pub use mshr::Mshr;
pub use slab::{ProbeMap, TagSlab};
pub use stats::MemStats;
pub use system::{LaneAtomic, LockRole, MemCompletion, MemRequest, MemorySystem, ReqKind};

/// Cache line size in bytes (both L1 and L2), as in the paper's Table II.
pub const LINE_BYTES: u64 = 128;

/// Byte address type used throughout the memory system.
pub type Addr = u64;

/// The line-aligned address containing `addr`.
#[inline]
pub fn line_of(addr: Addr) -> Addr {
    addr & !(LINE_BYTES - 1)
}
