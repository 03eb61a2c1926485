//! Cycle-level SIMT GPU core model for the `bows-sim` reproduction of
//! *Warp Scheduling for Fine-Grained Synchronization* (HPCA 2018).
//!
//! This crate is the GPGPU-Sim-analog substrate: it models warps with a
//! stack-based reconvergence mechanism, per-SM warp-scheduler units with
//! pluggable policies ([`sched::SchedulerPolicy`]: LRR, GTO, CAWA here;
//! BOWS in the `bows` crate), scoreboarded issue, the memory pipeline of
//! `simt-mem`, CTA dispatch with occupancy limits, barriers, a deadlock
//! watchdog, and a GPUWattch-flavoured energy model.
//!
//! # Quickstart
//!
//! ```
//! use simt_core::{BasePolicy, Gpu, GpuConfig, LaunchSpec};
//! use simt_isa::asm::assemble;
//!
//! let kernel = assemble(
//!     r#"
//!     .kernel inc
//!     .regs 8
//!     .params 1
//!         ld.param r1, [0]
//!         mov r2, %gtid
//!         shl r2, r2, 2
//!         add r1, r1, r2
//!         ld.global r3, [r1]
//!         add r3, r3, 1
//!         st.global [r1], r3
//!         exit
//!     "#,
//! )?;
//! let mut gpu = Gpu::new(GpuConfig::test_tiny());
//! let buf = gpu.mem_mut().gmem_mut().alloc(64);
//! let launch = LaunchSpec {
//!     grid_ctas: 1,
//!     threads_per_cta: 64,
//!     params: vec![buf as u32],
//! };
//! let report = gpu.run_baseline(&kernel, &launch, BasePolicy::Gto)?;
//! assert_eq!(gpu.mem().gmem().read_u32(buf), 1);
//! assert!(report.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cancel;
mod config;
pub mod detect;
mod energy;
mod gpu;
pub mod sched;
mod scoreboard;
mod sm;
mod stack;
mod stats;
mod warp;
mod watchdog;

pub use cancel::{CancelCause, CancelToken};
pub use config::{Engine, GpuConfig, Latencies};
pub use detect::{BranchLog, BranchTimeline, NullDetector, SpinDetector, StaticSibDetector};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use gpu::{
    CheckpointCtl, DetectorFactory, Gpu, KernelReport, LaunchSpec, PolicyFactory, ProfileReport,
    SimError,
};
pub use sched::{BasePolicy, IssueInfo, SchedCtx, SchedulerPolicy, WarpMeta};
pub use scoreboard::Scoreboard;
pub use stack::{SimtStack, StackEntry};
pub use stats::SimStats;
pub use warp::{Cta, CtaState, Warp};
pub use watchdog::{HangClass, HangReport, WarpSnapshot};
