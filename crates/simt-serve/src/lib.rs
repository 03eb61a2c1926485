//! Simulation-as-a-service front end for the bows-sim reproduction of
//! *Warp Scheduling for Fine-Grained Synchronization* (HPCA 2018).
//!
//! The simulator underneath is bit-deterministic, which makes it unusually
//! servable: a request's response body is a pure function of the request,
//! so results can be content-addressed ([`request::SimRequest::cache_key`])
//! and cached, and a wrong byte anywhere is a hard bug rather than noise.
//! This crate turns the library into a resilient service:
//!
//! * [`request`] — the JSON request schema, validation limits, the cache
//!   key, and the shared execution function;
//! * [`cache`] — a bounded, checksummed LRU over response bodies;
//! * [`admission`] — bounded priority queues, per-tenant quotas, and
//!   EWMA-based load shedding with `Retry-After` hints;
//! * [`pool`] — supervised execution: panic isolation, per-attempt wall
//!   deadlines (cooperative via [`simt_core::CancelToken`], forcible via
//!   reaping), and retry with exponential backoff + deterministic jitter;
//! * [`chaos`] — seeded service-level fault injection (worker panics,
//!   worker slowness, cache corruption) for closed-loop resilience drills;
//! * [`service`] — the transport-independent core tying those together;
//! * [`http`] — a std-only HTTP/1.1 adapter (`bows-serve`) plus the tiny
//!   client the `loadgen` SLO harness uses;
//! * [`json`] — the hand-rolled JSON layer (no external deps) with the
//!   serializers for [`simt_core::SimStats`], [`simt_mem::MemStats`],
//!   [`simt_core::HangReport`] and [`simt_core::SimError`].

pub mod admission;
pub mod cache;
pub mod chaos;
pub mod http;
pub mod json;
pub mod pool;
pub mod request;
pub mod service;
pub mod store;

pub use admission::{Admission, AdmissionConfig, Refusal};
pub use cache::{Lookup, ResultCache};
pub use chaos::ServiceChaos;
pub use http::HttpServer;
pub use json::Json;
pub use pool::{install_quiet_panic_hook, JobResult, PoolConfig};
pub use request::{run_request, RunOutcome, SimRequest};
pub use service::{Response, ServeConfig, Service};
pub use store::{DurableStore, RecoveryStats, StoredEntry};
