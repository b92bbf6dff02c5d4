//! Simulation kernel for the FsEncr reproduction.
//!
//! This crate is the foundation every other crate in the workspace builds
//! on. It deliberately contains no domain knowledge about memories, caches
//! or encryption — only the machinery that a request-level architectural
//! simulator needs:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp (1 cycle = 1 ns at
//!   the paper's 1 GHz core clock).
//! * [`Resource`] — a single-server occupancy model used for banks, buses
//!   and engines that can serve one request at a time.
//! * [`stats`] — lightweight counters and a uniform reporting interface.
//! * [`config`] — every parameter of Table III of the paper, with the
//!   paper's values as defaults.
//! * [`rng`] — a tiny deterministic PRNG (SplitMix64) so that the low-level
//!   crates do not need an external RNG dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod config;
pub mod pool;
pub mod resource;
pub mod rng;
pub mod stats;

pub use clock::Cycle;
pub use config::MachineConfig;
pub use resource::Resource;
pub use rng::SplitMix64;
pub use stats::{Counter, Histogram, StatSource};
