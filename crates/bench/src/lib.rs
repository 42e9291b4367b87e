//! # g2pl-bench
//!
//! The command-line tools of the g-2PL reproduction and the library code
//! they share:
//!
//! * `repro` regenerates every table and figure of the paper (see
//!   `g2pl_core::experiments` for the mapping);
//! * `chaos` searches random fault plans and shrinks failures (this
//!   crate's [`chaos`] module);
//! * `trace-explain` replays and re-checks exported event traces.
//!
//! Speed is measured by the repo benchmark (`perfbench/`,
//! `BENCHMARK.json`), not here.

pub mod chaos;
