//! The repository benchmark: four workloads over the cycle simulator, the
//! host flat engine, the ingest plane and the U-Net system path, measured
//! end to end with tracing off and layer by layer in a separate traced
//! replay. See `perfbench/README.md`.

// The benchmark exists to read the host clock: every `Instant::now` here
// times host work from outside the program and never feeds simulated time.
#![allow(clippy::disallowed_methods)]

pub mod calibrate;
pub mod layers;
pub mod measure;
pub mod report;
pub mod spans;
pub mod workloads;
