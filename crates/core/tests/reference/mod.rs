//! The three verification layers as they were before their state went
//! dense, kept verbatim apart from the recorder's log (dropped) and the
//! lint markers, as references for `verification_reference.rs`.

pub mod recorder;
pub mod tracecheck;
pub mod verify;
