//! Compatibility shim: the certified Δ-bound machinery moved to
//! [`crate::bounds`] when the streaming query path started using it.
//! Existing imports through `cp_core::estimate` keep working.

pub use crate::bounds::{DeltaBounds, Triage};
