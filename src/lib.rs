//! # hyperion-workspace
//!
//! Umbrella crate of the Hyperion-RS reproduction of *"Remote object
//! detection in cluster-based Java"* (Antoniu & Hatcher, JavaPDC/IPDPS
//! 2001).  It re-exports the public API of the member crates so the
//! examples and integration tests in this repository can `use
//! hyperion_workspace::*;`, and so downstream users can depend on a single
//! crate.
//!
//! See `README.md` for the architecture overview, the crate map and how to
//! regenerate the paper's figures and tables.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use hyperion;
pub use hyperion_apps as apps;
pub use hyperion_dsm as dsm;
pub use hyperion_model as model;
pub use hyperion_pm2 as pm2;

pub use hyperion::prelude;
pub use hyperion::{
    myrinet_200, sci_450, ClusterSpec, HyperionConfig, HyperionRuntime, NodeId, PolicySpec,
    ProtocolKind, RunOutcome, RunReport, ThreadCtx, TransportBackend, TransportConfig, VTime,
    WireServiceSnapshot,
};
