//! # starfish-harness — regenerating the paper's evaluation
//!
//! One experiment module per table/figure of the ICDE 1993 paper:
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`experiments::table2`] | Table 2 — average tuple sizes, `k`, `p`, `m` |
//! | [`experiments::table3`] | Table 3 — analytical page-I/O estimates |
//! | [`experiments::table4`] | Table 4 — measured physical page I/Os |
//! | [`experiments::table5`] | Table 5 — measured I/O calls |
//! | [`experiments::table6`] | Table 6 — buffer fixes |
//! | [`experiments::fig5`] | Figure 5 — object-size sweep (max sightseeings 0/15/30) |
//! | [`experiments::fig6`] | Figure 6 — caching vs database size |
//! | [`experiments::table7`] | Table 7 — data skew |
//! | [`experiments::table8`] | Table 8 — overall qualitative ranking |
//!
//! Extensions go beyond the paper: [`experiments::ext_timing`] (Equation 1
//! response times), [`experiments::ext_alignment`] (sub-tuple-aligned
//! pages), [`experiments::ext_durability`] (the WAL),
//! [`experiments::ext_clustering`] (adaptive placement) and
//! [`experiments::policy_grid`]: one specs × models × policies × buffer ×
//! serving sweep whose presets are `ext-policy`, `ext-buffer`, `ext-drift`,
//! `ext-workload`, `ext-concurrency` (the sharded, latched pool),
//! `ext-distributed` (§5.5 distribution and the routed cluster),
//! `ext-cluster-baseline` and the `--workload` reports.
//! [`experiments::REGISTRY`] lists them all.
//!
//! Each module produces an [`report::ExperimentReport`] (a rendered table
//! plus notes comparing against the paper values that are recoverable from
//! our source text). [`runner`] holds what they share: the
//! [`HarnessConfig`], the model × query [`MeasuredGrid`] behind Tables 4–6
//! and [`runner::measure`] — one measured run of a declarative spec on a
//! fresh store, served as [`runner::Serving`] says (serial, shared pool,
//! request stream, serial or routed cluster).
//!
//! The `starfish_repro` binary runs the experiments (`--only`, `--list`)
//! or one spec (`--workload`, with `--threads`, `--sweep` and `--nodes`
//! choosing the serving). Its flags are one table in [`cli`], read in one
//! pass by [`cli::Cli::parse`]; each [`experiments::REGISTRY`] row carries
//! its runner, given an [`experiments::RunCtx`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod paper;
pub mod report;
pub mod runner;

pub use report::{ExperimentReport, Table};
pub use runner::{HarnessConfig, MeasuredGrid};

/// Result alias (errors bubble up from the storage models).
pub type Result<T> = std::result::Result<T, starfish_core::CoreError>;
