//! Criterion microbenchmarks, one layer at a time.
//!
//! `benches/hotpath.rs` times engine dispatch, the cache hierarchy and the
//! version manager in isolation; `benches/software_cell.rs` times the
//! software O-structure cell. End-to-end speed of the simulator and the
//! store is measured by `osbench` (see `osbench/METRICS.md`).
