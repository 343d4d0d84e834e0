//! Criterion benchmark crate for starfish — see the `benches/` directory.
//! Each bench target times one layer (formulas, page store, codec,
//! buffer policies, latches, planner, router, WAL); `starfish_repro`
//! regenerates the paper's tables and figures.
