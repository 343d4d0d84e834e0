//! Criterion benchmark crate for starfish — see the `benches/` directory.
//! Each bench target times one layer (codec, shared pool, latches,
//! router, WAL); `starfish_repro` regenerates the paper's tables and
//! figures.
