//! The declarative workload IR: access plans as *data*, not code.
//!
//! The paper's whole argument is about how an access **pattern**
//! (single-object fetch, set-oriented navigation, in-place root update)
//! maps to physical I/Os under each storage model — so the pattern itself
//! should be a value you can construct, inspect, serialize and sweep, not a
//! hard-coded match arm. A [`WorkloadSpec`] is a named plan over a small op
//! vocabulary ([`Op`]) plus the measurement knobs the protocol needs: the
//! RNG stream, the normalization unit and an optional read/write mix.
//! One streaming interpreter ([`crate::Executor`]) runs any spec serially,
//! concurrently, or as a mixed read/write stream.
//!
//! The paper's queries 1a–3b are built-in plan constructors
//! ([`WorkloadSpec::q1a`] … [`WorkloadSpec::q3b`], or
//! [`WorkloadSpec::for_query`]); their `IoSnapshot`s are pinned exactly by
//! the golden-counter tests (`tests/golden_lru.rs`). Beyond the paper,
//! [`WorkloadSpec::shipped`] bundles scenarios the original evaluation
//! never ran (deep navigation, hot-set skew, scan-then-update), and
//! [`WorkloadSpec::from_json`] /
//! [`WorkloadSpec::to_json`] make ad-hoc scenarios a command-line argument
//! (`starfish_repro --workload file.json`).
//!
//! ## JSON format
//!
//! ```json
//! {
//!   "name": "deep-nav",
//!   "description": "4-hop navigation",
//!   "stream": 11,
//!   "unit": "loops",
//!   "ops": [
//!     {"op": "loop", "count": {"objects_over": 10}, "body": [
//!       {"op": "pick_random", "n": 1},
//!       {"op": "navigate_children", "depth": 4},
//!       {"op": "fetch_roots"}
//!     ]}
//!   ]
//! }
//! ```
//!
//! `count` is a plain number (fixed), `{"objects_over": k}` (`⌈n/k⌉`-style
//! scaling with the database: `max(1, objects/k)`, the paper's §5.4 loop
//! rule for `k = 5`) or `{"sample_capped": c}` (`max(1, min(c, objects))`,
//! the query-1a sample rule). `mix` is optional (`"read-only"`, `"50-50"`,
//! `"update-heavy"`) and gates every `update_roots` op by request index.
//!
//! Dynamic (drifting) workloads: `pick_skewed` takes an optional
//! `"drift": {"shift": s, "period": p}` (the hot window slides `s` objects
//! every `p` top-level loops — [`Drift`]), and
//! `{"op": "phase", "every": n, "picks": [...]}` cycles between pick
//! distributions every `n` loops ([`Op::Phase`]). Parsing is strict:
//! required fields must be present and well-typed, `pct_hot` must be 0–100,
//! and unrecognized fields anywhere in the document are errors.

use starfish_cost::QueryId;
use starfish_nf2::Projection;

/// The seed stride between RNG streams (the same constant the historical
/// hard-coded query runner used, so plan-built paper queries draw the
/// *identical* object sequences).
pub(crate) const STREAM_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// How many random single-object retrievals the query-1a plan averages
/// over. The paper measured "an 'average' object"; we average a
/// deterministic sample of cold-cache retrievals instead of hand-picking
/// one.
pub const Q1A_SAMPLE: usize = 25;

/// An iteration count that may scale with the database size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Count {
    /// Exactly `n` iterations.
    Fixed(u64),
    /// `max(1, min(cap, objects))` — the query-1a sample rule.
    SampleCapped(u64),
    /// `max(1, objects / k)` — the paper's §5.4 loop rule (`k = 5`).
    ObjectsOver(u64),
}

impl Count {
    /// Resolves the count for a database of `n_objects`.
    pub fn resolve(self, n_objects: usize) -> u64 {
        match self {
            Count::Fixed(n) => n,
            Count::SampleCapped(cap) => cap.min(n_objects as u64).max(1),
            Count::ObjectsOver(k) => (n_objects as u64 / k.max(1)).max(1),
        }
    }
}

/// Which attributes a retrieval materializes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ProjSpec {
    /// The whole object (the benchmark's full projection).
    #[default]
    All,
    /// Only the root record's atomic attributes.
    Atomics,
}

impl ProjSpec {
    /// The concrete projection over the benchmark `Station` schema.
    pub fn to_projection(self) -> Projection {
        match self {
            ProjSpec::All => Projection::All,
            ProjSpec::Atomics => Projection::atomics(&starfish_nf2::station::station_schema()),
        }
    }
}

/// How an `update_roots` op builds its replacement `Name`.
///
/// Every valid spec produces exactly 100 bytes — the stored `Name` length —
/// because the benchmark update is structure-preserving ("We update atomic
/// attributes, that is, the object structure is not changed", §2.2). A
/// name is never cut: a hand-built prefix whose name runs past 100 bytes
/// is refused by the store with a size-changed error before anything is
/// written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatchSpec {
    /// `updated-<loop>-uuu…` — the paper queries' per-loop unique name.
    LoopName,
    /// `<prefix>-<loop>-uuu…` — same shape with a caller-chosen prefix
    /// (1–40 bytes, so prefix and loop number take at most 62).
    Prefixed(String),
}

impl PatchSpec {
    /// The replacement name for top-level loop `loop_nr`: 100 bytes, or
    /// longer when a prefix over 40 bytes leaves no room for the padding.
    pub fn materialize(&self, loop_nr: u64) -> String {
        let prefix = match self {
            PatchSpec::LoopName => "updated",
            PatchSpec::Prefixed(p) => p.as_str(),
        };
        let mut s = format!("{prefix}-{loop_nr}-");
        while s.len() < 100 {
            s.push('u');
        }
        s
    }
}

/// Hot-set rotation for [`Op::PickSkewed`]: the hot window slides by
/// `shift` objects every `period` top-level iterations (DOEF-style drift —
/// the moving hot spots of He & Darmont's dynamic evaluation framework).
///
/// At top-level iteration `t` the hot window starts at offset
/// `(t / period) · shift mod objects` instead of 0; the cold branch stays
/// uniform over the whole database. `shift` and `period` must both be
/// ≥ 1. A window that never moves within the run (`period` larger than the
/// loop count) is byte-identical to a drift-free `PickSkewed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Drift {
    /// Objects the hot window slides by per step.
    pub shift: u64,
    /// Top-level iterations between steps.
    pub period: u64,
}

impl Drift {
    /// The hot-window start offset at top-level iteration `t` over a
    /// database of `n_objects`.
    pub fn offset(self, t: u64, n_objects: usize) -> usize {
        if n_objects == 0 {
            return 0;
        }
        ((t / self.period.max(1)).wrapping_mul(self.shift) % n_objects as u64) as usize
    }
}

/// One step of an access plan.
///
/// Ops stream over a *selection* — the working set of object references the
/// previous op produced. Pick/scan ops replace the selection; navigation
/// maps it through the reference graph; retrieval/update ops consume it
/// (without changing it).
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Selection ← `n` uniformly random objects (with replacement), drawn
    /// from the plan's deterministic RNG stream.
    PickRandom {
        /// How many picks.
        n: u64,
    },
    /// Selection ← one object, skewed: with probability `pct_hot`% a
    /// uniform pick from a `hot`-object hot window (starting at object 0,
    /// or sliding under [`Drift`]), otherwise uniform over the whole
    /// database. Two RNG draws per pick, drift or not — so enabling drift
    /// never changes *which* draws are made, only how hot draws map to
    /// objects.
    PickSkewed {
        /// Hot-set size (clamped to the database size).
        hot: u64,
        /// Probability (percent, 0–100) of drawing from the hot set.
        pct_hot: u8,
        /// Optional hot-window rotation (`None` = the window stays at the
        /// first `hot` objects, the historical behaviour).
        drift: Option<Drift>,
    },
    /// Selection ← one object from the pick distribution active for the
    /// current top-level iteration `t`: `picks[(t / every) mod picks.len()]`.
    /// Cycling through phases models sudden workload shifts (2 picks, a
    /// switch point mid-run) and periodic regimes (k picks cycling).
    /// `picks` entries must be `pick_random` or `pick_skewed`.
    Phase {
        /// Top-level iterations per phase.
        every: u64,
        /// The pick distributions cycled through.
        picks: Vec<Op>,
    },
    /// Materialize every object (the query-1c full scan). Records the
    /// object count for `scanned-objects` normalization.
    ScanAll,
    /// Retrieve each selected object by OID (address access — query 1a's
    /// primitive; `Unsupported` under pure NSM).
    GetByOid {
        /// Projection to materialize.
        proj: ProjSpec,
    },
    /// Retrieve each selected object by key (value selection — query 1b's
    /// primitive).
    GetByKey {
        /// Projection to materialize.
        proj: ProjSpec,
    },
    /// Selection ← the children references of the selection, repeated
    /// `depth` times (queries 2/3 use `depth = 2`: children, then
    /// grand-children). Each hop's cardinality is recorded.
    NavigateChildren {
        /// How many reference hops to follow.
        depth: u32,
    },
    /// Fetch the root records (atomic attributes) of the selection, leaving
    /// the selection unchanged — the tail of the paper's navigation loop.
    FetchRoots,
    /// Update the root records of the selection (queries 3a/3b). Gated by
    /// the spec's [`MixKind`], if one is set.
    UpdateRoots {
        /// Replacement-name recipe.
        patch: PatchSpec,
    },
    /// Flush and empty the buffer — the cold restart between query-1a
    /// retrievals.
    ColdRestart,
    /// Repeat `body` `count` times. A **top-level** loop defines the plan's
    /// units: its iteration index feeds [`PatchSpec`] and [`MixKind`]
    /// gating, and its iteration count is the `loops` normalization
    /// denominator.
    Loop {
        /// Iteration count (may scale with the database).
        count: Count,
        /// The repeated ops.
        body: Vec<Op>,
    },
}

/// What one "unit" means when normalizing counters per unit — the paper
/// divides by objects for query 1c and by loops everywhere else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NormUnit {
    /// Top-level loop iterations (1 if the plan has no top-level loop).
    #[default]
    Loops,
    /// Objects materialized by `scan_all` ops.
    ScannedObjects,
}

/// The read/write composition of a request stream. Every unit whose index
/// `i` satisfies [`MixKind::is_update`] runs its `update_roots` ops; the
/// others skip them. A **deterministic function of the request index**, so
/// the stream composition is identical for every thread count — only the
/// interleaving (and therefore physical I/O and latch waits) may move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixKind {
    /// Navigation only.
    ReadOnly,
    /// Every second request updates (odd indices).
    Mixed5050,
    /// Three of four requests update (the paper's query-3a regime scaled
    /// to a request stream).
    UpdateHeavy,
}

impl MixKind {
    /// All mixes, in increasing write share.
    pub fn all() -> [MixKind; 3] {
        [MixKind::ReadOnly, MixKind::Mixed5050, MixKind::UpdateHeavy]
    }

    /// Report label (also the JSON spelling).
    pub fn name(self) -> &'static str {
        match self {
            MixKind::ReadOnly => "read-only",
            MixKind::Mixed5050 => "50-50",
            MixKind::UpdateHeavy => "update-heavy",
        }
    }

    /// Whether request `i` of the stream applies an update.
    pub fn is_update(self, i: usize) -> bool {
        match self {
            MixKind::ReadOnly => false,
            MixKind::Mixed5050 => i % 2 == 1,
            MixKind::UpdateHeavy => !i.is_multiple_of(4),
        }
    }
}

/// A complete, self-describing workload: a named access plan plus the
/// measurement knobs of the paper's protocol.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Plan name (report label, `--workload` lookup key).
    pub name: String,
    /// One-line description for listings.
    pub description: String,
    /// RNG stream discriminator: the plan's random picks come from
    /// `seed + stream · STRIDE`, so two specs with different streams draw
    /// unrelated sequences and two with the same stream draw identical
    /// ones (queries 2 and 3 deliberately share stream 4/5: query 3 is "an
    /// update version of query 2" over the same navigation).
    pub stream: u64,
    /// Normalization denominator.
    pub unit: NormUnit,
    /// Optional read/write mix gating `update_roots` ops by unit index
    /// (`None` = updates always run).
    pub mix: Option<MixKind>,
    /// The plan.
    pub ops: Vec<Op>,
}

impl WorkloadSpec {
    /// Whether unit `i`'s `update_roots` ops run under this spec's mix.
    pub fn updates_at(&self, i: usize) -> bool {
        self.mix.map(|m| m.is_update(i)).unwrap_or(true)
    }

    /// How many units (top-level loop iterations) the plan executes against
    /// a database of `n_objects` — the `loops` normalization denominator
    /// every run reports, and the cost model's per-unit divisor: the
    /// summed resolved counts of every top-level `Loop` op, or 1 for
    /// loop-free plans.
    pub fn units(&self, n_objects: usize) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Loop { count, .. } => count.resolve(n_objects),
                _ => 0,
            })
            .sum::<u64>()
            .max(1)
    }

    /// Structural validation: meaningful counts, bounded recursion, patch
    /// prefixes that fit the 100-byte name. Returns a human-readable
    /// complaint for the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("spec needs a non-empty name".into());
        }
        if self.ops.is_empty() {
            return Err(
                "spec needs a non-empty \"ops\" list — a workload with no operations \
                 measures nothing (did the file's \"ops\" array come out empty?)"
                    .into(),
            );
        }
        fn check(ops: &[Op], depth: u32) -> Result<(), String> {
            if depth > 4 {
                return Err("loops nest deeper than 4".into());
            }
            for op in ops {
                match op {
                    Op::PickRandom { n } if *n == 0 => {
                        return Err("pick_random needs n >= 1".into());
                    }
                    Op::PickSkewed {
                        hot,
                        pct_hot,
                        drift,
                    } => {
                        if *hot == 0 {
                            return Err("pick_skewed needs hot >= 1".into());
                        }
                        if *pct_hot > 100 {
                            return Err("pick_skewed pct_hot is a percentage (0-100)".into());
                        }
                        if let Some(d) = drift {
                            if d.shift == 0 {
                                return Err("drift needs shift >= 1".into());
                            }
                            if d.period == 0 {
                                return Err("drift needs period >= 1".into());
                            }
                        }
                    }
                    Op::Phase { every, picks } => {
                        if *every == 0 {
                            return Err("phase needs every >= 1".into());
                        }
                        if picks.is_empty() {
                            return Err("phase needs a non-empty picks list".into());
                        }
                        if picks
                            .iter()
                            .any(|p| !matches!(p, Op::PickRandom { .. } | Op::PickSkewed { .. }))
                        {
                            return Err("phase picks must be pick_random or pick_skewed".into());
                        }
                        check(picks, depth)?;
                    }
                    Op::NavigateChildren { depth } => {
                        if *depth == 0 {
                            return Err("navigate_children needs depth >= 1".into());
                        }
                        if *depth > 8 {
                            return Err("navigate_children depth > 8 explodes exponentially".into());
                        }
                    }
                    Op::UpdateRoots {
                        patch: PatchSpec::Prefixed(p),
                    } if p.is_empty() || p.len() > 40 => {
                        return Err("update_roots prefix must be 1-40 bytes".into());
                    }
                    Op::Loop { count, body } => {
                        if body.is_empty() {
                            return Err("loop needs a non-empty body".into());
                        }
                        if *count == Count::Fixed(0) {
                            return Err("loop needs count >= 1".into());
                        }
                        check(body, depth + 1)?;
                    }
                    _ => {}
                }
            }
            Ok(())
        }
        check(&self.ops, 0)
    }

    // ---- built-in plans: the paper's queries -------------------------------

    /// Query 1a: retrieve an "average" object by OID — a
    /// [`Q1A_SAMPLE`]-capped sample of cold single-object retrievals.
    pub fn q1a() -> WorkloadSpec {
        WorkloadSpec {
            name: "q1a".into(),
            description: "single-object retrieval by OID, cold (paper query 1a)".into(),
            stream: 1,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![Op::Loop {
                count: Count::SampleCapped(Q1A_SAMPLE as u64),
                body: vec![
                    Op::PickRandom { n: 1 },
                    Op::GetByOid {
                        proj: ProjSpec::All,
                    },
                    Op::ColdRestart,
                ],
            }],
        }
    }

    /// Query 1b: retrieve one object by key value.
    pub fn q1b() -> WorkloadSpec {
        WorkloadSpec {
            name: "q1b".into(),
            description: "single-object retrieval by key value (paper query 1b)".into(),
            stream: 2,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![
                Op::PickRandom { n: 1 },
                Op::GetByKey {
                    proj: ProjSpec::All,
                },
            ],
        }
    }

    /// Query 1c: retrieve all objects, normalized per object.
    pub fn q1c() -> WorkloadSpec {
        WorkloadSpec {
            name: "q1c".into(),
            description: "full-database scan, counters per object (paper query 1c)".into(),
            stream: 3,
            unit: NormUnit::ScannedObjects,
            mix: None,
            ops: vec![Op::ScanAll],
        }
    }

    /// The shared navigation body of queries 2/3: root → children →
    /// grand-children → their root records.
    fn navigation_body(update: bool) -> Vec<Op> {
        let mut body = vec![
            Op::PickRandom { n: 1 },
            Op::NavigateChildren { depth: 2 },
            Op::FetchRoots,
        ];
        if update {
            body.push(Op::UpdateRoots {
                patch: PatchSpec::LoopName,
            });
        }
        body
    }

    /// Query 2a: one navigation loop.
    pub fn q2a() -> WorkloadSpec {
        WorkloadSpec {
            name: "q2a".into(),
            description: "one navigation loop (paper query 2a)".into(),
            stream: 4,
            unit: NormUnit::Loops,
            mix: None,
            ops: Self::navigation_body(false),
        }
    }

    /// Query 2b: the navigation loop repeated `objects/5` times.
    pub fn q2b() -> WorkloadSpec {
        WorkloadSpec {
            name: "q2b".into(),
            description: "objects/5 navigation loops (paper query 2b)".into(),
            stream: 5,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![Op::Loop {
                count: Count::ObjectsOver(5),
                body: Self::navigation_body(false),
            }],
        }
    }

    /// Query 3a: query 2a plus the grand-children root update.
    pub fn q3a() -> WorkloadSpec {
        WorkloadSpec {
            name: "q3a".into(),
            description: "one navigation loop with root update (paper query 3a)".into(),
            stream: 4,
            unit: NormUnit::Loops,
            mix: None,
            ops: Self::navigation_body(true),
        }
    }

    /// Query 3b: query 2b plus the per-loop update.
    pub fn q3b() -> WorkloadSpec {
        WorkloadSpec {
            name: "q3b".into(),
            description: "objects/5 navigation loops with root updates (paper query 3b)".into(),
            stream: 5,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![Op::Loop {
                count: Count::ObjectsOver(5),
                body: Self::navigation_body(true),
            }],
        }
    }

    /// The built-in plan for a paper query.
    pub fn for_query(query: QueryId) -> WorkloadSpec {
        match query {
            QueryId::Q1a => Self::q1a(),
            QueryId::Q1b => Self::q1b(),
            QueryId::Q1c => Self::q1c(),
            QueryId::Q2a => Self::q2a(),
            QueryId::Q2b => Self::q2b(),
            QueryId::Q3a => Self::q3a(),
            QueryId::Q3b => Self::q3b(),
        }
    }

    /// The mixed read/write serving stream: the query-2b plan with every
    /// loop's update gated by `mix` (the request-stream workload behind the
    /// `ext-concurrency` matrix).
    pub fn mixed(mix: MixKind) -> WorkloadSpec {
        WorkloadSpec {
            name: format!("mixed-{}", mix.name()),
            description: format!(
                "2b-shaped request stream, {}",
                match mix {
                    MixKind::ReadOnly => "no request updates (baseline)",
                    MixKind::Mixed5050 => "every 2nd request applies the 3a root patch",
                    MixKind::UpdateHeavy => "3 of 4 requests apply the 3a root patch",
                }
            ),
            stream: 5,
            unit: NormUnit::Loops,
            mix: Some(mix),
            ops: vec![Op::Loop {
                count: Count::ObjectsOver(5),
                body: Self::navigation_body(true),
            }],
        }
    }

    // ---- shipped non-paper scenarios ---------------------------------------

    /// Deep navigation: 4 reference hops instead of the paper's 2 — the
    /// regime where the normalized models' per-hop relation scans compound.
    pub fn deep_nav() -> WorkloadSpec {
        WorkloadSpec {
            name: "deep-nav".into(),
            description: "objects/10 loops of 4-hop navigation (paper stops at 2 hops)".into(),
            stream: 11,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![Op::Loop {
                count: Count::ObjectsOver(10),
                body: vec![
                    Op::PickRandom { n: 1 },
                    Op::NavigateChildren { depth: 4 },
                    Op::FetchRoots,
                ],
            }],
        }
    }

    /// Hot-set skew: 90% of the navigation roots come from a 16-object hot
    /// set — the caching regime the paper's uniform picks never exercise.
    pub fn hot_set() -> WorkloadSpec {
        WorkloadSpec {
            name: "hot-set".into(),
            description: "objects/5 navigation loops, 90% of roots from a 16-object hot set".into(),
            stream: 12,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![Op::Loop {
                count: Count::ObjectsOver(5),
                body: vec![
                    Op::PickSkewed {
                        hot: 16,
                        pct_hot: 90,
                        drift: None,
                    },
                    Op::NavigateChildren { depth: 2 },
                    Op::FetchRoots,
                ],
            }],
        }
    }

    /// Scan-then-update: a full relation scan that warms the buffer,
    /// followed by single-hop update loops — adversarial for LRU (the scan
    /// floods the buffer) and the shape of a batch job behind OLTP traffic.
    pub fn scan_then_update() -> WorkloadSpec {
        WorkloadSpec {
            name: "scan-then-update".into(),
            description: "full scan, then 24 loops of 1-hop navigation updating the children"
                .into(),
            stream: 13,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![
                Op::ScanAll,
                Op::Loop {
                    count: Count::Fixed(24),
                    body: vec![
                        Op::PickRandom { n: 1 },
                        Op::NavigateChildren { depth: 1 },
                        Op::UpdateRoots {
                            patch: PatchSpec::Prefixed("batch".into()),
                        },
                    ],
                },
            ],
        }
    }

    /// Gradual drift: the hot-set workload with a window that slides 4
    /// objects every 4 loops — by the end of the run the hot spot has
    /// migrated across 120 objects, the DOEF "moving window" regime where
    /// recency-based policies must keep re-learning the working set.
    pub fn drift_gradual() -> WorkloadSpec {
        WorkloadSpec {
            name: "drift-gradual".into(),
            description: "120 navigation loops, 90% of roots from a 16-object hot window \
                          sliding 4 objects every 4 loops"
                .into(),
            stream: 14,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![Op::Loop {
                count: Count::Fixed(120),
                body: vec![
                    Op::PickSkewed {
                        hot: 16,
                        pct_hot: 90,
                        drift: Some(Drift {
                            shift: 4,
                            period: 4,
                        }),
                    },
                    Op::NavigateChildren { depth: 2 },
                    Op::FetchRoots,
                ],
            }],
        }
    }

    /// Sudden shift: the hot window jumps 137 objects every 60 loops —
    /// two abrupt hot-spot relocations over the run, the phase-change
    /// regime where a policy that over-commits to the old hot set pays for
    /// the whole next phase.
    pub fn drift_sudden() -> WorkloadSpec {
        WorkloadSpec {
            name: "drift-sudden".into(),
            description: "120 navigation loops, the 16-object hot window jumping 137 \
                          objects every 60 loops"
                .into(),
            stream: 15,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![Op::Loop {
                count: Count::Fixed(120),
                body: vec![
                    Op::PickSkewed {
                        hot: 16,
                        pct_hot: 90,
                        drift: Some(Drift {
                            shift: 137,
                            period: 60,
                        }),
                    },
                    Op::NavigateChildren { depth: 2 },
                    Op::FetchRoots,
                ],
            }],
        }
    }

    /// Periodic cycling: a `phase` op rotating through three pick
    /// distributions every 20 loops — tight hot set, uniform, wide warm
    /// set — so the buffer alternates between cacheable and scan-like
    /// regimes six times per run.
    pub fn drift_cycle() -> WorkloadSpec {
        WorkloadSpec {
            name: "drift-cycle".into(),
            description: "120 navigation loops cycling every 20 loops between a tight hot \
                          set, uniform picks and a wide warm set"
                .into(),
            stream: 16,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![Op::Loop {
                count: Count::Fixed(120),
                body: vec![
                    Op::Phase {
                        every: 20,
                        picks: vec![
                            Op::PickSkewed {
                                hot: 16,
                                pct_hot: 90,
                                drift: None,
                            },
                            Op::PickRandom { n: 1 },
                            Op::PickSkewed {
                                hot: 48,
                                pct_hot: 70,
                                drift: None,
                            },
                        ],
                    },
                    Op::NavigateChildren { depth: 2 },
                    Op::FetchRoots,
                ],
            }],
        }
    }

    /// The shipped non-paper scenarios, in `ext-workload` sweep order: the
    /// static trio, then the three dynamic (drifting) scenarios.
    pub fn shipped() -> Vec<WorkloadSpec> {
        vec![
            Self::deep_nav(),
            Self::hot_set(),
            Self::scan_then_update(),
            Self::drift_gradual(),
            Self::drift_sudden(),
            Self::drift_cycle(),
        ]
    }

    /// Looks up a built-in spec by name: the paper queries (`"q1a"` …
    /// `"q3b"`), the shipped scenarios, and the mixed streams
    /// (`"mixed-50-50"` etc.).
    pub fn builtin(name: &str) -> Option<WorkloadSpec> {
        let all_queries = QueryId::all().map(Self::for_query);
        if let Some(s) = all_queries.iter().find(|s| s.name == name) {
            return Some(s.clone());
        }
        if let Some(s) = Self::shipped().into_iter().find(|s| s.name == name) {
            return Some(s);
        }
        MixKind::all()
            .into_iter()
            .map(Self::mixed)
            .find(|s| s.name == name)
    }
}

// ---- JSON (de)serialization ------------------------------------------------
//
// Hand-rolled over the vendored `serde_json::Value` document type; with real
// serde available these become `#[derive(Serialize, Deserialize)]` with the
// same field spellings.

use serde_json::Value;

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(n: u64) -> Value {
    Value::Number(n as f64)
}

/// Rejects unrecognized fields in a JSON object — a typo'd key (`"hots"`
/// for `"hot"`, `"drifts"` for `"drift"`) must fail loudly instead of
/// silently running a different workload than the one the user wrote.
fn check_keys(v: &Value, what: &str, allowed: &[&str]) -> Result<(), String> {
    if let Some(members) = v.as_object() {
        for (k, _) in members {
            if !allowed.contains(&k.as_str()) {
                return Err(format!(
                    "{what}: unknown field \"{k}\" (allowed: {})",
                    allowed.join(", ")
                ));
            }
        }
    }
    Ok(())
}

impl Count {
    fn to_value(self) -> Value {
        match self {
            Count::Fixed(n) => num(n),
            Count::SampleCapped(n) => obj(vec![("sample_capped", num(n))]),
            Count::ObjectsOver(n) => obj(vec![("objects_over", num(n))]),
        }
    }

    fn from_value(v: &Value) -> Result<Count, String> {
        if let Some(n) = v.as_u64() {
            return Ok(Count::Fixed(n));
        }
        check_keys(v, "count", &["fixed", "sample_capped", "objects_over"])?;
        if let Some(n) = v.get("fixed").and_then(Value::as_u64) {
            return Ok(Count::Fixed(n));
        }
        if let Some(n) = v.get("sample_capped").and_then(Value::as_u64) {
            return Ok(Count::SampleCapped(n));
        }
        if let Some(n) = v.get("objects_over").and_then(Value::as_u64) {
            return Ok(Count::ObjectsOver(n));
        }
        Err(
            "count must be a number, {\"fixed\": n}, {\"sample_capped\": n} \
             or {\"objects_over\": n}"
                .into(),
        )
    }
}

impl ProjSpec {
    fn as_str(self) -> &'static str {
        match self {
            ProjSpec::All => "all",
            ProjSpec::Atomics => "atomics",
        }
    }

    fn from_value(v: Option<&Value>) -> Result<ProjSpec, String> {
        match v.map(|v| v.as_str()) {
            None => Ok(ProjSpec::All),
            Some(Some("all")) => Ok(ProjSpec::All),
            Some(Some("atomics")) => Ok(ProjSpec::Atomics),
            _ => Err("proj must be \"all\" or \"atomics\"".into()),
        }
    }
}

impl PatchSpec {
    fn to_value(&self) -> Value {
        match self {
            PatchSpec::LoopName => Value::String("loop-name".into()),
            PatchSpec::Prefixed(p) => obj(vec![("prefixed", Value::String(p.clone()))]),
        }
    }

    fn from_value(v: Option<&Value>) -> Result<PatchSpec, String> {
        match v {
            None => Ok(PatchSpec::LoopName),
            Some(v) => {
                if v.as_str() == Some("loop-name") {
                    Ok(PatchSpec::LoopName)
                } else if let Some(p) = v.get("prefixed").and_then(Value::as_str) {
                    check_keys(v, "patch", &["prefixed"])?;
                    Ok(PatchSpec::Prefixed(p.to_string()))
                } else {
                    Err("patch must be \"loop-name\" or {\"prefixed\": \"…\"}".into())
                }
            }
        }
    }
}

impl MixKind {
    /// Parses a mix from its report/JSON name.
    pub fn parse(s: &str) -> Option<MixKind> {
        MixKind::all().into_iter().find(|m| m.name() == s)
    }
}

impl Op {
    fn to_value(&self) -> Value {
        match self {
            Op::PickRandom { n } => obj(vec![
                ("op", Value::String("pick_random".into())),
                ("n", num(*n)),
            ]),
            Op::PickSkewed {
                hot,
                pct_hot,
                drift,
            } => {
                let mut members = vec![
                    ("op", Value::String("pick_skewed".into())),
                    ("hot", num(*hot)),
                    ("pct_hot", num(*pct_hot as u64)),
                ];
                if let Some(d) = drift {
                    members.push((
                        "drift",
                        obj(vec![("shift", num(d.shift)), ("period", num(d.period))]),
                    ));
                }
                obj(members)
            }
            Op::Phase { every, picks } => obj(vec![
                ("op", Value::String("phase".into())),
                ("every", num(*every)),
                (
                    "picks",
                    Value::Array(picks.iter().map(Op::to_value).collect()),
                ),
            ]),
            Op::ScanAll => obj(vec![("op", Value::String("scan_all".into()))]),
            Op::GetByOid { proj } => obj(vec![
                ("op", Value::String("get_by_oid".into())),
                ("proj", Value::String(proj.as_str().into())),
            ]),
            Op::GetByKey { proj } => obj(vec![
                ("op", Value::String("get_by_key".into())),
                ("proj", Value::String(proj.as_str().into())),
            ]),
            Op::NavigateChildren { depth } => obj(vec![
                ("op", Value::String("navigate_children".into())),
                ("depth", num(*depth as u64)),
            ]),
            Op::FetchRoots => obj(vec![("op", Value::String("fetch_roots".into()))]),
            Op::UpdateRoots { patch } => obj(vec![
                ("op", Value::String("update_roots".into())),
                ("patch", patch.to_value()),
            ]),
            Op::ColdRestart => obj(vec![("op", Value::String("cold_restart".into()))]),
            Op::Loop { count, body } => obj(vec![
                ("op", Value::String("loop".into())),
                ("count", count.to_value()),
                (
                    "body",
                    Value::Array(body.iter().map(Op::to_value).collect()),
                ),
            ]),
        }
    }

    fn from_value(v: &Value) -> Result<Op, String> {
        let kind = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("every op needs an \"op\" string field")?;
        let keys = |allowed: &[&str]| check_keys(v, kind, allowed);
        match kind {
            "pick_random" => {
                keys(&["op", "n"])?;
                Ok(Op::PickRandom {
                    // Required and numeric: a missing or mistyped "n" used
                    // to silently default to 1 and measure the wrong plan.
                    n: v.get("n")
                        .and_then(Value::as_u64)
                        .ok_or("pick_random needs a numeric \"n\"")?,
                })
            }
            "pick_skewed" => {
                keys(&["op", "hot", "pct_hot", "drift"])?;
                let pct = v
                    .get("pct_hot")
                    .and_then(Value::as_u64)
                    .ok_or("pick_skewed needs \"pct_hot\" (0-100)")?;
                // Range-check before the u8 cast: 300 must be an error,
                // not a silent truncation to 44.
                if pct > 100 {
                    return Err("pick_skewed pct_hot is a percentage (0-100)".into());
                }
                let drift = match v.get("drift") {
                    None => None,
                    Some(d) => {
                        check_keys(d, "drift", &["shift", "period"])?;
                        Some(Drift {
                            shift: d
                                .get("shift")
                                .and_then(Value::as_u64)
                                .ok_or("drift needs a numeric \"shift\"")?,
                            period: d
                                .get("period")
                                .and_then(Value::as_u64)
                                .ok_or("drift needs a numeric \"period\"")?,
                        })
                    }
                };
                Ok(Op::PickSkewed {
                    hot: v
                        .get("hot")
                        .and_then(Value::as_u64)
                        .ok_or("pick_skewed needs \"hot\"")?,
                    pct_hot: pct as u8,
                    drift,
                })
            }
            "phase" => {
                keys(&["op", "every", "picks"])?;
                let picks = v
                    .get("picks")
                    .and_then(Value::as_array)
                    .ok_or("phase needs a \"picks\" array")?
                    .iter()
                    .map(Op::from_value)
                    .collect::<Result<Vec<Op>, String>>()?;
                Ok(Op::Phase {
                    every: v
                        .get("every")
                        .and_then(Value::as_u64)
                        .ok_or("phase needs a numeric \"every\"")?,
                    picks,
                })
            }
            "scan_all" => {
                keys(&["op"])?;
                Ok(Op::ScanAll)
            }
            "get_by_oid" => {
                keys(&["op", "proj"])?;
                Ok(Op::GetByOid {
                    proj: ProjSpec::from_value(v.get("proj"))?,
                })
            }
            "get_by_key" => {
                keys(&["op", "proj"])?;
                Ok(Op::GetByKey {
                    proj: ProjSpec::from_value(v.get("proj"))?,
                })
            }
            "navigate_children" => {
                keys(&["op", "depth"])?;
                Ok(Op::NavigateChildren {
                    depth: v
                        .get("depth")
                        .and_then(Value::as_u64)
                        .ok_or("navigate_children needs \"depth\"")?
                        as u32,
                })
            }
            "fetch_roots" => {
                keys(&["op"])?;
                Ok(Op::FetchRoots)
            }
            "update_roots" => {
                keys(&["op", "patch"])?;
                Ok(Op::UpdateRoots {
                    patch: PatchSpec::from_value(v.get("patch"))?,
                })
            }
            "cold_restart" => {
                keys(&["op"])?;
                Ok(Op::ColdRestart)
            }
            "loop" => {
                keys(&["op", "count", "body"])?;
                let count =
                    Count::from_value(v.get("count").ok_or("loop needs a \"count\" field")?)?;
                let body = v
                    .get("body")
                    .and_then(Value::as_array)
                    .ok_or("loop needs a \"body\" array")?
                    .iter()
                    .map(Op::from_value)
                    .collect::<Result<Vec<Op>, String>>()?;
                Ok(Op::Loop { count, body })
            }
            other => Err(format!("unknown op \"{other}\"")),
        }
    }
}

impl WorkloadSpec {
    /// Serializes the spec as a compact JSON document (the format
    /// [`from_json`](Self::from_json) reads).
    pub fn to_json(&self) -> String {
        let mut members = vec![
            ("name", Value::String(self.name.clone())),
            ("description", Value::String(self.description.clone())),
            ("stream", num(self.stream)),
            (
                "unit",
                Value::String(
                    match self.unit {
                        NormUnit::Loops => "loops",
                        NormUnit::ScannedObjects => "scanned-objects",
                    }
                    .into(),
                ),
            ),
        ];
        if let Some(mix) = self.mix {
            members.push(("mix", Value::String(mix.name().into())));
        }
        members.push((
            "ops",
            Value::Array(self.ops.iter().map(Op::to_value).collect()),
        ));
        obj(members).to_string()
    }

    /// Parses and validates a spec from its JSON document form.
    pub fn from_json(s: &str) -> Result<WorkloadSpec, String> {
        let v: Value = serde_json::from_str(s).map_err(|e| e.to_string())?;
        check_keys(
            &v,
            "spec",
            &["name", "description", "stream", "unit", "mix", "ops"],
        )?;
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("spec needs a \"name\" string")?
            .to_string();
        let description = v
            .get("description")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let stream = v
            .get("stream")
            .and_then(Value::as_u64)
            .ok_or("spec needs a numeric \"stream\" (the RNG stream id)")?;
        let unit = match v.get("unit").map(|u| u.as_str()) {
            None | Some(Some("loops")) => NormUnit::Loops,
            Some(Some("scanned-objects")) => NormUnit::ScannedObjects,
            _ => return Err("unit must be \"loops\" or \"scanned-objects\"".into()),
        };
        let mix = match v.get("mix") {
            None => None,
            Some(m) => Some(
                m.as_str()
                    .and_then(MixKind::parse)
                    .ok_or("mix must be \"read-only\", \"50-50\" or \"update-heavy\"")?,
            ),
        };
        let ops = v
            .get("ops")
            .and_then(Value::as_array)
            .ok_or("spec needs an \"ops\" array")?
            .iter()
            .map(Op::from_value)
            .collect::<Result<Vec<Op>, String>>()?;
        let spec = WorkloadSpec {
            name,
            description,
            stream,
            unit,
            mix,
            ops,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_resolve_like_the_paper() {
        assert_eq!(Count::Fixed(7).resolve(1500), 7);
        assert_eq!(Count::SampleCapped(25).resolve(1500), 25);
        assert_eq!(Count::SampleCapped(25).resolve(10), 10);
        assert_eq!(Count::SampleCapped(25).resolve(0), 1);
        assert_eq!(Count::ObjectsOver(5).resolve(1500), 300);
        assert_eq!(Count::ObjectsOver(5).resolve(60), 12);
        assert_eq!(Count::ObjectsOver(5).resolve(3), 1, "never zero loops");
    }

    #[test]
    fn builtin_specs_validate() {
        for q in QueryId::all() {
            WorkloadSpec::for_query(q).validate().unwrap();
        }
        for s in WorkloadSpec::shipped() {
            s.validate().unwrap();
        }
        for m in MixKind::all() {
            WorkloadSpec::mixed(m).validate().unwrap();
        }
    }

    #[test]
    fn builtin_lookup_finds_queries_and_scenarios() {
        assert_eq!(WorkloadSpec::builtin("q2b"), Some(WorkloadSpec::q2b()));
        assert_eq!(
            WorkloadSpec::builtin("deep-nav"),
            Some(WorkloadSpec::deep_nav())
        );
        assert_eq!(
            WorkloadSpec::builtin("mixed-50-50"),
            Some(WorkloadSpec::mixed(MixKind::Mixed5050))
        );
        assert_eq!(WorkloadSpec::builtin("nope"), None);
    }

    #[test]
    fn a_deeply_nested_spec_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = WorkloadSpec::from_json(&deep).unwrap_err();
        assert!(
            err.contains("recursion limit") && err.contains("128"),
            "{err}"
        );
    }

    #[test]
    fn queries_2_and_3_share_streams() {
        assert_eq!(WorkloadSpec::q2a().stream, WorkloadSpec::q3a().stream);
        assert_eq!(WorkloadSpec::q2b().stream, WorkloadSpec::q3b().stream);
        assert_ne!(WorkloadSpec::q2a().stream, WorkloadSpec::q2b().stream);
    }

    #[test]
    fn patch_names_are_100_bytes_and_unique() {
        let n = |l| PatchSpec::LoopName.materialize(l);
        assert_eq!(n(0).len(), 100);
        assert_eq!(n(12345).len(), 100);
        assert_ne!(n(1), n(2));
        let p = PatchSpec::Prefixed("batch".into());
        assert_eq!(p.materialize(9).len(), 100);
        assert!(p.materialize(9).starts_with("batch-9-"));
    }

    #[test]
    fn json_round_trips_every_builtin() {
        let mut all: Vec<WorkloadSpec> = QueryId::all()
            .into_iter()
            .map(WorkloadSpec::for_query)
            .collect();
        all.extend(WorkloadSpec::shipped());
        all.extend(MixKind::all().into_iter().map(WorkloadSpec::mixed));
        for spec in all {
            let json = spec.to_json();
            let back = WorkloadSpec::from_json(&json).unwrap_or_else(|e| {
                panic!("{}: {e}\n{json}", spec.name);
            });
            assert_eq!(back, spec, "round trip changed {}", spec.name);
        }
    }

    #[test]
    fn json_errors_are_descriptive() {
        assert!(WorkloadSpec::from_json("{").unwrap_err().contains("parse"));
        assert!(WorkloadSpec::from_json("{\"name\":\"x\"}")
            .unwrap_err()
            .contains("stream"));
        let bad_op = r#"{"name":"x","stream":9,"ops":[{"op":"warp"}]}"#;
        assert!(WorkloadSpec::from_json(bad_op)
            .unwrap_err()
            .contains("unknown op"));
        let bad_depth = r#"{"name":"x","stream":9,"ops":[{"op":"navigate_children","depth":40}]}"#;
        assert!(WorkloadSpec::from_json(bad_depth)
            .unwrap_err()
            .contains("depth"));
    }

    #[test]
    fn missing_or_mistyped_pick_random_n_is_an_error() {
        let missing = r#"{"name":"x","stream":9,"ops":[{"op":"pick_random"}]}"#;
        assert!(WorkloadSpec::from_json(missing)
            .unwrap_err()
            .contains("pick_random needs"));
        let mistyped = r#"{"name":"x","stream":9,"ops":[{"op":"pick_random","n":"one"}]}"#;
        assert!(WorkloadSpec::from_json(mistyped)
            .unwrap_err()
            .contains("pick_random needs"));
    }

    #[test]
    fn out_of_range_pct_hot_is_rejected_not_truncated() {
        // 300 as u8 would be 44 — a valid-looking percentage. It must be a
        // range error instead.
        let over = r#"{"name":"x","stream":9,"ops":[{"op":"pick_skewed","hot":8,"pct_hot":300}]}"#;
        assert!(WorkloadSpec::from_json(over).unwrap_err().contains("0-100"));
    }

    #[test]
    fn unknown_op_fields_are_rejected() {
        let typo = r#"{"name":"x","stream":9,"ops":[{"op":"pick_skewed","hots":8,"pct_hot":90}]}"#;
        let err = WorkloadSpec::from_json(typo).unwrap_err();
        assert!(err.contains("hots"), "{err}");
        let spec_typo = r#"{"name":"x","stream":9,"opps":[],"ops":[]}"#;
        assert!(WorkloadSpec::from_json(spec_typo)
            .unwrap_err()
            .contains("opps"));
        let drift_typo = r#"{"name":"x","stream":9,"ops":[
            {"op":"pick_skewed","hot":8,"pct_hot":90,"drift":{"shift":2,"periods":6}}]}"#;
        assert!(WorkloadSpec::from_json(drift_typo)
            .unwrap_err()
            .contains("periods"));
    }

    #[test]
    fn drift_offsets_slide_and_wrap() {
        let d = Drift {
            shift: 4,
            period: 8,
        };
        assert_eq!(d.offset(0, 300), 0);
        assert_eq!(d.offset(7, 300), 0, "no move within the first period");
        assert_eq!(d.offset(8, 300), 4);
        assert_eq!(d.offset(16, 300), 8);
        assert_eq!(
            Drift {
                shift: 137,
                period: 60
            }
            .offset(60, 300),
            137
        );
        assert_eq!(
            Drift {
                shift: 200,
                period: 1
            }
            .offset(2, 300),
            100,
            "wraps modulo the database size"
        );
        assert_eq!(d.offset(50, 0), 0, "empty database never indexes");
    }

    #[test]
    fn phase_validation_rejects_non_pick_members() {
        let mut spec = WorkloadSpec::drift_cycle();
        spec.validate().unwrap();
        if let Op::Loop { body, .. } = &mut spec.ops[0] {
            if let Op::Phase { picks, .. } = &mut body[0] {
                picks.push(Op::ScanAll);
            }
        }
        assert!(spec.validate().unwrap_err().contains("phase picks"));
    }

    #[test]
    fn mix_gating_defaults_to_always() {
        let mut spec = WorkloadSpec::q3b();
        assert!(spec.updates_at(0) && spec.updates_at(1));
        spec.mix = Some(MixKind::Mixed5050);
        assert!(!spec.updates_at(0));
        assert!(spec.updates_at(1));
    }
}
