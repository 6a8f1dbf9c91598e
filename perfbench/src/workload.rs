//! The three workloads: which trees and queries each sends, at what
//! rates, and the `serve` flags it starts the server with.
//!
//! Every input is a pure function of the seed: tree batches come from
//! `sketchtree-loadgen`'s `Workload::prepare`, and the query stream's
//! op kinds and texts are chosen by hashing the op index with the seed.

use sketchtree_loadgen::scenario::{splitmix64, Workload};
use sketchtree_loadgen::DataShape;
use sketchtree_server::wire::{frame_bytes, Request, SubscribeMode};
use sketchtree_standing::QueryMode;

/// Trees per batch in the closed-loop capacity phase.
pub const CAPACITY_BATCH: usize = 64;
/// Distinct 64-tree batches the capacity producers cycle through.
pub const CAPACITY_POOL: usize = 24;
/// Producer connections in the capacity phase (the client's share of
/// a 2-core machine; see README.md).
pub const PRODUCERS: usize = 2;
/// Untimed batches each producer sends before the timed window, so
/// sign caches and allocator pools are warm.
pub const WARMUP_BATCHES: usize = 2;
/// Trees per batch in the recovery fixture.
pub const FIXTURE_BATCH: usize = 16;
/// Distinct 16-tree batches the open-loop producer cycles through.
pub const OPEN_POOL: usize = 64;
/// Trees per batch on the open-loop ingest connection: at
/// [`INGEST_RATE`] about a tenth of the shape's capacity, so no backlog
/// forms and queries rarely meet the exclusive insert lock.  (16
/// TREEBANK trees would hold that lock ~60% of the time, and query
/// medians would flip between waiting and not waiting run to run.)
pub fn open_batch(shape: DataShape) -> usize {
    match shape {
        DataShape::Treebank => 3,
        _ => 16,
    }
}

/// Open-loop ingest rate, batches per second.
pub const INGEST_RATE: f64 = 20.0;
/// Open-loop query rate, ops per second.
pub const QUERY_RATE: f64 = 100.0;
/// 16-tree batches the fixture checkpoint covers.
pub const FIXTURE_CHECKPOINT_BATCHES: usize = 32;
/// 16-tree batches the fixture's write-ahead-log tail holds.
pub const FIXTURE_TAIL_BATCHES: usize = 32;
/// Periodic checkpoint interval of the durable workload, seconds.
pub const CHECKPOINT_SECS: u64 = 2;

/// One benchmark workload.
pub struct Spec {
    pub name: &'static str,
    pub shape: DataShape,
    /// Runs a closed-loop capacity phase over the first half of the
    /// window, then the open-loop phase over the second half.  Without
    /// it the open-loop phase fills the window.
    pub capacity: bool,
    /// Starts the server from the recovery fixture with a write-ahead
    /// log that fsyncs every batch, plus periodic checkpoints.
    pub durable: bool,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "ingest-treebank",
        shape: DataShape::Treebank,
        capacity: true,
        durable: false,
    },
    Spec {
        name: "ingest-dblp",
        shape: DataShape::Dblp,
        capacity: true,
        durable: false,
    },
    Spec {
        name: "mixed-dblp-durable",
        shape: DataShape::Dblp,
        capacity: false,
        durable: true,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Width of the server's ingest pipeline.  Not the default (the CPU
/// count): on a 2-core machine that the client shares, the 2-thread
/// pipeline's per-window thread hand-off made open-loop medians swing by
/// a third between identical runs (README.md, "Why one ingest thread").
pub const INGEST_THREADS: u64 = 1;

/// The flags `serve` gets: sketch geometry from
/// `DataShape::sketch_config`, and [`INGEST_THREADS`].
pub fn serve_flags(shape: DataShape, seed: u64) -> Vec<String> {
    let c = shape.sketch_config(seed);
    let s = &c.synopsis;
    [
        ("--ingest-threads", INGEST_THREADS),
        ("--k", c.max_pattern_edges as u64),
        ("--s1", s.s1 as u64),
        ("--s2", s.s2 as u64),
        ("--streams", s.virtual_streams as u64),
        ("--topk", s.topk as u64),
        ("--seed", s.seed),
    ]
    .iter()
    .flat_map(|(flag, v)| [flag.to_string(), v.to_string()])
    .collect()
}

/// A batch pool encoded once as `IngestTrees` frames, so producers
/// spend no CPU on encoding while they measure the server.
pub struct Pool {
    pub labels: Vec<String>,
    pub batches: Vec<Vec<sketchtree_tree::Tree>>,
    /// Request payload per batch (no frame header).
    pub payloads: Vec<Vec<u8>>,
    /// Whole frame per batch (header + payload).
    pub frames: Vec<Vec<u8>>,
}

impl Pool {
    pub fn prepare(shape: DataShape, seed: u64, batch: usize, n: usize) -> Pool {
        let w = Workload::prepare(shape, seed, batch, n);
        let mut payloads = Vec::with_capacity(n);
        let mut frames = Vec::with_capacity(n);
        for trees in &w.batches {
            let req = Request::IngestTrees {
                labels: w.labels.clone(),
                trees: trees.clone(),
            };
            let payload = req.encode();
            frames.push(frame_bytes(req.kind(), &payload).expect("a pool batch fits one frame"));
            payloads.push(payload);
        }
        Pool {
            labels: w.labels,
            batches: w.batches,
            payloads,
            frames,
        }
    }
}

/// Seeds for the three pools, kept apart so no pool repeats another's trees.
pub fn capacity_seed(seed: u64) -> u64 {
    splitmix64(seed ^ 0xCA9A_C17E)
}
pub fn fixture_seed(seed: u64) -> u64 {
    splitmix64(seed ^ 0xF1C5_0000)
}

/// Query classes on the open-loop query connection, with their shares
/// of the stream in percent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Ordered simple `Count`.
    Count,
    /// Unordered counts and `*` / `//` counts: both need expansion.
    Expand,
    /// Two-term `Expr`.
    Expr,
    /// Subscribe, then unsubscribe once the subscription is acked.
    Churn,
}

const CLASS_SHARES: [(Class, u64); 4] = [
    (Class::Count, 50),
    (Class::Expand, 25),
    (Class::Expr, 15),
    (Class::Churn, 10),
];

/// The standing-crate mode a query of `class` is answered in.
pub fn mode(class: Class, unordered: bool) -> QueryMode {
    match (class, unordered) {
        (Class::Expr, _) => QueryMode::Expr,
        (_, true) => QueryMode::Unordered,
        _ => QueryMode::Ordered,
    }
}

/// One scheduled op of the query connection.
pub struct QueryOp {
    pub class: Class,
    /// Unordered count (only for [`Class::Expand`]).
    pub unordered: bool,
    pub text: &'static str,
    /// The frame to send.
    pub frame: Vec<u8>,
}

/// Expansion queries per shape: unordered patterns, and ordered ones
/// with `*` or `//` that the structural summary must expand.
pub fn expand_queries(shape: DataShape) -> &'static [(bool, &'static str)] {
    match shape {
        DataShape::Treebank => {
            // No `//` here: descendant paths through the recursive
            // grammar outgrow k = 5 and the query would fail.
            &[
                (true, "S(VP,NP)"),
                (true, "NP(NN,DT)"),
                (false, "NP(*)"),
                (false, "*(DT,NN)"),
            ]
        }
        _ => &[
            (true, "article(year,author)"),
            (true, "inproceedings(title,author)"),
            (false, "article(*)"),
            (false, "*(author)"),
            (false, "article(//author)"),
        ],
    }
}

/// Number of ops an open-loop stream at `rate` schedules in `window`.
pub fn scheduled(rate: f64, window: f64) -> usize {
    (window * rate).ceil().max(1.0) as usize
}

/// The query connection's schedule: op `j` is due `j / QUERY_RATE`
/// seconds after the open-loop phase starts.
pub fn query_ops(shape: DataShape, seed: u64, n: usize) -> Vec<QueryOp> {
    (0..n as u64)
        .map(|j| {
            let h = splitmix64(seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut r = h % 100;
            let class = CLASS_SHARES
                .iter()
                .find_map(|&(c, share)| {
                    if r < share {
                        Some(c)
                    } else {
                        r -= share;
                        None
                    }
                })
                .unwrap_or(Class::Count);
            let pick = (h >> 32) as usize;
            let (unordered, text) = match class {
                Class::Count => (false, pick_from(shape.count_queries(), pick)),
                Class::Expand => {
                    let all = expand_queries(shape);
                    all[pick % all.len()]
                }
                Class::Expr => (false, pick_from(shape.expr_queries(), pick)),
                Class::Churn => (false, pick_from(shape.standing_queries(), pick)),
            };
            let req = match class {
                Class::Count | Class::Expand => Request::Count {
                    unordered,
                    pattern: text.to_string(),
                },
                Class::Expr => Request::Expr(text.to_string()),
                Class::Churn => Request::Subscribe {
                    mode: SubscribeMode::Ordered,
                    query: text.to_string(),
                },
            };
            let frame = frame_bytes(req.kind(), &req.encode()).expect("a query fits one frame");
            QueryOp {
                class,
                unordered,
                text,
                frame,
            }
        })
        .collect()
}

fn pick_from(texts: &'static [&'static str], pick: usize) -> &'static str {
    texts[pick % texts.len()]
}

/// Every ad-hoc text of a shape, for the final served-vs-reference check:
/// `(class, unordered, text)`.
pub fn final_texts(shape: DataShape) -> Vec<(Class, bool, &'static str)> {
    let mut out: Vec<(Class, bool, &'static str)> = Vec::new();
    for &t in shape.count_queries().iter().chain(shape.standing_queries()) {
        if !out.iter().any(|&(_, _, x)| x == t) {
            out.push((Class::Count, false, t));
        }
    }
    out.extend(
        expand_queries(shape)
            .iter()
            .map(|&(u, t)| (Class::Expand, u, t)),
    );
    out.extend(
        shape
            .expr_queries()
            .iter()
            .map(|&t| (Class::Expr, false, t)),
    );
    out
}
