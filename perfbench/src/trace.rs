//! The traced run: the same inputs fed in-process, on one client thread,
//! through each layer's public functions in the order the server calls
//! them, with a span around every call.
//!
//! Spans are kept in memory and written out when the run ends.  Stages
//! the server keeps crate-private (`remap_tree`, lock waits, socket I/O,
//! hook dispatch) have no public entry point; their cost shows only in
//! the `server.*_unaccounted_share` metrics.

use crate::lat::median;
use crate::serve::Fixture;
use crate::workload::{
    expand_queries, final_texts, mode, Class, Pool, QueryOp, Spec, INGEST_RATE, INGEST_THREADS,
    QUERY_RATE,
};
use sketchtree_core::concurrent::SharedSketchTree;
use sketchtree_core::snapshot::{read_snapshot, write_snapshot};
use sketchtree_core::{IngestOptions, SketchTree};
use sketchtree_server::durability::{recover, WalConfig};
use sketchtree_server::wire::{decode_ingest_trees, HEADER_LEN};
use sketchtree_server::ServerMetrics;
use sketchtree_standing::{QueryCache, QueryMode, QueryRegistry, QuerySpec};
use sketchtree_tree::{Label, NodeId, Tree, TreeBuilder};
use sketchtree_wal::{encode_batch, Wal};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Recoveries, snapshot reads and snapshot writes timed per run.
const REPEATS: usize = 3;

pub struct Span {
    /// The op (batch, query, recovery, ...) this span belongs to.
    pub op: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A count recorded at a layer boundary.
pub struct Note {
    pub op: u32,
    pub name: &'static str,
    pub value: f64,
}

#[derive(Default)]
pub struct Tracer {
    t0: Option<Instant>,
    pub spans: Vec<Span>,
    pub notes: Vec<Note>,
    roots: Vec<&'static str>,
    open: Vec<u32>,
}

impl Tracer {
    fn now_ns(&mut self) -> u64 {
        let t0 = *self.t0.get_or_insert_with(Instant::now);
        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open_span(&mut self, name: &'static str) -> u32 {
        let op = match self.open.first() {
            Some(&root) => self.spans[root as usize].op,
            None => {
                self.roots.push(name);
                (self.roots.len() - 1) as u32
            }
        };
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    fn close_span(&mut self) {
        let end = self.now_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`, a child of the open span (or
    /// the root of a new op).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.open_span(name);
        let r = f(self);
        self.close_span();
        r
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        let op = self
            .open
            .first()
            .map_or(0, |&root| self.spans[root as usize].op);
        self.notes.push(Note { op, name, value });
    }

    /// Per-span self time: duration minus the time its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p as usize] = out[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        out
    }

    /// Ops whose root span is `root`: per op, span durations (µs) by
    /// name and notes by name.
    fn ops(&self, root: &str) -> Vec<OpView> {
        let mut views: HashMap<u32, OpView> = HashMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| self.roots[s.op as usize] == root)
        {
            *views.entry(s.op).or_default().us.entry(s.name).or_default() +=
                (s.end_ns - s.start_ns) as f64 / 1e3;
        }
        for n in self
            .notes
            .iter()
            .filter(|n| self.roots.get(n.op as usize) == Some(&root))
        {
            *views
                .entry(n.op)
                .or_default()
                .notes
                .entry(n.name)
                .or_default() += n.value;
        }
        let mut v: Vec<(u32, OpView)> = views.into_iter().collect();
        v.sort_by_key(|(op, _)| *op);
        v.into_iter().map(|(_, view)| view).collect()
    }

    /// Spans as JSON lines, then notes.
    pub fn render_jsonl(&self) -> String {
        let self_ns = self.self_ns();
        let mut out = String::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.op, s.id, s.name, s.start_ns as f64 / 1e3, s.end_ns as f64 / 1e3, *own as f64 / 1e3
            );
        }
        for n in &self.notes {
            let _ = writeln!(
                out,
                "{{\"op\":{},\"count\":\"{}\",\"value\":{}}}",
                n.op, n.name, n.value
            );
        }
        out
    }

    /// Per span name: calls, median duration and median self time (µs),
    /// and the share of all self time.
    pub fn render_table(&self) -> String {
        let self_ns = self.self_ns();
        let total: u64 = self_ns.iter().sum();
        let mut by_name: Vec<(&str, Vec<f64>, Vec<f64>)> = Vec::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let i = match by_name.iter().position(|(n, _, _)| *n == s.name) {
                Some(i) => i,
                None => {
                    by_name.push((s.name, Vec::new(), Vec::new()));
                    by_name.len() - 1
                }
            };
            by_name[i].1.push((s.end_ns - s.start_ns) as f64 / 1e3);
            by_name[i].2.push(*own as f64 / 1e3);
        }
        let mut out = format!(
            "{:<28} {:>7} {:>12} {:>12} {:>8}\n",
            "span", "calls", "p50 us", "p50 self us", "self %"
        );
        for (name, dur, own) in by_name {
            let share = own.iter().sum::<f64>() * 1e3 / total.max(1) as f64 * 100.0;
            let _ = writeln!(
                out,
                "{name:<28} {:>7} {:>12.1} {:>12.1} {share:>7.1}%",
                dur.len(),
                median(dur).unwrap_or(0.0),
                median(own).unwrap_or(0.0)
            );
        }
        out
    }
}

#[derive(Default)]
struct OpView {
    us: HashMap<&'static str, f64>,
    notes: HashMap<&'static str, f64>,
}

impl OpView {
    fn us(&self, name: &str) -> f64 {
        self.us.get(name).copied().unwrap_or(0.0)
    }
    fn note(&self, name: &str) -> f64 {
        self.notes.get(name).copied().unwrap_or(0.0)
    }
}

/// What the traced run is fed.
pub struct Input<'a> {
    pub spec: &'static Spec,
    pub seed: u64,
    pub fixture: &'a Fixture,
    pub dir: &'a Path,
    pub capacity: Option<&'a Pool>,
    pub open: &'a Pool,
    pub n_batches: usize,
    pub queries: &'a [QueryOp],
    pub standing: &'a [&'a str],
}

pub struct Output {
    pub tracer: Tracer,
    /// Patterns per capacity-pool batch.
    pub capacity_patterns: Vec<u64>,
    /// Patterns per open-loop batch, in send order.
    pub open_patterns: Vec<u64>,
    /// Trees and patterns in the synopsis at the end (fixture included
    /// on the durable workload).
    pub trees: u64,
    pub patterns: u64,
    /// Final answer per ad-hoc text of the shape.
    pub answers: Vec<(Class, bool, &'static str, Result<f64, String>)>,
    pub replayed_batches: u64,
    pub restored_trees: u64,
    pub distinct_queries: usize,
    pub memory_bytes: usize,
    pub atoms_per_expand: f64,
}

/// The layers one ingest batch passes through.
struct Layers<'a> {
    shared: &'a SharedSketchTree,
    wal: &'a mut Wal,
    registry: &'a QueryRegistry,
    cache: &'a QueryCache,
    opts: IngestOptions,
}

impl Layers<'_> {
    /// One `IngestTrees` payload, in server order: decode, log, resolve
    /// labels, (remap), ingest, then the standing-query hook.  The extra
    /// `core.enumerate` read times enumeration on its own; the server
    /// does it inside `ingest_batch`.
    fn ingest(
        &mut self,
        t: &mut Tracer,
        root: &'static str,
        payload: &[u8],
    ) -> Result<u64, String> {
        t.time(root, |t| {
            t.note("wire.frame_bytes", (payload.len() + HEADER_LEN) as f64);
            let (labels, trees) = t
                .time("wire.decode", |_| decode_ingest_trees(payload))
                .map_err(|e| format!("decode: {e}"))?;
            let logged = t
                .time("wal.encode", |_| encode_batch(&labels, &trees))
                .map_err(|e| format!("wal encode: {e}"))?;
            let appended = t
                .time("wal.append", |_| self.wal.append(&logged))
                .map_err(|e| format!("wal append: {e}"))?;
            t.note("wal.bytes", appended.bytes as f64);
            let map: Vec<Label> = t.time("labels.resolve", |_| {
                self.shared
                    .with_labels(|g| labels.iter().map(|name| g.intern(name)).collect())
            });
            let remapped: Vec<Tree> = trees.iter().map(|tree| remap(tree, &map)).collect();
            let opts = self.opts;
            let values = t.time("core.enumerate", |_| {
                self.shared
                    .read(|st| st.enumerate_values_batch(&remapped, opts))
            });
            let (n, patterns) =
                t.time("core.ingest_batch", |_| self.shared.ingest_batch(&remapped));
            self.shared.set_wal_seq(appended.seq);
            t.time("standing.eval", |_| {
                self.shared.read(|st| self.registry.evaluate_all(st))
            });
            let enumerated: usize = values.iter().map(Vec::len).sum();
            if enumerated as u64 != patterns {
                return Err(format!(
                    "enumerate saw {enumerated} patterns, ingest_batch {patterns}"
                ));
            }
            t.note("trees", n as f64);
            t.note("patterns", patterns as f64);
            Ok(patterns)
        })
    }

    /// One ad-hoc query, as the server answers it: parse, then under one
    /// read scope the epoch-keyed cache lookup and, on a miss, the
    /// estimate and the cache insert.
    fn query(
        &mut self,
        t: &mut Tracer,
        class: Class,
        unordered: bool,
        text: &str,
    ) -> Result<(), String> {
        let mode = mode(class, unordered);
        let estimate_span = match class {
            Class::Count => "query.count_estimate",
            Class::Expand => "query.expand_estimate",
            _ => "query.expr_estimate",
        };
        t.time("query", |t| {
            let spec = t.time("query.parse", |_| QuerySpec::parse(mode, text))?;
            let key = spec.key();
            self.shared.read(|st| {
                let epoch = st.epoch();
                let hit = t
                    .time("query.cache_lookup", |_| self.cache.lookup(&key, epoch))
                    .is_some();
                t.note("query.cache_hit", f64::from(u8::from(hit)));
                if !hit {
                    let v = t.time(estimate_span, |_| estimate(st, &spec))?;
                    t.time("query.cache_insert", |_| {
                        self.cache.insert(key.clone(), epoch, v)
                    });
                }
                Ok(())
            })
        })
    }
}

fn estimate(st: &SketchTree, spec: &QuerySpec) -> Result<f64, String> {
    match spec.mode() {
        QueryMode::Ordered => st.count_ordered(spec.text()).map_err(|e| e.to_string()),
        QueryMode::Unordered => st.count_unordered(spec.text()).map_err(|e| e.to_string()),
        QueryMode::Expr => {
            let expr = spec.expr().ok_or("expression spec without its parse")?;
            st.estimate(expr).map_err(|e| e.to_string())
        }
    }
}

/// Rebuilds `tree` with labels translated through `map`, as the server's
/// crate-private `remap_tree` does.
fn remap(tree: &Tree, map: &[Label]) -> Tree {
    fn go(tree: &Tree, id: NodeId, map: &[Label], b: &mut TreeBuilder) {
        b.open(map[tree.label(id).0 as usize])
            .expect("preorder rebuild nests");
        for &child in tree.children(id) {
            go(tree, child, map, b);
        }
        b.close().expect("preorder rebuild nests");
    }
    let mut b = TreeBuilder::new();
    go(tree, tree.root(), map, &mut b);
    b.finish().expect("rebuilt tree is complete")
}

pub fn run(input: &Input<'_>) -> Result<Output, String> {
    let mut t = Tracer::default();
    let shape = input.spec.shape;

    // Recovery from the fixture, the way `serve` starts.
    let mut recovered = None;
    for r in 0..REPEATS {
        let dir = input.dir.join(format!("recover-{r}"));
        let (ckpt, wal) = input.fixture.install(&dir)?;
        let metrics = ServerMetrics::new();
        let out = t.time("recover", |t| {
            let out = t.time("durability.recover", |_| {
                recover(
                    Some(&ckpt),
                    Some(&WalConfig::new(&wal)),
                    &shape.sketch_config(input.seed),
                    &metrics,
                )
            });
            if let Ok((_, _, report)) = &out {
                t.note(
                    "durability.replayed_batches",
                    report.replayed_batches as f64,
                );
            }
            out
        });
        let (st, wal, report) = out.map_err(|e| format!("recover: {e}"))?;
        recovered = Some((st, wal.ok_or("recover opened no log")?, report, metrics));
    }
    let (st, mut wal, report, metrics) = recovered.ok_or("no recovery ran")?;
    for _ in 0..REPEATS {
        let restored = t.time("snapshot_read", |t| {
            t.time("snapshot.read", |_| {
                read_snapshot(&input.fixture.checkpoint)
            })
        });
        restored.map_err(|e| format!("read_snapshot: {e}"))?;
    }
    let restored_trees = st.trees_processed();
    let config = st.config().clone();
    let mut st = if input.spec.durable {
        st
    } else {
        SketchTree::new(config.clone())
    };
    st.attach_metrics(metrics.core.clone());
    let opts = IngestOptions::with_threads(INGEST_THREADS as usize);
    let shared = SharedSketchTree::with_options(st, opts);
    let registry = QueryRegistry::new();
    for text in input.standing {
        registry.register(QuerySpec::parse(QueryMode::Ordered, text)?);
    }
    let cache = QueryCache::default();
    let mut layers = Layers {
        shared: &shared,
        wal: &mut wal,
        registry: &registry,
        cache: &cache,
        opts,
    };

    let mut capacity_patterns = Vec::new();
    if let Some(pool) = input.capacity {
        for payload in &pool.payloads {
            capacity_patterns.push(layers.ingest(&mut t, "capacity_batch", payload)?);
        }
    }

    // The open-loop schedule: batches and queries interleaved by due time.
    let mut open_patterns = Vec::with_capacity(input.n_batches);
    let (mut k, mut j) = (0, 0);
    while k < input.n_batches || j < input.queries.len() {
        let batch_due = k as f64 / INGEST_RATE;
        let query_due = j as f64 / QUERY_RATE;
        if k < input.n_batches && (j >= input.queries.len() || batch_due <= query_due) {
            let payload = &input.open.payloads[k % input.open.payloads.len()];
            open_patterns.push(layers.ingest(&mut t, "batch", payload)?);
            k += 1;
        } else {
            let op = &input.queries[j];
            if op.class != Class::Churn {
                layers.query(&mut t, op.class, op.unordered, op.text)?;
            }
            j += 1;
        }
    }

    let mut atoms = Vec::new();
    for &(unordered, text) in expand_queries(shape) {
        let n = shared.read(|st| {
            if unordered {
                st.atoms_unordered(text)
            } else {
                st.atoms_ordered(text)
            }
        });
        atoms.push(n.map_err(|e| format!("atoms of {text}: {e}"))?.len() as f64);
    }

    // Single-thread baselines over the batches the per-batch metrics use.
    let baseline_batches: Vec<&[u8]> = match input.capacity {
        Some(pool) => pool.payloads.iter().map(Vec::as_slice).collect(),
        None => (0..input.n_batches)
            .map(|k| input.open.payloads[k % input.open.payloads.len()].as_slice())
            .collect(),
    };
    let mut sequential = SketchTree::new(config.clone());
    for payload in &baseline_batches {
        let (labels, trees) = decode_ingest_trees(payload).map_err(|e| e.to_string())?;
        let map: Vec<Label> = labels
            .iter()
            .map(|n| sequential.labels_mut().intern(n))
            .collect();
        let remapped: Vec<Tree> = trees.iter().map(|tree| remap(tree, &map)).collect();
        t.time("baseline_sequential", |t| {
            t.note("trees", remapped.len() as f64);
            t.time("core.sequential", |_| {
                remapped.iter().for_each(|tree| sequential.ingest(tree))
            });
        });
    }
    let sharded1 =
        SharedSketchTree::with_options(SketchTree::new(config), IngestOptions::with_threads(1));
    for payload in &baseline_batches {
        let (labels, trees) = decode_ingest_trees(payload).map_err(|e| e.to_string())?;
        let map: Vec<Label> =
            sharded1.with_labels(|g| labels.iter().map(|n| g.intern(n)).collect());
        let remapped: Vec<Tree> = trees.iter().map(|tree| remap(tree, &map)).collect();
        t.time("baseline_sharded1", |t| {
            t.note("trees", remapped.len() as f64);
            t.time("core.sharded1", |_| sharded1.ingest_batch(&remapped));
        });
    }

    for _ in 0..REPEATS {
        t.time("snapshot_write", |t| {
            let bytes = t.time("snapshot.write", |_| shared.read(write_snapshot));
            t.note("snapshot.bytes", bytes.len() as f64);
        });
    }

    let answers = final_texts(shape)
        .into_iter()
        .map(|(class, unordered, text)| {
            let mode = match (class, unordered) {
                (Class::Expr, _) => QueryMode::Expr,
                (_, true) => QueryMode::Unordered,
                _ => QueryMode::Ordered,
            };
            let answer =
                QuerySpec::parse(mode, text).and_then(|spec| shared.read(|st| estimate(st, &spec)));
            (class, unordered, text, answer)
        })
        .collect();

    Ok(Output {
        capacity_patterns,
        open_patterns,
        trees: shared.trees_processed(),
        patterns: shared.patterns_processed(),
        answers,
        replayed_batches: report.replayed_batches,
        restored_trees,
        distinct_queries: registry.distinct_queries(),
        memory_bytes: shared.read(|st| st.memory_bytes()),
        atoms_per_expand: atoms.iter().sum::<f64>() / atoms.len().max(1) as f64,
        tracer: t,
    })
}

/// Served round trips the unaccounted shares are taken against.
pub struct Served {
    /// Send-to-ack p50 of the batches the per-batch metrics describe, µs.
    pub ingest_rt_us: f64,
    /// Send-to-reply p50 of ad-hoc queries, µs.
    pub query_rt_us: f64,
}

/// The per-layer metrics, as `(name, unit, value)`.
pub fn layer_metrics(
    out: &Output,
    spec: &Spec,
    served: &Served,
) -> Vec<(&'static str, &'static str, f64)> {
    let t = &out.tracer;
    let root = if spec.capacity {
        "capacity_batch"
    } else {
        "batch"
    };
    let batches = t.ops(root);
    let p50 = |f: &dyn Fn(&OpView) -> f64, ops: &[OpView]| {
        median(ops.iter().map(f).collect()).unwrap_or(0.0)
    };
    let span = |name: &'static str| move |o: &OpView| o.us(name);
    let insert_us = |o: &OpView| o.us("core.ingest_batch") - o.us("core.enumerate");
    let sum_note = |ops: &[OpView], name: &str| ops.iter().map(|o| o.note(name)).sum::<f64>();

    // Layer time on the path the server ran for these batches: the WAL
    // only on the durable workload, the standing hook only with
    // subscribers (none during the capacity phase).
    let served_path = |o: &OpView| {
        let mut us = o.us("wire.decode") + o.us("labels.resolve") + o.us("core.ingest_batch");
        if spec.durable {
            us += o.us("wal.encode") + o.us("wal.append");
        }
        if !spec.capacity {
            us += o.us("standing.eval");
        }
        us
    };
    let queries = t.ops("query");
    let by_class = |name: &'static str| -> Vec<f64> {
        queries
            .iter()
            .filter(|q| q.us.contains_key(name))
            .map(|q| q.us(name))
            .collect()
    };
    let query_path = |o: &OpView| {
        o.us("query.parse")
            + o.us("query.cache_lookup")
            + o.us("query.cache_insert")
            + o.us("query.count_estimate")
            + o.us("query.expand_estimate")
            + o.us("query.expr_estimate")
    };
    let seq = t.ops("baseline_sequential");
    let sh1 = t.ops("baseline_sharded1");
    let per_tree = |span: &'static str| move |o: &OpView| o.us(span) / o.note("trees").max(1.0);
    let recovers = t.ops("recover");
    let reads = t.ops("snapshot_read");
    let writes = t.ops("snapshot_write");
    let lookups = queries.len().max(1) as f64;

    vec![
        (
            "wire.ingest_decode_us",
            "us",
            p50(&span("wire.decode"), &batches),
        ),
        (
            "wire.ingest_frame_bytes",
            "bytes",
            p50(&|o| o.note("wire.frame_bytes"), &batches),
        ),
        (
            "labels.resolve_us",
            "us",
            p50(&span("labels.resolve"), &batches),
        ),
        (
            "core.enumerate_us",
            "us",
            p50(&span("core.enumerate"), &batches),
        ),
        (
            "core.patterns_per_tree",
            "count",
            sum_note(&batches, "patterns") / sum_note(&batches, "trees").max(1.0),
        ),
        (
            "core.ingest_batch_us",
            "us",
            p50(&span("core.ingest_batch"), &batches),
        ),
        ("sketch.insert_us", "us", p50(&insert_us, &batches)),
        (
            "sketch.insert_ns_per_pattern",
            "ns",
            p50(
                &|o| insert_us(o) * 1e3 / o.note("patterns").max(1.0),
                &batches,
            ),
        ),
        (
            "core.sequential_us_per_tree",
            "us",
            p50(&per_tree("core.sequential"), &seq),
        ),
        (
            "core.sharded1_us_per_tree",
            "us",
            p50(&per_tree("core.sharded1"), &sh1),
        ),
        ("wal.encode_us", "us", p50(&span("wal.encode"), &batches)),
        ("wal.append_us", "us", p50(&span("wal.append"), &batches)),
        (
            "wal.bytes_per_batch",
            "bytes",
            p50(&|o| o.note("wal.bytes"), &batches),
        ),
        (
            "durability.recover_ms",
            "ms",
            p50(&span("durability.recover"), &recovers) / 1e3,
        ),
        (
            "durability.replayed_batches",
            "count",
            out.replayed_batches as f64,
        ),
        (
            "snapshot.read_ms",
            "ms",
            p50(&span("snapshot.read"), &reads) / 1e3,
        ),
        (
            "snapshot.write_ms",
            "ms",
            p50(&span("snapshot.write"), &writes) / 1e3,
        ),
        (
            "snapshot.bytes",
            "bytes",
            p50(&|o| o.note("snapshot.bytes"), &writes),
        ),
        (
            "standing.eval_us",
            "us",
            p50(&span("standing.eval"), &batches),
        ),
        (
            "standing.distinct_queries",
            "count",
            out.distinct_queries as f64,
        ),
        ("query.parse_us", "us", p50(&span("query.parse"), &queries)),
        (
            "query.cache_hit_ratio",
            "ratio",
            sum_note(&queries, "query.cache_hit") / lookups,
        ),
        (
            "query.count_estimate_us",
            "us",
            median(by_class("query.count_estimate")).unwrap_or(0.0),
        ),
        (
            "query.expand_estimate_us",
            "us",
            median(by_class("query.expand_estimate")).unwrap_or(0.0),
        ),
        (
            "query.expr_estimate_us",
            "us",
            median(by_class("query.expr_estimate")).unwrap_or(0.0),
        ),
        ("query.atoms_per_expand", "count", out.atoms_per_expand),
        ("core.memory_bytes", "bytes", out.memory_bytes as f64),
        (
            "server.ingest_unaccounted_share",
            "ratio",
            1.0 - p50(&served_path, &batches) / served.ingest_rt_us,
        ),
        (
            "server.query_unaccounted_share",
            "ratio",
            1.0 - p50(&query_path, &queries) / served.query_rt_us,
        ),
    ]
}
