//! `perfbench`: the sketchtree benchmark.  See README.md in this
//! directory for the workloads, the metrics and how to read them.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mixed-dblp-durable --seed 1 --seconds 10 --trace 0
//! ```
//!
//! It builds the release `sketchtree` binary, runs it as a separate
//! `sketchtree serve` process under the workload, prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of the in-process
//! traced run (`--trace 1`), checks the served answers, and ends with
//! one JSON line.  Exit code 0: checks passed; 1: a check failed or the
//! run is invalid; 2: the run could not be made.

mod drive;
mod lat;
mod serve;
mod trace;
mod workload;

use drive::{Capacity, OpenLoop, OpenSpec};
use lat::{median, Lat};
use serve::{path_arg, Fixture, ServerProc, TempDir, FIXTURE_BATCHES};
use sketchtree_server::Client;
use sketchtree_standing::QueryMode;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workload::*;

/// Server starts per run; `setup_s` is their median and the last one
/// serves the run.
const SETUP_STARTS: usize = 9;
/// Where runs write their spans, tables and temp files.
const OUT_DIR: &str = ".bench_out";

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec: &WORKLOADS[0],
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(find(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.spec = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Builds `sketchtree-cli` in release and returns the binary's path.
/// The package is named explicitly: a bare root `cargo build --release`
/// can leave a stale `sketchtree` binary behind.
fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--offline",
            "--release",
            "--quiet",
            "-p",
            "sketchtree-cli",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building sketchtree-cli failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("sketchtree");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let (spec, seed, shape) = (args.spec, args.seed, args.spec.shape);
    let bin = build_server()?;
    let out_dir = Path::new(OUT_DIR).join(format!("{}-seed{seed}", spec.name));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let tmp = TempDir::new(Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id())))?;

    println!(
        "perfbench: workload={} seed={seed} seconds={} trace={} commit={} nproc={} rustc={}",
        spec.name,
        args.seconds,
        u8::from(args.trace),
        command_line("git", &["rev-parse", "HEAD"])
            .unwrap_or_else(|| "unknown (not a git checkout)".into()),
        std::thread::available_parallelism().map_or(1, usize::from),
        command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    );

    // Inputs, all from the seed.
    let window = Duration::from_secs(args.seconds);
    let capacity_window = if spec.capacity {
        window / 2
    } else {
        Duration::ZERO
    };
    let open_window = (window - capacity_window).as_secs_f64();
    let open_batch = open_batch(shape);
    let open = Pool::prepare(shape, seed, open_batch, OPEN_POOL);
    let capacity = spec
        .capacity
        .then(|| Pool::prepare(shape, capacity_seed(seed), CAPACITY_BATCH, CAPACITY_POOL));
    let n_batches = scheduled(INGEST_RATE, open_window);
    let queries = query_ops(shape, seed, scheduled(QUERY_RATE, open_window));
    let standing = shape.standing_queries();
    let flags = serve_flags(shape, seed);
    let fixture_pool = Pool::prepare(shape, fixture_seed(seed), FIXTURE_BATCH, FIXTURE_BATCHES);
    let fixture = Fixture::make(&bin, &flags, &tmp.0.join("fixture"), &fixture_pool)?;

    // Set-up: every start gets a fresh directory (and, when durable, a
    // fresh copy of the fixture), so each one replays the same bytes.
    let mut setups = Vec::new();
    let mut server: Option<ServerProc> = None;
    let mut serve_args = Vec::new();
    for i in 0..SETUP_STARTS {
        drop(server.take());
        let dir = tmp.0.join(format!("start-{i}"));
        serve_args = flags.clone();
        if spec.durable {
            let (ckpt, wal) = fixture.install(&dir)?;
            serve_args.extend([
                "--snapshot".into(),
                path_arg(&ckpt),
                "--checkpoint-secs".into(),
                CHECKPOINT_SECS.to_string(),
                "--wal-path".into(),
                path_arg(&wal),
            ]);
        }
        let started = ServerProc::spawn(&bin, &serve_args)?;
        setups.push(started.setup.as_secs_f64());
        server = Some(started);
    }
    let server = server.ok_or("no server started")?;
    println!("serve flags: serve 127.0.0.1:0 {}", serve_args.join(" "));
    let addr = server.addr;
    let stats_now = || -> Result<sketchtree_server::wire::Stats, String> {
        Client::connect(addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("stats: {e}"))
    };
    let restored = stats_now()?.trees_processed;

    // The measured run.
    let cap: Option<Capacity> = match &capacity {
        Some(pool) => Some(drive::capacity(
            addr,
            &pool.frames,
            CAPACITY_BATCH as u64,
            PRODUCERS,
            WARMUP_BATCHES,
            capacity_window,
        )?),
        None => None,
    };
    let ol: OpenLoop = drive::open_loop(
        addr,
        &OpenSpec {
            batch_frames: &open.frames,
            batch_trees: open_batch as u64,
            n_batches,
            queries: &queries,
            standing,
        },
    )?;
    let peak_rss_mb = server.peak_rss_mb()?;
    let stats = stats_now()?;
    let texts = final_texts(shape);
    let served_answers: Vec<Result<f64, String>> = {
        let mut c = Client::connect(addr).map_err(|e| format!("final queries: {e}"))?;
        texts
            .iter()
            .map(|&(class, unordered, text)| {
                let r = match mode(class, unordered) {
                    QueryMode::Expr => c.expr(text),
                    QueryMode::Unordered => c.count_unordered(text),
                    QueryMode::Ordered => c.count_ordered(text),
                };
                r.map_err(|e| e.to_string())
            })
            .collect()
    };
    drop(server);

    // The traced in-process run over the same inputs.
    let traced = trace::run(&trace::Input {
        spec,
        seed,
        fixture: &fixture,
        dir: &tmp.0.join("traced"),
        capacity: capacity.as_ref(),
        open: &open,
        n_batches,
        queries: &queries,
        standing,
    })?;

    // Correctness checks.
    let mut checks: Vec<(String, bool)> = Vec::new();
    let cap_bad = cap.as_ref().map_or(0, |c| c.bad_acks);
    checks.push((
        format!(
            "every ack counts the trees sent ({} bad)",
            cap_bad + ol.bad_acks
        ),
        cap_bad + ol.bad_acks == 0,
    ));
    let (want_trees, want_patterns) = if spec.durable {
        checks.push((
            format!("restored {restored} trees = fixture's {}", fixture.trees),
            restored == fixture.trees && traced.restored_trees == fixture.trees,
        ));
        checks.push((
            format!(
                "replayed {} log batches = fixture tail {}",
                traced.replayed_batches, fixture.tail_batches
            ),
            traced.replayed_batches == fixture.tail_batches,
        ));
        (traced.trees, traced.patterns)
    } else {
        let mut trees = ol.batches_acked * open_batch as u64;
        let mut patterns: u64 = traced
            .open_patterns
            .iter()
            .take(ol.batches_acked as usize)
            .sum();
        if let Some(c) = &cap {
            for (acks, p) in c.acked.iter().zip(&traced.capacity_patterns) {
                trees += acks * CAPACITY_BATCH as u64;
                patterns += acks * p;
            }
        }
        (trees, patterns)
    };
    checks.push((
        format!(
            "server totals {} trees / {} patterns = sent {want_trees} / {want_patterns}",
            stats.trees_processed, stats.patterns_processed
        ),
        stats.trees_processed == want_trees && stats.patterns_processed == want_patterns,
    ));
    checks.push((
        format!(
            "pushed epochs increase on every subscription ({} regressions)",
            ol.epoch_regressions
        ),
        ol.epoch_regressions == 0,
    ));
    let mut mismatched = Vec::new();
    for (served, (_, _, text, reference)) in served_answers.iter().zip(&traced.answers) {
        let same = match (served, reference) {
            (Ok(a), Ok(b)) => !spec.durable || a.to_bits() == b.to_bits(),
            _ => false,
        };
        if !same {
            mismatched.push(format!(
                "{text}: served {served:?}, in-process {reference:?}"
            ));
        }
    }
    let what = if spec.durable {
        "bit-identical to the in-process synopsis"
    } else {
        "answered"
    };
    checks.push((
        format!(
            "final answers {what}: {}/{}",
            texts.len() - mismatched.len(),
            texts.len()
        ),
        mismatched.is_empty() && (!spec.durable || ol.batches_acked as usize == n_batches),
    ));

    // Generator health: a generator that fell behind invalidates the run.
    let attempted = cap.as_ref().map_or(0, |c| c.attempted) + ol.attempted;
    let failed =
        cap.as_ref().map_or(0, |c| c.failed) + ol.errors + ol.abandoned + ol.missing_pushes;
    // Invalid: the generator fell behind (late sends are systematic, not
    // an occasional scheduler hiccup) or scheduled ops were abandoned.
    let lag_p50_ms = ol
        .lag_ingest
        .p50_ms()
        .unwrap_or(0.0)
        .max(ol.lag_query.p50_ms().unwrap_or(0.0));
    let valid = ol.abandoned == 0 && ol.late * 20 <= ol.attempted && lag_p50_ms < 1.0;

    println!(
        "set-up: {} starts, median {:.4} s, all {setups:.4?}",
        setups.len(),
        median(setups.clone()).unwrap_or(0.0)
    );
    if let Some(c) = &cap {
        println!(
            "capacity phase: {} producers x {}-tree batches, {} trees in {:.3} s; round trip {}",
            PRODUCERS,
            CAPACITY_BATCH,
            c.trees,
            c.secs,
            c.round_trip.describe()
        );
    }
    println!(
        "open-loop phase: {n_batches} batches at {INGEST_RATE}/s, {} query ops at {QUERY_RATE}/s over {open_window:.1} s",
        queries.len()
    );
    let tails: [(&str, &Lat); 9] = [
        ("ingest", &ol.ingest),
        ("count", &ol.count),
        ("expand", &ol.expand),
        ("expr", &ol.expr),
        ("churn", &ol.churn),
        ("push_freshness", &ol.freshness),
        ("query round trip", &ol.query_rt),
        ("generator lag, ingest", &ol.lag_ingest),
        ("generator lag, queries", &ol.lag_query),
    ];
    for (name, l) in tails {
        println!("  {name:<24} {}", l.describe());
    }
    println!(
        "failed_op_share {} ({failed} of {attempted}: errors {}, abandoned {}, missing pushes {}); late sends {}; {} pushed updates",
        failed as f64 / attempted.max(1) as f64,
        ol.errors,
        ol.abandoned,
        ol.missing_pushes,
        ol.late,
        ol.pushes
    );
    for (what, ok) in &checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    for m in &mismatched {
        println!("  mismatch {m}");
    }
    if !valid {
        println!("INVALID run: the generator fell behind its schedule or abandoned ops");
    }

    // Metrics.
    let need = |v: Option<f64>, name: &str| v.ok_or_else(|| format!("no samples for {name}"));
    let served = trace::Served {
        ingest_rt_us: need(
            cap.as_ref()
                .map_or(ol.ingest_rt.p50_ms(), |c| c.round_trip.p50_ms()),
            "ingest round trip",
        )? * 1e3,
        query_rt_us: need(ol.query_rt.p50_ms(), "query round trip")? * 1e3,
    };
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        trace::layer_metrics(&traced, spec, &served)
    } else {
        let trees_per_s = match &cap {
            Some(c) => c.trees as f64 / c.secs,
            None => ol.trees_acked as f64 / ol.secs,
        };
        vec![
            ("ingest_trees_per_s", "trees/s", trees_per_s),
            ("ingest_p50_ms", "ms", need(ol.ingest.p50_ms(), "ingest")?),
            ("count_p50_ms", "ms", need(ol.count.p50_ms(), "count")?),
            ("expand_p50_ms", "ms", need(ol.expand.p50_ms(), "expand")?),
            ("expr_p50_ms", "ms", need(ol.expr.p50_ms(), "expr")?),
            (
                "push_freshness_p50_ms",
                "ms",
                need(ol.freshness.p50_ms(), "push freshness")?,
            ),
            ("setup_s", "s", need(median(setups), "setup")?),
            ("peak_rss_mb", "MiB", peak_rss_mb),
        ]
    };
    for (name, unit, value) in &metrics {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    let spans = out_dir.join("spans.jsonl");
    let table = out_dir.join("layers.txt");
    let mut layer_table = traced.tracer.render_table();
    for (name, unit, value) in trace::layer_metrics(&traced, spec, &served) {
        layer_table.push_str(&format!("{name:<34} {value:>14.4} {unit}\n"));
    }
    std::fs::write(&spans, traced.tracer.render_jsonl())
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    std::fs::write(&table, layer_table).map_err(|e| format!("{}: {e}", table.display()))?;
    println!(
        "traced run: {} spans -> {}, per-layer table -> {}",
        traced.tracer.spans.len(),
        spans.display(),
        table.display()
    );

    let correct = valid && checks.iter().all(|(_, ok)| *ok);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}
