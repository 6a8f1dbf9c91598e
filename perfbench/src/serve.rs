//! The `sketchtree serve` child process, the recovery fixture, and the
//! per-run temp directories.

use crate::workload::{Pool, FIXTURE_CHECKPOINT_BATCHES, FIXTURE_TAIL_BATCHES};
use sketchtree_server::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running server.  Dropping it kills and reaps the child, so no
/// server outlives the run on any exit path.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// From spawning to the `listening on` line.
    pub setup: Duration,
}

impl ServerProc {
    pub fn spawn(bin: &Path, args: &[String]) -> Result<ServerProc, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("127.0.0.1:0")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            reap(&mut child);
            return Err("serve: no stdout pipe".into());
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    reap(&mut child);
                    return Err(format!("serve {args:?} exited before listening"));
                }
                Ok(_) => {
                    if let Some(rest) = line.trim().strip_prefix("listening on ") {
                        match rest.parse() {
                            Ok(addr) => break addr,
                            Err(e) => {
                                reap(&mut child);
                                return Err(format!("bad listen address {rest:?}: {e}"));
                            }
                        }
                    }
                }
            }
        };
        Ok(ServerProc {
            child,
            _stdout: stdout,
            addr,
            setup: started.elapsed(),
        })
    }

    /// The server's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        reap(&mut self.child);
    }
}

fn reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// A directory removed, with everything in it, when dropped.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(path: PathBuf) -> Result<TempDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub const CHECKPOINT_FILE: &str = "checkpoint.snap";
pub const WAL_FILE: &str = "ingest.wal";

/// A checkpoint plus a write-ahead-log tail, both written by the server
/// itself, so the fixture has exactly the served sketch configuration.
pub struct Fixture {
    pub checkpoint: Vec<u8>,
    pub wal: Vec<u8>,
    pub trees: u64,
    pub tail_batches: u64,
}

impl Fixture {
    /// Ingests the checkpoint batches, checkpoints (which rotates the
    /// log), ingests the tail batches, then kills the server so no
    /// shutdown checkpoint folds the tail in.
    pub fn make(bin: &Path, flags: &[String], dir: &Path, pool: &Pool) -> Result<Fixture, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let (ckpt, wal) = (dir.join(CHECKPOINT_FILE), dir.join(WAL_FILE));
        let mut args = flags.to_vec();
        args.extend([
            "--snapshot".into(),
            path_arg(&ckpt),
            "--wal-path".into(),
            path_arg(&wal),
        ]);
        let server = ServerProc::spawn(bin, &args)?;
        let mut client = Client::connect(server.addr).map_err(|e| format!("fixture: {e}"))?;
        let mut trees = 0;
        for (i, batch) in pool.batches.iter().enumerate() {
            if i == FIXTURE_CHECKPOINT_BATCHES {
                client
                    .snapshot()
                    .map_err(|e| format!("fixture checkpoint: {e}"))?;
            }
            let ack = client
                .ingest_trees(pool.labels.clone(), batch.clone())
                .map_err(|e| format!("fixture ingest: {e}"))?;
            trees += ack.trees;
        }
        drop(client);
        drop(server);
        let read = |p: &Path| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
        Ok(Fixture {
            checkpoint: read(&ckpt)?,
            wal: read(&wal)?,
            trees,
            tail_batches: (pool.batches.len() - FIXTURE_CHECKPOINT_BATCHES) as u64,
        })
    }

    /// Writes a fresh copy into `dir`, so every start replays the same bytes.
    pub fn install(&self, dir: &Path) -> Result<(PathBuf, PathBuf), String> {
        let (ckpt, wal) = (dir.join(CHECKPOINT_FILE), dir.join(WAL_FILE));
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::write(&ckpt, &self.checkpoint).map_err(|e| format!("{}: {e}", ckpt.display()))?;
        std::fs::write(&wal, &self.wal).map_err(|e| format!("{}: {e}", wal.display()))?;
        Ok((ckpt, wal))
    }
}

/// Batches the fixture pool must hold.
pub const FIXTURE_BATCHES: usize = FIXTURE_CHECKPOINT_BATCHES + FIXTURE_TAIL_BATCHES;

pub fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}
