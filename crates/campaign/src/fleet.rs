//! Fleet mode: one campaign sharded across worker *processes*, with a
//! deterministic merge and federated live observability.
//!
//! ## Topology
//!
//! [`Fleet::launch`] self-execs N workers (`yinyang fuzz --shard i/N
//! --partial-out DIR`). Both sides run the *same* driver loop
//! ([`crate::run_campaign_full_exec`]) parameterized by an
//! [`Execution`]:
//!
//! * every process regenerates the round's seed pools and job list from
//!   the config seed (cheap, deterministic — no pool shipping);
//! * a **worker** executes only the jobs whose *global* flat index
//!   satisfies `index % N == i` (global = cumulative across rounds and
//!   both personas, so shard assignment never changes a job's bytes —
//!   each job's RNG stream depends only on its index), then writes one
//!   atomic partial file per round: per-job outcome, metric delta, and
//!   trace-event slice, plus the shard's coverage delta;
//! * the **supervisor** executes no jobs: it collects the round's
//!   partials, splices the per-job results back into global job order,
//!   and runs the exact single-process merge loop over them — followed
//!   by the fix-and-retest triage, which *needs* every shard's findings
//!   and is why rounds are a barrier: the merged `fixed` set is
//!   published as a `fixed-*.json` file that workers await before
//!   starting the next round.
//!
//! ## Federated observability
//!
//! Workers bind `--status-addr 127.0.0.1:0` and announce the port on
//! stderr; the supervisor parses the announcement (the same handshake
//! ci.sh uses), scrapes each worker's `/metrics` (parsed back into
//! snapshots by [`yinyang_rt::serve::parse_prometheus`]) and `/status`,
//! and serves the lot on its own `--status-addr`: per-shard
//! `shard="i"`-labeled Prometheus series plus fleet totals, a `/status`
//! rollup with per-shard breakdown, and a `/healthz` that degrades —
//! naming the shard — when a worker dies or stops answering. Worker
//! exits and scrape failures surface there rather than killing the run;
//! only a missing partial (a dead worker's round) fails the campaign.

use std::collections::BTreeSet;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::campaign::JobRecord;
use crate::config::CampaignConfig;
use yinyang_coverage::CoverageMap;
use yinyang_rt::impl_json_struct;
use yinyang_rt::json::{FromJson, Json, ToJson};
use yinyang_rt::serve::{self, StatusServer};
use yinyang_rt::MetricsSnapshot;

/// How long one side waits for the other's file (a worker for the
/// supervisor's fixed-set barrier, the supervisor for worker partials)
/// before giving up. Generous: a shard's share of a round can be slow,
/// but an absent file past this is a hang, not progress.
const WAIT_TIMEOUT: Duration = Duration::from_secs(600);
/// Poll interval for barrier/partial files.
const POLL: Duration = Duration::from_millis(20);
/// Once a worker is known dead with its partial still missing, how long
/// the collector keeps re-checking before declaring the round lost —
/// covers an in-flight rename, and gives `/healthz` pollers a window to
/// observe the degraded state before the supervisor errors out.
const DEATH_GRACE: Duration = Duration::from_secs(5);
/// Monitor cadence: exit reaping and `/metrics` + `/status` scrapes.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(200);

/// How the campaign driver executes a round's job list.
pub enum Execution<'a> {
    /// Single process: run every job here (the classic `yinyang fuzz`).
    Local,
    /// Fleet worker: run only the jobs this shard owns, write per-round
    /// partials, and take fix-and-retest sets from the supervisor's
    /// barrier files.
    Worker(&'a ShardWorker),
    /// Fleet supervisor: run no jobs; collect worker partials and merge
    /// them in global job order.
    Supervisor(&'a Collector),
}

/// One worker's share of one (persona, round), as written to its
/// partial file. The header fields let the collector reject partials
/// from a mismatched run (wrong seed, wrong shard count, stale file).
#[derive(Debug, Clone)]
pub struct RoundPartial {
    /// Persona name (`zirkon` / `corvus`).
    pub solver: String,
    /// Campaign round (0-based).
    pub round: usize,
    /// This worker's shard index.
    pub shard: usize,
    /// Total shard count.
    pub shards: usize,
    /// The campaign RNG seed, as a cross-check.
    pub seed: u64,
    /// The round's total job count across all shards.
    pub job_count: usize,
    /// This shard's job records, in global index order.
    pub jobs: Vec<JobRecord>,
    /// Coverage delta of this shard's jobs (per-site hit counts, which
    /// are additive across processes).
    pub coverage: CoverageMap,
}

impl_json_struct!(RoundPartial { solver, round, shard, shards, seed, job_count, jobs, coverage });

fn partial_name(solver: &str, round: usize, shard: usize) -> String {
    format!("partial-{solver}-r{round}-s{shard}.json")
}

fn fixed_name(solver: &str, round: usize) -> String {
    format!("fixed-{solver}-r{round}.json")
}

/// Writes `text` to `path` atomically (tmp file + rename), so a reader
/// polling for the path never observes a half-written file.
fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} into place: {e}", tmp.display()))
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// A fleet worker's identity and exchange-directory handle — the state
/// behind [`Execution::Worker`].
pub struct ShardWorker {
    shard: usize,
    shards: usize,
    dir: PathBuf,
    seed: u64,
    next_index: AtomicUsize,
}

impl ShardWorker {
    /// Creates the worker handle for shard `shard` of `shards`, writing
    /// partials under `dir`.
    ///
    /// # Panics
    /// When `shard >= shards` or `shards == 0`.
    pub fn new(shard: usize, shards: usize, dir: impl Into<PathBuf>, seed: u64) -> ShardWorker {
        assert!(shards >= 1 && shard < shards, "shard {shard} of {shards} is out of range");
        ShardWorker { shard, shards, dir: dir.into(), seed, next_index: AtomicUsize::new(0) }
    }

    /// This worker's shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Claims `jobs` global indices for a round and returns the round's
    /// base index. The counter spans rounds *and* personas — the same
    /// `ShardWorker` is threaded through the whole fig8 run — so job
    /// ownership is a pure function of the global index.
    pub(crate) fn begin_round(&self, jobs: usize) -> usize {
        self.next_index.fetch_add(jobs, Ordering::SeqCst)
    }

    /// Whether this shard owns the job at `global_index`.
    pub(crate) fn owns(&self, global_index: usize) -> bool {
        global_index % self.shards == self.shard
    }

    /// Writes one round's partial file (atomically).
    pub(crate) fn write_round_partial(&self, partial: &RoundPartial) -> Result<(), String> {
        assert_eq!(partial.seed, self.seed, "partial written against a different campaign seed");
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        let path = self.dir.join(partial_name(&partial.solver, partial.round, self.shard));
        write_atomic(&path, &(partial.to_json().compact() + "\n"))
    }

    /// Blocks until the supervisor publishes the merged fix-and-retest
    /// set for `round`, then returns it.
    pub(crate) fn await_fixed(&self, solver: &str, round: usize) -> Result<BTreeSet<u32>, String> {
        let path = self.dir.join(fixed_name(solver, round));
        let deadline = Instant::now() + WAIT_TIMEOUT;
        loop {
            if path.exists() {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let json = Json::parse(&text)
                    .map_err(|e| format!("bad barrier file {}: {e}", path.display()))?;
                let ids: Vec<i64> = json
                    .as_arr()
                    .map(|arr| arr.iter().filter_map(Json::as_i64).collect())
                    .unwrap_or_default();
                return Ok(ids.into_iter().map(|id| id as u32).collect());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "shard {}: timed out waiting for the {solver} round {round} fixed-set barrier",
                    self.shard
                ));
            }
            std::thread::sleep(POLL);
        }
    }
}

// ---------------------------------------------------------------------------
// Supervisor side: collection
// ---------------------------------------------------------------------------

/// The supervisor's collection handle — the state behind
/// [`Execution::Supervisor`]. Gathers worker partials per round, and
/// accumulates every worker's coverage for the end-of-run gauge export.
pub struct Collector {
    dir: PathBuf,
    shards: usize,
    seed: u64,
    /// Live fleet state, when the collector belongs to a [`Fleet`] (lets
    /// `collect_round` fail fast on a dead worker instead of timing out).
    state: Option<Arc<FleetState>>,
    worker_coverage: Mutex<CoverageMap>,
    /// Global flat job counter, advanced per round across personas —
    /// the supervisor-side mirror of [`ShardWorker::begin_round`].
    next_index: AtomicUsize,
}

impl Collector {
    /// A standalone collector (no live worker tracking) — used by tests
    /// that stage partial files by hand.
    pub fn new(dir: impl Into<PathBuf>, shards: usize, seed: u64) -> Collector {
        Collector {
            dir: dir.into(),
            shards,
            seed,
            state: None,
            worker_coverage: Mutex::new(CoverageMap::default()),
            next_index: AtomicUsize::new(0),
        }
    }

    fn with_state(dir: PathBuf, shards: usize, seed: u64, state: Arc<FleetState>) -> Collector {
        Collector {
            dir,
            shards,
            seed,
            state: Some(state),
            worker_coverage: Default::default(),
            next_index: AtomicUsize::new(0),
        }
    }

    /// Claims `jobs` global indices for a round and returns the round's
    /// base index — must advance in lockstep with every worker's
    /// [`ShardWorker::begin_round`], which it does because supervisor and
    /// workers run the same driver loop over the same config.
    pub(crate) fn begin_round(&self, jobs: usize) -> usize {
        self.next_index.fetch_add(jobs, Ordering::SeqCst)
    }

    /// Every worker's accumulated coverage so far (all collected rounds,
    /// both personas).
    pub fn worker_coverage(&self) -> CoverageMap {
        self.worker_coverage.lock().expect("coverage lock").clone()
    }

    /// Waits for all shards' partials of `(solver, round)`, validates
    /// them, and splices the job records back into global index order.
    /// Also returns the round's merged worker coverage delta.
    pub(crate) fn collect_round(
        &self,
        solver: &str,
        round: usize,
        job_count: usize,
        base_index: usize,
    ) -> Result<(Vec<JobRecord>, CoverageMap), String> {
        let deadline = Instant::now() + WAIT_TIMEOUT;
        let mut partials: Vec<Option<RoundPartial>> = (0..self.shards).map(|_| None).collect();
        let mut death_seen: Vec<Option<Instant>> = vec![None; self.shards];
        loop {
            let mut missing = false;
            for shard in 0..self.shards {
                if partials[shard].is_some() {
                    continue;
                }
                let path = self.dir.join(partial_name(solver, round, shard));
                if path.exists() {
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                    let json = Json::parse(&text)
                        .map_err(|e| format!("bad partial {}: {e}", path.display()))?;
                    let partial = RoundPartial::from_json(&json)
                        .map_err(|e| format!("bad partial {}: {e}", path.display()))?;
                    self.validate(&partial, solver, round, shard, job_count, base_index)?;
                    partials[shard] = Some(partial);
                    continue;
                }
                missing = true;
                // A dead worker can't write its partial: fail the round
                // after a short grace (the file may be mid-rename, and
                // health pollers get a window to see the degradation).
                if let Some(state) = &self.state {
                    if let Some(exit) = state.exit_of(shard) {
                        let first = *death_seen[shard].get_or_insert_with(Instant::now);
                        if first.elapsed() >= DEATH_GRACE {
                            return Err(format!(
                                "shard {shard} {exit} before writing its {solver} round \
                                 {round} partial"
                            ));
                        }
                    }
                }
            }
            if !missing {
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!("timed out waiting for {solver} round {round} partials"));
            }
            std::thread::sleep(POLL);
        }
        let mut slots: Vec<Option<JobRecord>> = (0..job_count).map(|_| None).collect();
        let mut coverage = CoverageMap::default();
        for partial in partials.into_iter().flatten() {
            coverage.merge(&partial.coverage);
            for job in partial.jobs {
                let local =
                    job.index.checked_sub(base_index).filter(|i| *i < job_count).ok_or_else(
                        || {
                            format!(
                                "partial job index {} outside {solver} round {round} \
                             (base {base_index}, count {job_count})",
                                job.index
                            )
                        },
                    )?;
                if slots[local].is_some() {
                    return Err(format!(
                        "job {} of {solver} round {round} appears in two partials",
                        job.index
                    ));
                }
                slots[local] = Some(job);
            }
        }
        let jobs = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.ok_or_else(|| {
                    format!("no shard produced job {} of {solver} round {round}", base_index + i)
                })
            })
            .collect::<Result<Vec<JobRecord>, String>>()?;
        self.worker_coverage.lock().expect("coverage lock").merge(&coverage);
        Ok((jobs, coverage))
    }

    fn validate(
        &self,
        partial: &RoundPartial,
        solver: &str,
        round: usize,
        shard: usize,
        job_count: usize,
        base_index: usize,
    ) -> Result<(), String> {
        let describe = format!("partial {}", partial_name(solver, round, shard));
        if partial.solver != solver
            || partial.round != round
            || partial.shard != shard
            || partial.shards != self.shards
        {
            return Err(format!("{describe}: header does not match its file name / fleet shape"));
        }
        if partial.seed != self.seed {
            return Err(format!(
                "{describe}: campaign seed {} does not match the supervisor's {}",
                partial.seed, self.seed
            ));
        }
        if partial.job_count != job_count {
            return Err(format!(
                "{describe}: job count {} does not match the supervisor's {job_count} \
                 (diverged configs?)",
                partial.job_count
            ));
        }
        for job in &partial.jobs {
            if job.index % self.shards != shard {
                return Err(format!("{describe}: job {} is not shard {shard}'s", job.index));
            }
            if job.index < base_index {
                return Err(format!("{describe}: job {} predates this round", job.index));
            }
        }
        Ok(())
    }

    /// Publishes the merged fix-and-retest set for `round` — the barrier
    /// workers await before their next round.
    pub(crate) fn publish_fixed(
        &self,
        solver: &str,
        round: usize,
        fixed: &BTreeSet<u32>,
    ) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        let ids = Json::Arr(fixed.iter().map(|id| Json::Int(*id as i64)).collect());
        write_atomic(&self.dir.join(fixed_name(solver, round)), &(ids.compact() + "\n"))
    }
}

// ---------------------------------------------------------------------------
// Supervisor side: live fleet state + federated endpoints
// ---------------------------------------------------------------------------

/// A worker's exit summary.
#[derive(Debug, Clone)]
struct ExitInfo {
    success: bool,
    describe: String,
}

/// Live view of one worker, maintained by the stderr reader (address
/// discovery) and the monitor thread (exit reaping, scrapes).
#[derive(Debug, Clone, Default)]
struct ShardView {
    pid: u32,
    addr: Option<String>,
    exit: Option<ExitInfo>,
    scrape_error: Option<String>,
    status: Option<Json>,
    metrics: Option<MetricsSnapshot>,
}

/// Shared live state of the whole fleet — what the federated endpoints
/// render.
pub struct FleetState {
    shards: Vec<Mutex<ShardView>>,
}

impl FleetState {
    fn new(shards: usize) -> FleetState {
        FleetState { shards: (0..shards).map(|_| Mutex::new(ShardView::default())).collect() }
    }

    fn view(&self, shard: usize) -> std::sync::MutexGuard<'_, ShardView> {
        self.shards[shard].lock().expect("fleet state lock")
    }

    /// A dead shard's exit description, if it has exited.
    fn exit_of(&self, shard: usize) -> Option<String> {
        self.view(shard).exit.as_ref().map(|e| e.describe.clone())
    }

    /// Fleet health: `Err` names the first shard that is degraded — died
    /// with a failure exit, or alive but unreachable by the scraper. A
    /// clean exit (code 0) is healthy: the worker simply finished.
    pub fn health(&self) -> Result<(), String> {
        for (shard, view) in self.shards.iter().enumerate() {
            let view = view.lock().expect("fleet state lock");
            match (&view.exit, &view.scrape_error) {
                (Some(exit), _) if !exit.success => {
                    return Err(format!("degraded: shard {shard} {}", exit.describe));
                }
                (None, Some(error)) if view.addr.is_some() => {
                    return Err(format!("degraded: shard {shard} unreachable: {error}"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The scraped per-shard metric snapshots, labeled by shard index,
    /// for [`serve::render_prometheus_fleet`].
    fn metrics_shards(&self) -> Vec<(String, MetricsSnapshot)> {
        let mut out = Vec::new();
        for (shard, view) in self.shards.iter().enumerate() {
            let view = view.lock().expect("fleet state lock");
            if let Some(snapshot) = &view.metrics {
                out.push((shard.to_string(), snapshot.clone()));
            }
        }
        out
    }

    /// The federated `/status` document: fleet rollup, per-worker
    /// detail (state, pid, address, scrape errors, the worker's own
    /// `/status` embedded), and the supervisor's own progress.
    fn status_doc(&self) -> Json {
        let mut workers = Vec::new();
        let (mut jobs_done, mut jobs_total, mut tests_per_sec) = (0i64, 0i64, 0.0f64);
        for (shard, view) in self.shards.iter().enumerate() {
            let view = view.lock().expect("fleet state lock");
            let state = match (&view.exit, &view.addr) {
                (Some(exit), _) if exit.success => "exited".to_owned(),
                (Some(exit), _) => format!("failed ({})", exit.describe),
                (None, None) => "starting".to_owned(),
                (None, Some(_)) => {
                    if view.scrape_error.is_some() { "unreachable" } else { "running" }.to_owned()
                }
            };
            if let Some(status) = &view.status {
                if let Some(jobs) = status.get("jobs") {
                    jobs_done += jobs.get("done").and_then(Json::as_i64).unwrap_or(0);
                    jobs_total += jobs.get("total").and_then(Json::as_i64).unwrap_or(0);
                }
                tests_per_sec += status.get("tests_per_sec").and_then(Json::as_f64).unwrap_or(0.0);
            }
            workers.push(Json::obj([
                ("shard", Json::Int(shard as i64)),
                ("state", Json::Str(state)),
                ("pid", Json::Int(view.pid as i64)),
                ("addr", view.addr.as_ref().map(|a| Json::Str(a.clone())).unwrap_or(Json::Null)),
                (
                    "scrape_error",
                    view.scrape_error.as_ref().map(|e| Json::Str(e.clone())).unwrap_or(Json::Null),
                ),
                ("status", view.status.clone().unwrap_or(Json::Null)),
            ]));
        }
        let round3 = |x: f64| Json::Float((x * 1000.0).round() / 1000.0);
        Json::obj([
            ("phase", Json::Str("fleet".to_owned())),
            ("shards", Json::Int(self.shards.len() as i64)),
            (
                "fleet",
                Json::obj([
                    (
                        "jobs",
                        Json::obj([
                            ("done", Json::Int(jobs_done)),
                            ("total", Json::Int(jobs_total)),
                        ]),
                    ),
                    ("tests_per_sec", round3(tests_per_sec)),
                    (
                        "healthy",
                        match self.health() {
                            Ok(()) => Json::Bool(true),
                            Err(_) => Json::Bool(false),
                        },
                    ),
                ]),
            ),
            ("workers", Json::Arr(workers)),
            ("supervisor", serve::progress().status_json()),
        ])
    }
}

/// The federated endpoint handler served on the supervisor's
/// `--status-addr`.
fn fleet_respond(
    state: &FleetState,
    method: &str,
    target: &str,
) -> (&'static str, &'static str, String) {
    const TEXT: &str = "text/plain; charset=utf-8";
    if method != "GET" {
        return ("405 Method Not Allowed", TEXT, "only GET is supported\n".to_owned());
    }
    match target {
        "/healthz" => match state.health() {
            Ok(()) => ("200 OK", TEXT, "ok\n".to_owned()),
            Err(msg) => ("503 Service Unavailable", TEXT, msg + "\n"),
        },
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            serve::render_prometheus_fleet(&state.metrics_shards()),
        ),
        "/status" => {
            ("200 OK", "application/json; charset=utf-8", state.status_doc().pretty() + "\n")
        }
        _ => ("404 Not Found", TEXT, "not found; try /metrics /status /healthz\n".to_owned()),
    }
}

// ---------------------------------------------------------------------------
// Supervisor side: process management
// ---------------------------------------------------------------------------

/// Options for [`Fleet::launch`].
#[derive(Clone)]
pub struct FleetOptions {
    /// Worker process count.
    pub shards: usize,
    /// Partial/barrier exchange directory; a per-run directory under the
    /// system temp dir when `None`.
    pub partial_dir: Option<String>,
    /// Pass `--capture-events` to workers (the supervisor was given
    /// `--trace`, so partials must carry event slices).
    pub capture_events: bool,
    /// Supervisor `--status-addr` for the federated view (`None`: no
    /// server, workers still run headless servers for scraping).
    pub status_addr: Option<String>,
}

impl Default for FleetOptions {
    /// Two shards in a per-run temp directory, no event capture, no server.
    fn default() -> Self {
        FleetOptions { shards: 2, partial_dir: None, capture_events: false, status_addr: None }
    }
}

/// Handle to a launched fleet: worker processes, their stderr readers,
/// the scrape/monitor thread, and the federated status server.
pub struct Fleet {
    dir: PathBuf,
    shards: usize,
    seed: u64,
    state: Arc<FleetState>,
    stop: Arc<AtomicBool>,
    monitor: Option<JoinHandle<()>>,
    readers: Vec<JoinHandle<()>>,
    server: Option<StatusServer>,
}

impl Fleet {
    /// Spawns the worker processes (self-exec: `current_exe()` `fuzz
    /// --shard i/N ...`), their stderr readers and the monitor thread,
    /// and — when `opts.status_addr` is set — the federated status
    /// server (announced on stderr as `fleet status server listening
    /// on http://ADDR`, distinct from the forwarded worker
    /// announcements).
    pub fn launch(config: &CampaignConfig, opts: &FleetOptions) -> Result<Fleet, String> {
        assert!(opts.shards >= 1, "a fleet needs at least one shard");
        let dir = match &opts.partial_dir {
            Some(dir) => PathBuf::from(dir),
            None => std::env::temp_dir().join(format!("yinyang-fleet-{}", std::process::id())),
        };
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create partial dir {}: {e}", dir.display()))?;
        // Stale partials from a previous run in the same directory would
        // satisfy the collector with wrong bytes; sweep them first.
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("partial-") || name.starts_with("fixed-") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate the yinyang binary: {e}"))?;
        let dir_arg = dir
            .to_str()
            .ok_or_else(|| format!("partial dir {} is not valid UTF-8", dir.display()))?
            .to_owned();
        let state = Arc::new(FleetState::new(opts.shards));
        let mut children = Vec::new();
        let mut readers = Vec::new();
        for shard in 0..opts.shards {
            let mut cmd = Command::new(&exe);
            cmd.arg("fuzz")
                .args(["--shard", &format!("{shard}/{}", opts.shards)])
                .args(["--partial-out", &dir_arg])
                .args(["--scale", &config.scale.to_string()])
                .args(["--iterations", &config.iterations.to_string()])
                .args(["--rounds", &config.rounds.to_string()])
                .args(["--seed", &config.rng_seed.to_string()])
                .args(["--threads", &config.threads.to_string()])
                .args(["--status-addr", "127.0.0.1:0"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped());
            if opts.capture_events {
                cmd.arg("--capture-events");
            }
            let mut child = cmd.spawn().map_err(|e| {
                for mut earlier in children.drain(..) {
                    let _: &mut Child = &mut earlier;
                    let _ = earlier.kill();
                    let _ = earlier.wait();
                }
                format!("cannot spawn shard {shard}: {e}")
            })?;
            let pid = child.id();
            state.view(shard).pid = pid;
            // The pid line is part of the CLI contract: ci.sh parses it
            // to kill a shard mid-run for the degraded-health check.
            eprintln!("[yinyang] fleet: shard {shard} is pid {pid}");
            let stderr = child.stderr.take().expect("worker stderr is piped");
            readers.push(spawn_reader(shard, stderr, Arc::clone(&state)));
            children.push(child);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let monitor = spawn_monitor(children, Arc::clone(&state), Arc::clone(&stop));
        let server = match &opts.status_addr {
            None => None,
            Some(addr) => {
                serve::progress().begin("fleet");
                let handler_state = Arc::clone(&state);
                match StatusServer::start_with_handler(
                    addr,
                    Arc::new(move |method, target| fleet_respond(&handler_state, method, target)),
                ) {
                    Ok(server) => {
                        eprintln!(
                            "[yinyang] fleet status server listening on http://{} \
                             (/metrics /status /healthz, {} shards)",
                            server.local_addr(),
                            opts.shards
                        );
                        Some(server)
                    }
                    Err(e) => {
                        stop.store(true, Ordering::SeqCst);
                        let _ = monitor.join();
                        for reader in readers {
                            let _ = reader.join();
                        }
                        return Err(format!("cannot bind fleet status server on {addr}: {e}"));
                    }
                }
            }
        };
        Ok(Fleet {
            dir,
            shards: opts.shards,
            seed: config.rng_seed,
            state,
            stop,
            monitor: Some(monitor),
            readers,
            server,
        })
    }

    /// A [`Collector`] wired to this fleet's exchange directory and live
    /// state.
    pub fn collector(&self) -> Collector {
        Collector::with_state(self.dir.clone(), self.shards, self.seed, Arc::clone(&self.state))
    }

    /// Detaches the federated status server (so the caller can apply the
    /// shared post-run hold before shutdown).
    pub fn take_server(&mut self) -> Option<StatusServer> {
        self.server.take()
    }

    /// Stops the monitor (killing any workers still alive), joins all
    /// fleet threads, and drops the status server if still attached.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
        self.server.take();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

/// Tails one worker's stderr: parses the status-server bind announcement
/// into the shard's address (the same stderr handshake ci.sh uses), and
/// forwards every line prefixed with the shard index.
fn spawn_reader(
    shard: usize,
    stderr: std::process::ChildStderr,
    state: Arc<FleetState>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("yinyang-fleet-err-{shard}"))
        .spawn(move || {
            let reader = std::io::BufReader::new(stderr);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if state.view(shard).addr.is_none()
                    && line.contains("status server listening on http://")
                {
                    if let Some(rest) = line.split("http://").nth(1) {
                        let addr: String =
                            rest.chars().take_while(|c| !c.is_whitespace() && *c != '/').collect();
                        if !addr.is_empty() {
                            state.view(shard).addr = Some(addr);
                        }
                    }
                }
                eprintln!("[shard {shard}] {line}");
            }
        })
        .expect("spawn stderr reader")
}

/// Reaps worker exits and scrapes live workers' `/status` + `/metrics`
/// on a fixed cadence; on the stop flag, kills whatever still runs and
/// reaps it.
fn spawn_monitor(
    mut children: Vec<Child>,
    state: Arc<FleetState>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("yinyang-fleet-monitor".to_owned())
        .spawn(move || loop {
            let stopping = stop.load(Ordering::SeqCst);
            for (shard, child) in children.iter_mut().enumerate() {
                if state.view(shard).exit.is_none() {
                    match child.try_wait() {
                        Ok(Some(status)) => {
                            state.view(shard).exit = Some(describe_exit(status));
                        }
                        Ok(None) if stopping => {
                            let _ = child.kill();
                            let _ = child.wait();
                            state.view(shard).exit = Some(ExitInfo {
                                success: true,
                                describe: "killed at fleet shutdown".to_owned(),
                            });
                        }
                        _ => {}
                    }
                }
                if !stopping {
                    scrape(shard, &state);
                }
            }
            if stopping {
                break;
            }
            std::thread::sleep(SCRAPE_INTERVAL);
        })
        .expect("spawn fleet monitor")
}

fn describe_exit(status: ExitStatus) -> ExitInfo {
    let describe = match status.code() {
        Some(code) => format!("exited with code {code}"),
        None => "was killed by a signal".to_owned(),
    };
    ExitInfo { success: status.success(), describe }
}

/// One scrape pass over a live worker: `/status` into JSON, `/metrics`
/// through [`serve::parse_prometheus`]. Failures are recorded (they feed
/// `/healthz` degradation), never fatal; an exited worker keeps its last
/// scraped data.
fn scrape(shard: usize, state: &FleetState) {
    let addr = {
        let view = state.view(shard);
        if view.exit.is_some() {
            return;
        }
        match &view.addr {
            Some(addr) => addr.clone(),
            None => return,
        }
    };
    let status = serve::http_get(&addr, "/status").and_then(|(code, body)| {
        if code != 200 {
            return Err(format!("/status answered HTTP {code}"));
        }
        Json::parse(&body).map_err(|e| format!("bad /status JSON: {e}"))
    });
    let metrics = serve::http_get(&addr, "/metrics").and_then(|(code, body)| {
        if code != 200 {
            return Err(format!("/metrics answered HTTP {code}"));
        }
        serve::parse_prometheus(&body)
    });
    let mut view = state.view(shard);
    match (status, metrics) {
        (Ok(status), Ok(metrics)) => {
            view.status = Some(status);
            view.metrics = Some(metrics);
            view.scrape_error = None;
        }
        (Err(e), _) | (_, Err(e)) => view.scrape_error = Some(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yinyang_rt::trace::TraceEvent;

    #[test]
    fn partial_files_roundtrip_through_json() {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("tests.total".into(), 3);
        let partial = RoundPartial {
            solver: "zirkon".into(),
            round: 1,
            shard: 0,
            shards: 2,
            seed: 7,
            job_count: 4,
            jobs: vec![JobRecord {
                index: 2,
                tests: 1,
                unknowns: 0,
                fusion_failures: 0,
                finding: None,
                metrics,
                events: vec![TraceEvent {
                    name: "solve".into(),
                    path: "solve".into(),
                    dur: 12,
                    fields: vec![("benchmark".into(), "x".into())],
                }],
            }],
            coverage: CoverageMap::default(),
        };
        let json = Json::parse(&partial.to_json().compact()).expect("parse");
        let back = RoundPartial::from_json(&json).expect("roundtrip");
        assert_eq!(back.to_json().compact(), partial.to_json().compact());
        assert_eq!(back.jobs[0].events, partial.jobs[0].events);
    }

    #[test]
    fn worker_partition_covers_every_index_exactly_once() {
        let shards = 3;
        let workers: Vec<ShardWorker> =
            (0..shards).map(|s| ShardWorker::new(s, shards, "/tmp/unused", 0)).collect();
        for index in 0..100 {
            let owners = workers.iter().filter(|w| w.owns(index)).map(ShardWorker::shard).count();
            assert_eq!(owners, 1, "index {index} wants exactly one owner");
        }
        // The global counter advances identically on every worker, so
        // ownership agrees across rounds of different sizes.
        let bases: Vec<usize> = workers.iter().map(|w| w.begin_round(7)).collect();
        assert!(bases.iter().all(|b| *b == 0));
        let bases: Vec<usize> = workers.iter().map(|w| w.begin_round(5)).collect();
        assert!(bases.iter().all(|b| *b == 7));
    }

    #[test]
    fn collector_splices_partials_and_rejects_mismatches() {
        let dir = std::env::temp_dir().join(format!("yinyang-fleet-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let job = |index: usize| JobRecord {
            index,
            tests: 1,
            unknowns: 0,
            fusion_failures: 0,
            finding: None,
            metrics: MetricsSnapshot::default(),
            events: Vec::new(),
        };
        for shard in 0..2usize {
            let worker = ShardWorker::new(shard, 2, &dir, 7);
            let jobs = (0..4).filter(|i| worker.owns(*i)).map(job).collect();
            worker
                .write_round_partial(&RoundPartial {
                    solver: "zirkon".into(),
                    round: 0,
                    shard,
                    shards: 2,
                    seed: 7,
                    job_count: 4,
                    jobs,
                    coverage: CoverageMap::default(),
                })
                .unwrap();
        }
        let collector = Collector::new(&dir, 2, 7);
        let (jobs, _coverage) = collector.collect_round("zirkon", 0, 4, 0).unwrap();
        assert_eq!(jobs.iter().map(|j| j.index).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // A seed mismatch is rejected, not merged.
        let wrong_seed = Collector::new(&dir, 2, 8);
        let err = wrong_seed.collect_round("zirkon", 0, 4, 0).unwrap_err();
        assert!(err.contains("seed"), "{err}");
        // The fixed-set barrier roundtrips.
        let mut fixed = BTreeSet::new();
        fixed.insert(3u32);
        fixed.insert(11u32);
        collector.publish_fixed("zirkon", 0, &fixed).unwrap();
        let worker = ShardWorker::new(0, 2, &dir, 7);
        assert_eq!(worker.await_fixed("zirkon", 0).unwrap(), fixed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_state_health_names_the_failing_shard() {
        let state = FleetState::new(2);
        assert!(state.health().is_ok());
        state.view(1).addr = Some("127.0.0.1:1".into());
        state.view(1).scrape_error = Some("connection refused".into());
        let err = state.health().unwrap_err();
        assert!(err.contains("degraded: shard 1"), "{err}");
        // A clean exit is healthy...
        state.view(1).scrape_error = None;
        state.view(1).exit =
            Some(ExitInfo { success: true, describe: "exited with code 0".into() });
        assert!(state.health().is_ok());
        // ...a failure exit is not.
        state.view(0).exit =
            Some(ExitInfo { success: false, describe: "was killed by a signal".into() });
        let err = state.health().unwrap_err();
        assert!(err.contains("degraded: shard 0 was killed by a signal"), "{err}");
    }
}
