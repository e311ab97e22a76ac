//! The `serve-small` and `serve-large` workloads: the `fcm-serve`
//! daemon driven over one Unix-socket connection by an open-loop
//! sender, then checked against an in-process replay of the same lines.
//!
//! A run: set the daemon up several times (`setup_s` is the median),
//! keep the last one, send the load, `dump` the final state, read the
//! daemon's peak RSS, SIGKILL it, and time `--resume` until the first
//! `ping` answers, seven times over. Then the exact request
//! lines are replayed in process through `parse_line` → `apply`/`query`
//! → `render_response`, with `Store::append` and periodic snapshots
//! into a scratch directory: every socket response must match its
//! replayed twin byte for byte, and the final `dump` must equal the
//! replayed `state_json`.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use fcm_check::gates::check_sw_graph;
use fcm_serve::proto::{parse_line, render_response};
use fcm_serve::store::{read_recovered, Store};
use fcm_serve::{LiveModel, Request as Parsed};
use fcm_substrate::Json;

use crate::calib::HostSpeed;
use crate::mix::{Mix, Request};
use crate::report::{median, peak_rss_mib, Outcome, Sample};

/// The committed model both workloads serve.
pub const MODEL: &str = "paper";
/// The daemon's default `--snapshot-every`; the replay mirrors it.
pub const SNAPSHOT_EVERY: u64 = 64;
/// HW nodes of the paper platform a `fail_node` may take down: with
/// one of them failed, every base FCM still has a feasible host.
pub const FAILABLE: [&str; 6] = ["hw0", "hw1", "hw2", "hw3", "hw4", "hw5"];
/// Length of the windows the latency percentiles are taken in.
const WINDOW: Duration = Duration::from_secs(2);
/// A window is calm when the host stole at most this share of the
/// machine's CPU time while its requests were sent. On the sizing
/// machine (2 CPUs: 5 ticks per window) windows above it already showed
/// p90s up to several times those of calm ones.
pub const CALM_STEAL: f64 = 0.0125;
/// Reference-kernel timings taken before each resume.
const PROBES_PER_RESUME: usize = 5;
/// Kill/resume cycles per run; `recover_s` is their median.
pub const RECOVER_REPEATS: usize = 7;
/// Growth requests are pipelined in chunks of this many lines.
const GROW_CHUNK: usize = 64;
/// How long a daemon may take to answer before the run fails.
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// A run is invalid when the sender's p90 lateness over the windows
/// the figures are taken from exceeds this (four
/// inter-arrival gaps at 2000 req/s): the offered load was then not the
/// stated rate. Isolated stalls of the host show in p99 and max, which
/// are reported but not bounded.
pub const SENDER_LATE_P90_MS: f64 = 2.0;

/// One serve workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Offered rate, requests per second, over one connection.
    pub rate: f64,
    /// FCM count the setup grows the model to (`None` = as started).
    pub grow_to: Option<usize>,
    /// Setups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// The sender sleeps to within this of each due instant, then
    /// spins. A bare sleep wakes ~70 µs late on a small VM, which would
    /// count against the daemon; spinning longer than about a fifth of
    /// the gap between requests starves the daemon of CPU instead.
    pub spin: Duration,
}

/// `fcm-serve --model paper` as started: 12 FCMs, 2000 req/s, then
/// SIGKILL and `--resume`.
pub const SMALL: ServeSpec = ServeSpec {
    name: "serve-small",
    rate: 2000.0,
    grow_to: None,
    setup_repeats: 25,
    spin: Duration::from_micros(100),
};

/// The same daemon grown to 2048 FCMs (CSR matrix), 150 req/s, then
/// SIGKILL and `--resume`.
pub const LARGE: ServeSpec = ServeSpec {
    name: "serve-large",
    rate: 150.0,
    grow_to: Some(2048),
    setup_repeats: 5,
    spin: Duration::from_micros(200),
};

/// The request lines of one run: growth (sent during setup) and load.
/// A pure function of `(spec, seed, seconds)`.
#[must_use]
pub fn requests(spec: &ServeSpec, seed: u64, seconds: u64) -> (Vec<Request>, Vec<Request>) {
    let base: Vec<String> = LiveModel::new(MODEL)
        .expect("the committed model builds")
        .graph()
        .nodes()
        .map(|(_, n)| n.name.clone())
        .collect();
    let failable = FAILABLE.iter().map(|s| (*s).to_string()).collect();
    let mut mix = Mix::new(seed, base, failable);
    let growth = spec.grow_to.map(|n| mix.grow(n)).unwrap_or_default();
    let load = mix.load((spec.rate * seconds as f64).round() as usize);
    (growth, load)
}

/// Pins the calling thread (and the threads it spawns later) to one
/// CPU, so the daemon and the load generator keep the same placement in
/// every run instead of whatever the scheduler chose. Best effort: a
/// refusal leaves the placement to the scheduler.
pub(crate) fn pin_to_cpu(cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte cpu_set_t for the whole call and
    // the kernel only reads `cpusetsize` bytes of it; the call changes
    // nothing but the target's CPU affinity.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// CPUs for the serving daemon and for the load generator: two
/// different ones when the machine has two, else none. Left to the
/// scheduler, the round trips of whole runs flipped between two levels
/// with the threads' placement (reads 0.041 or 0.074 ms at p50 on
/// `serve-small`, 0.07 or 0.11 ms on `serve-large`).
fn placement() -> Option<(usize, usize)> {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (cpus >= 2).then_some((1, 0))
}

/// A spawned daemon; killed and reaped on drop.
struct Daemon {
    child: Child,
    /// The daemon's stdout, held open for as long as it runs.
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(
        bin: &Path,
        socket: &Path,
        state: &Path,
        resume: bool,
        cpu: Option<usize>,
    ) -> Result<Daemon, String> {
        let _ = fs::remove_file(socket);
        let mut cmd = Command::new(bin);
        cmd.arg("--model")
            .arg(MODEL)
            .arg("--socket")
            .arg(socket)
            .arg("--state-dir")
            .arg(state)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if resume {
            cmd.arg("--resume");
        }
        if let Some(cpu) = cpu {
            // SAFETY: the hook runs in the forked child before exec and
            // makes one async-signal-safe system call, touching no
            // memory shared with the parent.
            unsafe {
                cmd.pre_exec(move || {
                    pin_to_cpu(cpu);
                    Ok(())
                });
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon { child, stdout })
    }

    /// Waits for the daemon's "model ready" line: the model is built and
    /// the socket bound. (The first connection may then wait up to one
    /// 5 ms accept-poll tick more, at a phase that repeats within a run,
    /// so set-up is timed to this line rather than to a first reply.)
    fn wait_ready(&mut self) -> Result<(), String> {
        let mut line = String::new();
        loop {
            line.clear();
            match self.stdout.read_line(&mut line) {
                Ok(0) => return Err("daemon exited before it was ready".to_string()),
                Ok(_) if line.contains("model ready") => return Ok(()),
                Ok(_) => {}
                Err(e) => return Err(format!("read daemon stdout: {e}")),
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Connects once the socket accepts, and reads the hello line.
    fn connect(&mut self, socket: &Path) -> Result<Conn, String> {
        let t0 = Instant::now();
        loop {
            if let Ok(stream) = UnixStream::connect(socket) {
                let mut conn = Conn::new(stream)?;
                conn.read_line().map_err(|e| format!("hello: {e}"))?;
                return Ok(conn);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited during startup: {status}"));
            }
            if t0.elapsed() > IO_TIMEOUT {
                return Err("daemon did not accept connections in time".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// SIGKILL, then reap.
    fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One client connection: write half plus buffered read half.
struct Conn {
    tx: UnixStream,
    rx: BufReader<UnixStream>,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Conn, String> {
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| format!("set timeout: {e}"))?;
        let tx = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Conn {
            tx,
            rx: BufReader::new(stream),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.tx
            .write_all(buf.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.rx.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => {
                line.truncate(line.trim_end_matches('\n').len());
                Ok(line)
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.read_line()
    }
}

fn is_ok(response: &str) -> bool {
    Json::parse(response).is_ok_and(|j| j.get("ok") == Some(&Json::Bool(true)))
}

/// Spawns a fresh daemon and brings it to ready: started (see
/// [`Daemon::wait_ready`]) and, on `serve-large`, the growth lines all
/// accepted. Returns the set-up time: start-up plus growth.
fn set_up(
    bin: &Path,
    dir: &Path,
    growth: &[Request],
    cpu: Option<usize>,
) -> Result<(Daemon, Conn, Duration), String> {
    let socket = dir.join("fcm.sock");
    let state = dir.join("state");
    let _ = fs::remove_dir_all(&state);
    let t0 = Instant::now();
    let mut daemon = Daemon::spawn(bin, &socket, &state, false, cpu)?;
    daemon.wait_ready()?;
    let started = t0.elapsed();
    let mut conn = daemon.connect(&socket)?;
    let pong = conn.call(r#"{"op":"ping"}"#)?;
    if !is_ok(&pong) {
        return Err(format!("ping rejected: {pong}"));
    }
    let t1 = Instant::now();
    for chunk in growth.chunks(GROW_CHUNK) {
        let mut batch = String::new();
        for r in chunk {
            batch.push_str(&r.line);
            batch.push('\n');
        }
        conn.tx
            .write_all(batch.as_bytes())
            .map_err(|e| format!("send growth: {e}"))?;
        for r in chunk {
            let resp = conn.read_line()?;
            if !is_ok(&resp) {
                return Err(format!("growth rejected: {} -> {resp}", r.line));
            }
        }
    }
    Ok((daemon, conn, started + t1.elapsed()))
}

/// What the open-loop load observed.
struct Load {
    /// Response lines, in request order.
    responses: Vec<String>,
    /// Round trip per request from its due instant, seconds.
    latency: Vec<f64>,
    /// How late the sender issued each request, seconds.
    late: Vec<f64>,
    /// From the first due instant to the last response, seconds.
    elapsed: f64,
    /// Host steal time (ticks) while each window's requests were sent.
    steal: Vec<u64>,
}

/// Sends `load` at `rate` on `conn` (open loop: request `i` is due at
/// `i / rate`, sent then whatever is outstanding) while this thread
/// reads the in-order responses.
fn drive(conn: Conn, load: &[Request], rate: f64, spin: Duration) -> Result<Load, String> {
    let Conn { mut tx, mut rx } = conn;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let per_window = window_len(rate);
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<(Vec<f64>, Vec<u64>), String> {
            let mut late = Vec::with_capacity(load.len());
            let mut edges = Vec::new();
            let mut buf = Vec::with_capacity(512);
            for (i, r) in load.iter().enumerate() {
                if i % per_window == 0 {
                    edges.push(steal_ticks());
                }
                let at = due(i);
                loop {
                    let now = Instant::now();
                    if now >= at {
                        break;
                    }
                    if at - now > spin {
                        std::thread::sleep(at - now - spin);
                    } else {
                        std::hint::spin_loop();
                    }
                }
                late.push(Instant::now().saturating_duration_since(at).as_secs_f64());
                buf.clear();
                buf.extend_from_slice(r.line.as_bytes());
                buf.push(b'\n');
                tx.write_all(&buf).map_err(|e| format!("send: {e}"))?;
            }
            edges.push(steal_ticks());
            let steal = edges
                .windows(2)
                .map(|w| w[1].saturating_sub(w[0]))
                .collect();
            Ok((late, steal))
        });
        let mut responses = Vec::with_capacity(load.len());
        let mut latency = Vec::with_capacity(load.len());
        let mut failure = None;
        let mut last = start;
        for i in 0..load.len() {
            let mut line = String::new();
            match rx.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    last = Instant::now();
                    latency.push(last.saturating_duration_since(due(i)).as_secs_f64());
                    line.truncate(line.trim_end_matches('\n').len());
                    responses.push(line);
                }
                Ok(_) => {
                    failure = Some("daemon closed the connection mid-load".to_string());
                    break;
                }
                Err(e) => {
                    failure = Some(format!("read response {i}: {e}"));
                    break;
                }
            }
        }
        if failure.is_some() {
            // Unblock a sender stuck on a full socket buffer.
            let _ = rx.get_ref().shutdown(std::net::Shutdown::Both);
        }
        let sent = sender.join().map_err(|_| "sender panicked".to_string())?;
        if let Some(f) = failure {
            return Err(f);
        }
        let (late, steal) = sent?;
        Ok(Load {
            responses,
            latency,
            late,
            steal,
            elapsed: last.saturating_duration_since(start).as_secs_f64(),
        })
    })
}

/// Requests per percentile window at `rate`.
fn window_len(rate: f64) -> usize {
    (WINDOW.as_secs_f64() * rate).round().max(1.0) as usize
}

/// The host's cumulative steal time in clock ticks, summed over every
/// CPU (`/proc/stat`): time the hypervisor ran something else while
/// this VM's CPUs were due to run. 0 where the kernel does not report it.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| t.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// CPUs the kernel accounts in `/proc/stat` (all of the machine's,
/// whatever this thread's affinity).
fn stat_cpus() -> usize {
    std::fs::read_to_string("/proc/stat").map_or(1, |t| {
        t.lines()
            .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
            .count()
            .max(1)
    })
}

/// Steal ticks up to which a `WINDOW` counts as calm: [`CALM_STEAL`] of
/// the window's CPU time over every CPU, in the kernel's clock ticks.
fn calm_ticks() -> u64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf reads a configuration value and touches no memory.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    let hz = if hz > 0 { hz as f64 } else { 100.0 };
    (CALM_STEAL * WINDOW.as_secs_f64() * hz * stat_cpus() as f64).floor() as u64
}

/// The windows the latency percentiles are taken over, in time order:
/// every calm window (steal at most `calm`), or, when fewer than
/// `wanted` are calm, every window stolen no more than the `wanted`-th
/// least-stolen one. A stolen CPU stalls every request queued behind
/// it; on the sizing machine windows with a few percent steal had p90s
/// 5–20× those of calm ones. Windows with equal steal are kept or
/// dropped together, so on a host that reports no steal every window is
/// kept.
#[must_use]
pub fn kept_windows(steal: &[u64], calm: u64, wanted: usize) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_unstable();
    let fallback = sorted
        .get(wanted.clamp(1, steal.len().max(1)) - 1)
        .copied()
        .unwrap_or(0);
    let limit = calm.max(fallback);
    (0..steal.len()).filter(|&w| steal[w] <= limit).collect()
}

/// p50 and p90 of one request class: each the median, over the `kept`
/// windows of the load (by due instant), of that window's nearest-rank
/// percentile.
fn windowed(
    load: &[Request],
    latency: &[f64],
    kept: &[usize],
    rate: f64,
    write: bool,
) -> (f64, f64) {
    let per_window = window_len(rate);
    let windows: Vec<Sample> = kept
        .iter()
        .map(|&w| {
            let range = w * per_window..((w + 1) * per_window).min(latency.len());
            Sample::new(
                load[range.clone()]
                    .iter()
                    .zip(&latency[range])
                    .filter(|(r, _)| r.write == write)
                    .map(|(_, &l)| l)
                    .collect(),
            )
        })
        .filter(|sample| !sample.is_empty())
        .collect();
    let pct = |p: f64| median(&windows.iter().map(|s| s.pct(p)).collect::<Vec<_>>());
    (pct(50.0), pct(90.0))
}

/// Per-request timings of the in-process replay, seconds.
#[derive(Debug, Default)]
pub struct Replay {
    decode: Vec<f64>,
    apply: Vec<f64>,
    query: Vec<f64>,
    render: Vec<f64>,
    journal: Vec<f64>,
    gate: Vec<f64>,
    clone: Vec<f64>,
    snapshot: Vec<f64>,
    /// Rendered responses of the load lines, in order.
    pub responses: Vec<String>,
    /// `state_json` after the last line.
    pub state: String,
}

fn timed<T>(acc: &mut Vec<f64>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = fcm_obs::span(name);
    let t0 = Instant::now();
    let out = f();
    acc.push(t0.elapsed().as_secs_f64());
    out
}

/// Replays growth then load through the model and a scratch store, as
/// the daemon's connection and writer threads would. With `layers`, the
/// load's writes also time the pre-flight gate and the graph clone on
/// the graph each mutation starts from.
///
/// # Errors
///
/// The model cannot be built or the store cannot be written.
pub fn replay(
    growth: &[Request],
    load: &[Request],
    store_dir: &Path,
    layers: bool,
) -> Result<Replay, String> {
    let mut model = LiveModel::new(MODEL)?;
    let mut store = Store::create_fresh(store_dir)?;
    let mut since_snapshot = 0u64;
    let mut out = Replay::default();
    let mut scratch = Replay::default();
    for (k, r) in growth.iter().chain(load).enumerate() {
        let in_load = k >= growth.len();
        let _request = fcm_obs::span(if r.write {
            "request.write"
        } else {
            "request.read"
        });
        let t = if in_load { &mut out } else { &mut scratch };
        let (id, parsed) = timed(&mut t.decode, "serve.decode", || parse_line(&r.line));
        let result = match parsed {
            Ok(Parsed::Mutation(m)) => {
                if layers && in_load {
                    timed(&mut t.gate, "check.gate", || {
                        std::hint::black_box(check_sw_graph(model.graph()));
                    });
                    timed(&mut t.clone, "alloc.graph_clone", || {
                        std::hint::black_box(model.graph().clone());
                    });
                }
                let result = timed(&mut t.apply, "serve.apply", || model.apply(&m));
                if result.is_ok() {
                    timed(&mut t.journal, "serve.journal", || {
                        store.append(model.seq(), &m)
                    })?;
                    since_snapshot += 1;
                    if since_snapshot >= SNAPSHOT_EVERY {
                        timed(&mut t.snapshot, "serve.snapshot", || {
                            store.snapshot(model.seq(), &model.state_json())
                        })?;
                        since_snapshot = 0;
                    }
                }
                result
            }
            Ok(Parsed::Query(q)) => timed(&mut t.query, "serve.query", || model.query(&q)),
            Ok(Parsed::Subscribe(_)) => Err("subscribe is not part of the mix".to_string()),
            Err(e) => Err(e),
        };
        let line = timed(&mut t.render, "serve.render", || {
            render_response(id.as_ref(), &result)
        });
        if in_load {
            out.responses.push(line.trim_end_matches('\n').to_string());
        }
    }
    out.state = model.state_json().to_string_compact();
    Ok(out)
}

/// Fields the server layer adds to `stats` on top of the model's.
const SERVER_STATS_FIELDS: [&str; 5] = [
    "degraded",
    "degraded_transitions",
    "faults_injected",
    "rearm_attempts",
    "slo",
];

/// Checks one socket response against its replayed twin. `stats`
/// responses must also report `full_condenses` 1.
fn check_response(socket: &str, replayed: &str, stats: bool) -> Result<(), String> {
    if !stats {
        return if socket == replayed {
            Ok(())
        } else {
            Err(format!("socket {socket} != replay {replayed}"))
        };
    }
    let Ok(Json::Obj(mut fields)) = Json::parse(socket) else {
        return Err(format!("unparseable stats response {socket}"));
    };
    if fields.get("full_condenses").and_then(Json::as_f64) != Some(1.0) {
        return Err(format!("stats.full_condenses is not 1: {socket}"));
    }
    for k in SERVER_STATS_FIELDS {
        fields.remove(k);
    }
    let model_part = Json::Obj(fields).to_string_compact();
    if model_part == replayed {
        Ok(())
    } else {
        Err(format!("stats {model_part} != replay {replayed}"))
    }
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    for entry in fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Runs a serve workload. `bin` is the `fcm-serve` executable, `work`
/// a scratch directory this run owns.
///
/// # Errors
///
/// A daemon that cannot be started or set up, or I/O failure outside
/// the measured load (the load's own failures are counted instead).
pub fn run(
    spec: &ServeSpec,
    bin: &Path,
    work: &Path,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cpus = placement();
    if let Some((_, cpu)) = cpus {
        pin_to_cpu(cpu);
    }
    let (growth, load) = requests(spec, seed, seconds);
    let writes = load.iter().filter(|r| r.write).count();
    out.note(format!(
        "{}: model {MODEL} grown by {} lines, {} requests ({writes} writes) at {} req/s on 1 connection",
        spec.name,
        growth.len(),
        load.len(),
        spec.rate
    ));

    // Set up several times; the last daemon serves the load.
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..spec.setup_repeats {
        drop(live.take());
        let (daemon, conn, took) = set_up(bin, work, &growth, cpus.map(|p| p.0))?;
        setups.push(took.as_secs_f64());
        live = Some((daemon, conn));
    }
    let (mut daemon, conn) = live.ok_or("no setup ran")?;
    out.put("setup_s", median(&setups), "s");

    let state = work.join("state");
    let journal_before = file_len(&state.join("journal.jsonl"));
    let socket = work.join("fcm.sock");
    out.attempted = load.len() as u64;
    let observed = match drive(conn, load.as_slice(), spec.rate, spec.spin) {
        Ok(l) => l,
        Err(e) => {
            out.failed = out.attempted;
            out.mismatch(format!("load: {e}"));
            return Ok(out);
        }
    };
    let mut conn = daemon.connect(&socket)?;
    let dump = conn.call(r#"{"op":"dump","id":0}"#)?;
    let rss = peak_rss_mib(Some(daemon.pid())).unwrap_or(0.0);
    let journal_after = file_len(&state.join("journal.jsonl"));
    drop(conn);
    daemon.kill();
    out.put("peak_rss_mb", rss, "MiB");

    let rejected = observed.responses.iter().filter(|r| !is_ok(r)).count() as u64;
    out.failed = rejected;
    let class = |write: bool| {
        Sample::new(
            load.iter()
                .zip(&observed.latency)
                .filter(|(r, _)| r.write == write)
                .map(|(_, &l)| l)
                .collect(),
        )
    };
    let (wlat, rlat) = (class(true), class(false));
    let late = Sample::new(observed.late.clone());
    out.put(
        "ops_per_s",
        observed.responses.len() as f64 / observed.elapsed,
        "1/s",
    );
    let calm = calm_ticks();
    let kept = kept_windows(&observed.steal, calm, observed.steal.len().div_ceil(3));
    let mut tails = Vec::new();
    for (write, class) in [(true, "write"), (false, "read")] {
        let (p50, p90) = windowed(load.as_slice(), &observed.latency, &kept, spec.rate, write);
        out.put(&format!("{class}_p50_ms"), p50 * 1e3, "ms");
        tails.push(format!("{class} p90 {:.4} ms", p90 * 1e3));
    }
    out.note(format!(
        "{}: over the {} kept windows (unrated): {}",
        spec.name,
        kept.len(),
        tails.join(", ")
    ));
    let per_window: Vec<String> = observed
        .steal
        .iter()
        .enumerate()
        .map(|(w, stolen)| {
            let only = [w];
            let (_, wp90) = windowed(load.as_slice(), &observed.latency, &only, spec.rate, true);
            let (_, rp90) = windowed(load.as_slice(), &observed.latency, &only, spec.rate, false);
            let mark = if kept.contains(&w) { "" } else { " dropped" };
            format!("{stolen}:{:.3}/{:.3}{mark}", wp90 * 1e3, rp90 * 1e3)
        })
        .collect();
    out.note(format!(
        "{}: per 2-s window, steal ticks (calm <= {calm}): write/read p90 ms: {}",
        spec.name,
        per_window.join(", ")
    ));
    out.note(format!(
        "{}: write round trip {}",
        spec.name,
        wlat.describe(1e3, "ms")
    ));
    out.note(format!(
        "{}: read round trip {}",
        spec.name,
        rlat.describe(1e3, "ms")
    ));
    out.note(format!(
        "{}: sender lateness {}",
        spec.name,
        late.describe(1e3, "ms")
    ));
    // The figures come from the kept windows, so the offered rate must
    // hold in those.
    let per = window_len(spec.rate);
    let kept_late = Sample::new(
        kept.iter()
            .flat_map(|&w| &observed.late[w * per..((w + 1) * per).min(observed.late.len())])
            .copied()
            .collect(),
    );
    if kept_late.pct(90.0) * 1e3 > SENDER_LATE_P90_MS {
        out.mismatch(format!(
            "run invalid: sender p90 lateness in the kept windows {:.3} ms exceeds {SENDER_LATE_P90_MS} ms",
            kept_late.pct(90.0) * 1e3
        ));
    }

    // Kill/resume: time to the first ping; the state must survive. The
    // resumed daemon shares the (idle) client's CPU placement, where the
    // reference kernel is timed before each resume: resuming is
    // CPU-bound parsing, so its time is scaled by the host's speed.
    let pristine = work.join("state-at-kill");
    copy_dir(&state, &pristine)?;
    let mut recover = Vec::new();
    let mut host = HostSpeed::default();
    for k in 0..RECOVER_REPEATS {
        copy_dir(&pristine, &state)?;
        host.sample(PROBES_PER_RESUME);
        let t0 = Instant::now();
        let mut resumed = Daemon::spawn(bin, &socket, &state, true, cpus.map(|p| p.1))?;
        let mut conn = resumed.connect(&socket)?;
        let pong = conn.call(r#"{"op":"ping"}"#)?;
        recover.push(t0.elapsed().as_secs_f64());
        if !is_ok(&pong) {
            out.mismatch(format!("resume {k}: ping rejected: {pong}"));
        }
        if k == 0 {
            let after = conn.call(r#"{"op":"dump","id":0}"#)?;
            if after != dump {
                out.mismatch("dump after --resume differs from dump before SIGKILL");
            }
        }
        drop(conn);
        resumed.kill();
    }
    out.note(format!(
        "{}: resume to first ping, {RECOVER_REPEATS} times: {:?} ms unscaled; reference kernel median {:.4} ms",
        spec.name,
        recover.iter().map(|s| (s * 1e4).round() / 10.0).collect::<Vec<_>>(),
        host.median_s() * 1e3
    ));
    out.put("recover_s", median(&recover) * host.factor(), "s");
    out.put("host.probe_ms", host.median_s() * 1e3, "ms");

    // In-process replay of the same lines.
    fcm_obs::set_enabled(trace);
    let replayed = replay(&growth, &load, &work.join("replay-store"), trace);
    fcm_obs::set_enabled(false);
    let replayed = replayed?;
    for (k, (sock, rep)) in observed
        .responses
        .iter()
        .zip(&replayed.responses)
        .enumerate()
    {
        let stats = load[k].line.contains(r#""op":"stats""#);
        if let Err(e) = check_response(sock, rep, stats) {
            out.mismatch(format!("request {k}: {e}"));
            if out.mismatches.len() > 5 {
                break;
            }
        }
    }
    let dumped_state = Json::parse(&dump)
        .ok()
        .and_then(|j| j.get("state").map(Json::to_string_compact));
    if dumped_state.as_deref() != Some(replayed.state.as_str()) {
        out.mismatch("final dump differs from the in-process replay's state_json");
    }
    if !dump.contains(r#""ok":true"#) {
        out.mismatch(format!("dump rejected: {dump}"));
    }

    if trace {
        let us = |v: &[f64]| Sample::new(v.to_vec()).pct(50.0) * 1e6;
        out.put("serve.decode_us", us(&replayed.decode), "us");
        out.put("serve.render_us", us(&replayed.render), "us");
        out.put("serve.apply_us", us(&replayed.apply), "us");
        out.put("serve.query_us", us(&replayed.query), "us");
        out.put("serve.journal_us", us(&replayed.journal), "us");
        out.put("check.gate_us", us(&replayed.gate), "us");
        out.put("alloc.graph_clone_us", us(&replayed.clone), "us");
        out.put("serve.snapshot_ms", us(&replayed.snapshot) / 1e3, "ms");
        let write_stages = us(&replayed.decode)
            + us(&replayed.apply)
            + us(&replayed.journal)
            + us(&replayed.render);
        let read_stages = us(&replayed.decode) + us(&replayed.query) + us(&replayed.render);
        out.put("serve.wait_us", wlat.pct(50.0) * 1e6 - write_stages, "us");
        out.put(
            "serve.read_wait_us",
            rlat.pct(50.0) * 1e6 - read_stages,
            "us",
        );
        out.put("serve.sender_late_p99_us", late.pct(99.0) * 1e6, "us");
        let accepted = writes as u64 - rejected.min(writes as u64);
        out.put(
            "serve.journal_bytes_per_write",
            journal_after.saturating_sub(journal_before) as f64 / accepted.max(1) as f64,
            "B",
        );
        out.put("serve.rejected", rejected as f64, "count");
        let (read, build, replay_ms) = time_recovery(&pristine)?;
        out.put("serve.recover_read_ms", read * 1e3, "ms");
        out.put("serve.recover_build_ms", build * 1e3, "ms");
        out.put("serve.recover_replay_ms", replay_ms * 1e3, "ms");
    }
    Ok(out)
}

/// Times the three resume stages in process on the state the daemon
/// left at SIGKILL: `read_recovered`, `LiveModel::from_state`, and the
/// journal-suffix replay (medians of three).
fn time_recovery(state: &Path) -> Result<(f64, f64, f64), String> {
    let (mut read, mut build, mut replay) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let t0 = Instant::now();
        let recovered = read_recovered(state)?;
        read.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let mut model = match &recovered.snapshot {
            Some((s, _)) => LiveModel::from_state(s)?,
            None => LiveModel::new(MODEL)?,
        };
        build.push(t1.elapsed().as_secs_f64());
        let t2 = Instant::now();
        for (seq, m) in &recovered.replay {
            model
                .apply(m)
                .map_err(|e| format!("journal replay seq {seq}: {e}"))?;
        }
        replay.push(t2.elapsed().as_secs_f64());
    }
    Ok((median(&read), median(&build), median(&replay)))
}

/// The work directory for `workload` under `root`, emptied.
///
/// # Errors
///
/// The directory cannot be created.
pub fn fresh_dir(root: &Path, workload: &str) -> Result<PathBuf, String> {
    let dir = root.join(workload);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    Ok(dir)
}
