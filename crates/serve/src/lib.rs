//! # aderdg-serve
//!
//! A checkpoint/restart simulation service over the scenario registry:
//! the engine as a long-lived server rather than a one-shot binary.
//! Clients submit any registered scenario with any solver knob, poll
//! status, fetch the series / receiver output, pause a running job to a
//! checkpoint and resume it later — N concurrent jobs multiplex over the
//! one process-wide worker pool via [`JobQueue`].
//!
//! ## Protocol
//!
//! Plain lines over TCP (`std::net` only — no external dependencies),
//! one command per line, whitespace-separated:
//!
//! ```text
//! SUBMIT <scenario> [key=value]…   -> OK id=<n>
//! RESUME <path> [key=value]…       -> OK id=<n>   (checkpoint file on the server)
//! STATUS <id>                      -> OK id=… status=… steps=… t=…
//! WAIT <id>                        -> like STATUS, after the job settles
//! PAUSE <id> | CANCEL <id>         -> OK
//! LIST | SUMMARY <id> | SERIES <id> | RECEIVERS <id> | HELP
//!                                  -> OK, then payload lines, then `.`
//! PING                             -> OK pong
//! SHUTDOWN                         -> OK shutting down (server exits)
//! ```
//!
//! Single-line replies are `OK …` or `ERR <message>`. Multi-line replies
//! send an `OK` line, the payload, then a lone `.` (payload lines that
//! start with `.` are dot-stuffed, SMTP-style). `SUBMIT` accepts every
//! [`RunRequest::set`] key plus `pause_at_step=<n>` (arm a deterministic
//! pause) — combine with `save_checkpoint=<path>` for pause-to-checkpoint,
//! then `RESUME <path>` to pick the run back up, bit-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aderdg_core::checkpoint::Checkpoint;
use aderdg_core::jobs::{Job, JobQueue};
use aderdg_core::report;
use aderdg_core::scenario::{RunControl, RunRequest, RunSummary, ScenarioRegistry};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What a command evaluates to, before wire encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Single-line success; rendered `OK <text>` (or bare `OK`).
    Ok(String),
    /// Single-line failure; rendered `ERR <text>`.
    Err(String),
    /// Multi-line success; rendered as an `OK` line, the payload, `.`.
    Data(Vec<String>),
    /// `SHUTDOWN`: acknowledge and stop the server.
    Shutdown,
}

const HELP: &[&str] = &[
    "SUBMIT <scenario> [key=value]...   queue a run; keys are the RunRequest::set",
    "                                   knobs plus pause_at_step=<n>",
    "RESUME <path> [key=value]...       queue a run resumed from a checkpoint file",
    "STATUS <id>                        one-line job status with live progress",
    "WAIT <id>                          STATUS after the job settles",
    "PAUSE <id>                         pause at the next step boundary",
    "CANCEL <id>                        cancel at the next step boundary",
    "LIST                               one line per submitted job",
    "SUMMARY <id>                       the human-readable run report",
    "SERIES <id>                        the time-series as CSV",
    "RECEIVERS <id>                     receiver seismograms as CSV",
    "PING | HELP | SHUTDOWN",
];

/// Applies one `key=value` token of `SUBMIT`/`RESUME` to the request.
fn apply_token(req: &mut RunRequest, control: &Arc<RunControl>, token: &str) -> Result<(), Reply> {
    let Some((key, value)) = token.split_once('=') else {
        return Err(Reply::Err(format!(
            "malformed argument `{token}` (expected key=value)"
        )));
    };
    if key == "pause_at_step" {
        let step = value
            .parse::<usize>()
            .map_err(|_| Reply::Err(format!("invalid pause_at_step `{value}`")))?;
        control.pause_at_step(step);
        return Ok(());
    }
    match req.set(key, value) {
        Ok(true) => Ok(()),
        Ok(false) => Err(Reply::Err(format!("unknown key `{key}`"))),
        Err(e) => Err(Reply::Err(format!(
            "invalid value `{value}` for {key} (expected {})",
            e.expected
        ))),
    }
}

fn status_line(job: &Job) -> String {
    // Live progress while running; the settled summary afterwards (the
    // control's last observation lags the final step).
    let (steps, t) = match job.summary() {
        Some(s) => (s.steps, s.t_end),
        None => job.control().progress(),
    };
    let mut line = format!(
        "id={} scenario={} status={} steps={steps} t={t}",
        job.id(),
        job.scenario_name(),
        job.status().as_str()
    );
    if let Some(e) = job.error() {
        line.push_str(&format!(" error={e:?}"));
    }
    line
}

fn with_job(queue: &JobQueue, id_token: Option<&str>, f: impl FnOnce(Arc<Job>) -> Reply) -> Reply {
    let Some(token) = id_token else {
        return Reply::Err("missing job id".into());
    };
    let Ok(id) = token.parse::<u64>() else {
        return Reply::Err(format!("invalid job id `{token}`"));
    };
    match queue.job(id) {
        Some(job) => f(job),
        None => Reply::Err(format!("no such job {id}")),
    }
}

/// Runs `f` against a settled job's summary, or explains why there is
/// none yet.
fn with_summary(job: &Job, f: impl FnOnce(&RunSummary) -> Reply) -> Reply {
    match job.summary() {
        Some(summary) => f(&summary),
        None => Reply::Err(format!(
            "job {} has no summary (status {})",
            job.id(),
            job.status().as_str()
        )),
    }
}

fn csv_lines(f: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> Reply {
    let mut buf = Vec::new();
    match f(&mut buf) {
        Ok(()) => Reply::Data(
            String::from_utf8_lossy(&buf)
                .lines()
                .map(String::from)
                .collect(),
        ),
        Err(e) => Reply::Err(format!("cannot render: {e}")),
    }
}

fn submit(queue: &JobQueue, scenario: &str, req: RunRequest) -> Reply {
    match queue.submit(scenario, req) {
        Ok(job) => Reply::Ok(format!("id={}", job.id())),
        Err(e) => Reply::Err(e.message),
    }
}

/// Evaluates one protocol line. Pure with respect to the connection —
/// this is the unit-testable core of the server.
pub fn handle_line(queue: &JobQueue, line: &str) -> Reply {
    let mut tokens = line.split_whitespace();
    let Some(command) = tokens.next() else {
        return Reply::Err("empty command (try HELP)".into());
    };
    match command.to_ascii_uppercase().as_str() {
        "PING" => Reply::Ok("pong".into()),
        "HELP" => Reply::Data(HELP.iter().map(|s| s.to_string()).collect()),
        "SHUTDOWN" => Reply::Shutdown,
        "SUBMIT" => {
            let Some(scenario) = tokens.next() else {
                return Reply::Err(format!(
                    "SUBMIT requires a scenario (registered: {})",
                    ScenarioRegistry::global().names().join(", ")
                ));
            };
            let control = Arc::new(RunControl::new());
            let mut req = RunRequest {
                control: Some(Arc::clone(&control)),
                ..RunRequest::default()
            };
            for token in tokens {
                if let Err(reply) = apply_token(&mut req, &control, token) {
                    return reply;
                }
            }
            submit(queue, scenario, req)
        }
        "RESUME" => {
            let Some(path) = tokens.next() else {
                return Reply::Err("RESUME requires a checkpoint path".into());
            };
            let ck = match Checkpoint::load(Path::new(path)) {
                Ok(ck) => ck,
                Err(e) => return Reply::Err(e.to_string()),
            };
            let mut req = match ck.to_request() {
                Ok(req) => req,
                Err(e) => return Reply::Err(e.message),
            };
            let control = Arc::new(RunControl::new());
            req.control = Some(Arc::clone(&control));
            for token in tokens {
                if let Err(reply) = apply_token(&mut req, &control, token) {
                    return reply;
                }
            }
            let scenario = ck.scenario.clone();
            req.resume = Some(Arc::new(ck));
            submit(queue, &scenario, req)
        }
        "STATUS" => with_job(queue, tokens.next(), |job| Reply::Ok(status_line(&job))),
        "WAIT" => with_job(queue, tokens.next(), |job| {
            job.wait();
            Reply::Ok(status_line(&job))
        }),
        "PAUSE" => with_job(queue, tokens.next(), |job| {
            queue.pause(job.id());
            Reply::Ok(String::new())
        }),
        "CANCEL" => with_job(queue, tokens.next(), |job| {
            // Through the queue, not the raw control: a still-queued job
            // settles immediately instead of waiting for a runner.
            queue.cancel(job.id());
            Reply::Ok(String::new())
        }),
        "LIST" => Reply::Data(queue.jobs().iter().map(|j| status_line(j)).collect()),
        "SUMMARY" => with_job(queue, tokens.next(), |job| {
            with_summary(&job, |s| {
                Reply::Data(
                    report::render_summary(s)
                        .lines()
                        .map(String::from)
                        .collect(),
                )
            })
        }),
        "SERIES" => with_job(queue, tokens.next(), |job| {
            with_summary(&job, |s| csv_lines(|w| report::write_series_csv(s, w)))
        }),
        "RECEIVERS" => with_job(queue, tokens.next(), |job| {
            with_summary(&job, |s| csv_lines(|w| report::write_receivers_csv(s, w)))
        }),
        other => Reply::Err(format!("unknown command `{other}` (try HELP)")),
    }
}

/// Writes a [`Reply`] in wire format.
pub fn write_reply(out: &mut dyn Write, reply: &Reply) -> io::Result<()> {
    match reply {
        Reply::Ok(text) if text.is_empty() => writeln!(out, "OK"),
        Reply::Ok(text) => writeln!(out, "OK {text}"),
        Reply::Err(text) => writeln!(out, "ERR {}", text.replace('\n', " ")),
        Reply::Data(lines) => {
            writeln!(out, "OK")?;
            for line in lines {
                if line.starts_with('.') {
                    writeln!(out, ".{line}")?;
                } else {
                    writeln!(out, "{line}")?;
                }
            }
            writeln!(out, ".")
        }
        Reply::Shutdown => writeln!(out, "OK shutting down"),
    }
}

struct Shared {
    queue: Arc<JobQueue>,
    stop: AtomicBool,
    addr: SocketAddr,
}

/// The TCP server: an accept loop plus one handler thread per
/// connection, all sharing one [`JobQueue`].
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections.
    pub fn start(addr: &str, queue: Arc<JobQueue>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            queue,
            stop: AtomicBool::new(false),
            addr: listener.local_addr()?,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("aderdg-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Server {
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Blocks until the server shuts down (`SHUTDOWN` command or
    /// [`Server::stop`] from another thread).
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting connections and returns once the accept loop has
    /// exited. In-flight connections see the stop flag at their next
    /// command. Idempotent.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Poke the accept loop out of its blocking accept().
        let _ = TcpStream::connect(self.shared.addr);
        self.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("aderdg-serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &shared);
            });
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let mut out = stream.try_clone()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        if shared.stop.load(Ordering::Relaxed) {
            write_reply(&mut out, &Reply::Err("server is shutting down".into()))?;
            break;
        }
        let reply = handle_line(&shared.queue, &line);
        write_reply(&mut out, &reply)?;
        out.flush()?;
        if reply == Reply::Shutdown {
            shared.stop.store(true, Ordering::Relaxed);
            // Poke the accept loop so it observes the flag.
            let _ = TcpStream::connect(shared.addr);
            break;
        }
    }
    Ok(())
}

/// A minimal client for the line protocol — used by the `--smoke`
/// self-test and the integration tests, and usable from other tools.
pub struct Client {
    out: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let out = TcpStream::connect(addr)?;
        let reader = BufReader::new(out.try_clone()?);
        Ok(Client { out, reader })
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Sends a single-line command; returns the `OK` payload or the
    /// `ERR` message as the error variant.
    pub fn cmd(&mut self, line: &str) -> io::Result<Result<String, String>> {
        writeln!(self.out, "{line}")?;
        let status = self.read_line()?;
        Ok(parse_status(&status))
    }

    /// Sends a multi-line command (`LIST`, `SUMMARY`, `SERIES`,
    /// `RECEIVERS`, `HELP`); returns the payload lines.
    pub fn cmd_data(&mut self, line: &str) -> io::Result<Result<Vec<String>, String>> {
        writeln!(self.out, "{line}")?;
        let status = self.read_line()?;
        if let Err(e) = parse_status(&status) {
            return Ok(Err(e));
        }
        let mut lines = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == "." {
                break;
            }
            lines.push(line.strip_prefix('.').map(String::from).unwrap_or(line));
        }
        Ok(Ok(lines))
    }
}

fn parse_status(line: &str) -> Result<String, String> {
    if let Some(rest) = line.strip_prefix("OK") {
        Ok(rest.trim_start().to_string())
    } else if let Some(rest) = line.strip_prefix("ERR") {
        Err(rest.trim_start().to_string())
    } else {
        Err(format!("malformed reply `{line}`"))
    }
}

/// Pulls `key=value` out of a status/submit reply.
fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
}

/// The `--smoke` self-test, also exercised by CI: starts a server on an
/// ephemeral port, drives ≥ 8 concurrent jobs over the one shared pool,
/// then proves pause-to-checkpoint + resume reproduces an uninterrupted
/// run's series exactly. Returns an error message on any mismatch.
pub fn smoke(log: &mut dyn Write) -> Result<(), String> {
    let fail = |what: &str, e: String| format!("{what}: {e}");
    let queue = Arc::new(JobQueue::new(8));
    let mut server = Server::start("127.0.0.1:0", Arc::clone(&queue))
        .map_err(|e| fail("bind", e.to_string()))?;
    let addr = server.addr();
    let _ = writeln!(log, "serve smoke: listening on {addr}");
    let io_err = |e: io::Error| e.to_string();
    let result = (|| -> Result<(), String> {
        let mut client = Client::connect(addr).map_err(io_err)?;
        let pong = client
            .cmd("PING")
            .map_err(io_err)?
            .map_err(|e| fail("PING", e))?;
        if pong != "pong" {
            return Err(format!("PING answered `{pong}`"));
        }

        // 8 concurrent jobs across scenarios, all over the one pool.
        let scenarios = ScenarioRegistry::global().names();
        let mut ids = Vec::new();
        for i in 0..8 {
            let scenario = scenarios[i % scenarios.len()];
            let reply = client
                .cmd(&format!("SUBMIT {scenario} smoke=true"))
                .map_err(io_err)?
                .map_err(|e| fail("SUBMIT", e))?;
            let id = field(&reply, "id")
                .ok_or_else(|| format!("SUBMIT reply `{reply}` has no id"))?
                .to_string();
            ids.push((scenario, id));
        }
        for (scenario, id) in &ids {
            let reply = client
                .cmd(&format!("WAIT {id}"))
                .map_err(io_err)?
                .map_err(|e| fail("WAIT", e))?;
            if field(&reply, "status") != Some("done") {
                return Err(format!("job {id} ({scenario}) did not finish: {reply}"));
            }
        }
        let _ = writeln!(log, "serve smoke: {} concurrent jobs done", ids.len());

        // Pause-to-checkpoint, resume, and compare against an
        // uninterrupted run of the same configuration.
        let dir = std::env::temp_dir();
        let ck = dir.join(format!("aderdg-serve-smoke-{}.ckpt", std::process::id()));
        let ck_str = ck.display();
        let submit = |client: &mut Client, cmd: &str| -> Result<String, String> {
            let reply = client
                .cmd(cmd)
                .map_err(io_err)?
                .map_err(|e| fail("SUBMIT", e))?;
            Ok(field(&reply, "id")
                .ok_or_else(|| format!("reply `{reply}` has no id"))?
                .to_string())
        };
        let wait_status = |client: &mut Client, id: &str| -> Result<String, String> {
            let reply = client
                .cmd(&format!("WAIT {id}"))
                .map_err(io_err)?
                .map_err(|e| fail("WAIT", e))?;
            Ok(field(&reply, "status").unwrap_or("?").to_string())
        };
        let paused = submit(
            &mut client,
            &format!(
                "SUBMIT acoustic_wave smoke=true tuning=static pause_at_step=1 \
                 save_checkpoint={ck_str}"
            ),
        )?;
        if wait_status(&mut client, &paused)? != "paused" {
            return Err(format!("job {paused} did not pause at step 1"));
        }
        let resumed = submit(&mut client, &format!("RESUME {ck_str}"))?;
        if wait_status(&mut client, &resumed)? != "done" {
            return Err(format!("resumed job {resumed} did not finish"));
        }
        let full = submit(&mut client, "SUBMIT acoustic_wave smoke=true tuning=static")?;
        if wait_status(&mut client, &full)? != "done" {
            return Err(format!("reference job {full} did not finish"));
        }
        let series = |client: &mut Client, id: &str| -> Result<Vec<String>, String> {
            client
                .cmd_data(&format!("SERIES {id}"))
                .map_err(io_err)?
                .map_err(|e| fail("SERIES", e))
        };
        let resumed_series = series(&mut client, &resumed)?;
        let full_series = series(&mut client, &full)?;
        // The checkpoint carries the pre-pause series and the resumed
        // half re-derives the same dt sequence, so the whole series must
        // match the uninterrupted run bit-for-bit (the CSV renders f64
        // round-trip exactly).
        if resumed_series != full_series {
            return Err(format!(
                "resumed series differs from the uninterrupted run: \
                 {resumed_series:?} vs {full_series:?}"
            ));
        }
        let _ = writeln!(log, "serve smoke: pause/checkpoint/resume series matches");
        let _ = std::fs::remove_file(&ck);

        // The same pause/resume round trip under clustered local time
        // stepping, on the dt-heterogeneous scenario: the checkpoint must
        // carry the per-cluster clocks so the resumed macro cycle replays
        // bit-for-bit (see docs/LTS.md).
        let ck_lts = dir.join(format!(
            "aderdg-serve-smoke-lts-{}.ckpt",
            std::process::id()
        ));
        let ck_lts_str = ck_lts.display();
        let paused = submit(
            &mut client,
            &format!(
                "SUBMIT acoustic_layered smoke=true tuning=static stepping=lts \
                 pause_at_step=1 save_checkpoint={ck_lts_str}"
            ),
        )?;
        if wait_status(&mut client, &paused)? != "paused" {
            return Err(format!("LTS job {paused} did not pause at step 1"));
        }
        let resumed = submit(&mut client, &format!("RESUME {ck_lts_str}"))?;
        if wait_status(&mut client, &resumed)? != "done" {
            return Err(format!("resumed LTS job {resumed} did not finish"));
        }
        let full = submit(
            &mut client,
            "SUBMIT acoustic_layered smoke=true tuning=static stepping=lts",
        )?;
        if wait_status(&mut client, &full)? != "done" {
            return Err(format!("reference LTS job {full} did not finish"));
        }
        let resumed_series = series(&mut client, &resumed)?;
        let full_series = series(&mut client, &full)?;
        if resumed_series != full_series {
            return Err(format!(
                "resumed LTS series differs from the uninterrupted run: \
                 {resumed_series:?} vs {full_series:?}"
            ));
        }
        let _ = writeln!(
            log,
            "serve smoke: LTS pause/checkpoint/resume series matches"
        );
        let _ = std::fs::remove_file(&ck_lts);

        let reply = client.cmd("SHUTDOWN").map_err(io_err)?;
        if reply != Ok("shutting down".to_string()) {
            return Err(format!("SHUTDOWN answered {reply:?}"));
        }
        Ok(())
    })();
    server.stop();
    queue.shutdown();
    result
}

/// Parsed `aderdg-serve` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeCommand {
    /// `--help`.
    Help,
    /// `--smoke`: run the self-test and exit.
    Smoke,
    /// Serve on the given address with the given job-runner count.
    Serve {
        /// Bind address (default `127.0.0.1:4971`; port 0 for ephemeral).
        addr: String,
        /// Concurrent job runners (default 4).
        jobs: usize,
    },
}

/// The usage text (`--help`).
pub const USAGE: &str = "\
aderdg-serve — checkpoint/restart simulation service over the scenario registry

USAGE:
  aderdg-serve [--addr <host:port>] [--jobs <n>]   serve (default 127.0.0.1:4971, 4 jobs)
  aderdg-serve --smoke                             run the self-test and exit
  aderdg-serve --help

Connect with any line-oriented TCP client and type HELP for the protocol.
";

/// Parses the `aderdg-serve` command line (without the program name).
pub fn parse_serve_args(args: &[String]) -> Result<ServeCommand, String> {
    let mut addr = "127.0.0.1:4971".to_string();
    let mut jobs = 4usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(ServeCommand::Help),
            "--smoke" => return Ok(ServeCommand::Smoke),
            "--addr" => {
                addr = it
                    .next()
                    .cloned()
                    .ok_or_else(|| "--addr requires a value".to_string())?;
            }
            "--jobs" => {
                let value = it
                    .next()
                    .ok_or_else(|| "--jobs requires a value".to_string())?;
                jobs = match value.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        return Err(format!(
                            "invalid value `{value}` for --jobs (expected a positive integer)"
                        ))
                    }
                };
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(ServeCommand::Serve { addr, jobs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_line_basics() {
        let queue = JobQueue::new(1);
        assert_eq!(handle_line(&queue, "PING"), Reply::Ok("pong".into()));
        assert_eq!(handle_line(&queue, "SHUTDOWN"), Reply::Shutdown);
        assert!(matches!(handle_line(&queue, ""), Reply::Err(_)));
        assert!(matches!(handle_line(&queue, "FROB 1"), Reply::Err(_)));
        assert!(matches!(handle_line(&queue, "STATUS"), Reply::Err(_)));
        assert!(matches!(handle_line(&queue, "STATUS x"), Reply::Err(_)));
        assert!(matches!(handle_line(&queue, "STATUS 42"), Reply::Err(_)));
        assert!(matches!(handle_line(&queue, "HELP"), Reply::Data(_)));
    }

    #[test]
    fn submit_validates_scenario_and_knobs() {
        let queue = JobQueue::new(1);
        match handle_line(&queue, "SUBMIT nope smoke=true") {
            Reply::Err(e) => assert!(e.contains("unknown scenario"), "{e}"),
            other => panic!("expected ERR, got {other:?}"),
        }
        match handle_line(&queue, "SUBMIT acoustic_wave frobnicate=1") {
            Reply::Err(e) => assert!(e.contains("unknown key"), "{e}"),
            other => panic!("expected ERR, got {other:?}"),
        }
        match handle_line(&queue, "SUBMIT acoustic_wave order=banana") {
            Reply::Err(e) => assert!(e.contains("invalid value"), "{e}"),
            other => panic!("expected ERR, got {other:?}"),
        }
        match handle_line(&queue, "SUBMIT acoustic_wave tuning=probe") {
            Reply::Err(e) => assert!(
                e.contains("invalid value `probe` for tuning (expected static|model)"),
                "{e}"
            ),
            other => panic!("expected ERR, got {other:?}"),
        }
        match handle_line(&queue, "SUBMIT acoustic_wave smoke") {
            Reply::Err(e) => assert!(e.contains("key=value"), "{e}"),
            other => panic!("expected ERR, got {other:?}"),
        }
    }

    #[test]
    fn submit_wait_and_fetch_round_trip() {
        let queue = JobQueue::new(2);
        let reply = handle_line(&queue, "SUBMIT acoustic_wave smoke=true");
        let Reply::Ok(ok) = reply else {
            panic!("submit failed: {reply:?}");
        };
        let id: u64 = field(&ok, "id").unwrap().parse().unwrap();
        let Reply::Ok(status) = handle_line(&queue, &format!("WAIT {id}")) else {
            panic!("WAIT failed");
        };
        assert!(status.contains("status=done"), "{status}");
        let Reply::Data(series) = handle_line(&queue, &format!("SERIES {id}")) else {
            panic!("SERIES failed");
        };
        assert_eq!(series[0], "t,steps,l2_norm,l2_error");
        assert!(series.len() > 1);
        let Reply::Data(list) = handle_line(&queue, "LIST") else {
            panic!("LIST failed");
        };
        assert_eq!(list.len(), 1);
        let Reply::Data(summary) = handle_line(&queue, &format!("SUMMARY {id}")) else {
            panic!("SUMMARY failed");
        };
        assert!(
            summary[0].starts_with("scenario acoustic_wave"),
            "{summary:?}"
        );
    }

    #[test]
    fn reply_wire_format_dot_stuffs() {
        let mut buf = Vec::new();
        write_reply(&mut buf, &Reply::Data(vec![".hidden".into(), "x".into()])).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "OK\n..hidden\nx\n.\n");
        let mut buf = Vec::new();
        write_reply(&mut buf, &Reply::Err("multi\nline".into())).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "ERR multi line\n");
    }

    #[test]
    fn serve_args_parse() {
        let a = |s: &[&str]| parse_serve_args(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>());
        assert_eq!(a(&["--help"]), Ok(ServeCommand::Help));
        assert_eq!(a(&["--smoke"]), Ok(ServeCommand::Smoke));
        assert_eq!(
            a(&[]),
            Ok(ServeCommand::Serve {
                addr: "127.0.0.1:4971".into(),
                jobs: 4
            })
        );
        assert_eq!(
            a(&["--addr", "0.0.0.0:0", "--jobs", "2"]),
            Ok(ServeCommand::Serve {
                addr: "0.0.0.0:0".into(),
                jobs: 2
            })
        );
        assert!(a(&["--jobs", "0"]).is_err());
        assert!(a(&["--frob"]).is_err());
    }
}
