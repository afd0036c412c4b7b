//! The `serve_sweep` workload: an in-process `aderdg-serve` server driven
//! by closed-loop clients over the line protocol.
//!
//! Closed loop: each of the [`CLIENTS`] connections submits a burst of
//! four jobs (the menu, in seeded order), waits for every one, fetches
//! every series, and only then starts its next round — so a slow service receives less load, as
//! callers that each wait for a reply would give it. Bursts exceed the
//! two job runners, so jobs queue. One job of every round is armed with
//! `pause_at_step` + `save_checkpoint` and `RESUME`d from the file, which
//! puts checkpoint write **and** read beside plain runs in every round.

use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{close, threads_for, Opts, Outcome};
use aderdg_core::jobs::JobQueue;
use aderdg_core::par;
use aderdg_core::scenario::{RunRequest, ScenarioRegistry};
use aderdg_serve::{Client, Server};
use aderdg_tensor::Lcg;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections (never above `nproc` on the reference host).
pub const CLIENTS: usize = 2;
/// Job runners of the queue (bursts are larger, so jobs wait).
const RUNNERS: usize = 2;
/// Step at which the armed job pauses (every menu job takes more steps).
const PAUSE_AT_STEP: usize = 4;

/// One entry of the job menu: a registered scenario at gallery size with
/// the final `l2_norm` it must reproduce.
struct MenuJob {
    scenario: &'static str,
    knobs: &'static str,
    l2_norm: f64,
    smoke_l2_norm: f64,
}

/// Four registered scenarios on their gallery mesh and order with `t_end`
/// cut so a solo run takes 0.03–0.15 s (≥ 100 latency samples per 20 s
/// window even on a slow host); one of them steps under LTS.
const MENU: &[MenuJob] = &[
    MenuJob {
        scenario: "acoustic_wave",
        knobs: "t_end=0.2",
        l2_norm: 1.0000068165836842,
        smoke_l2_norm: 1.0091692820727338,
    },
    MenuJob {
        scenario: "advection_wave",
        knobs: "",
        l2_norm: 1.2247122674394073,
        smoke_l2_norm: 1.220113169717593,
    },
    MenuJob {
        scenario: "elastic_wave",
        knobs: "t_end=0.15",
        l2_norm: 1.0382494735929096e-1,
        smoke_l2_norm: 1.0479823351782828e-1,
    },
    MenuJob {
        scenario: "acoustic_layered",
        knobs: "stepping=lts t_end=0.05",
        l2_norm: 7.460384533632608e-2,
        smoke_l2_norm: 6.1022956246616425e-2,
    },
];

impl MenuJob {
    /// `stepping=…` is kept at smoke size; `t_end` conflicts with it.
    fn knobs(&self, smoke: bool) -> impl Iterator<Item = &'static str> {
        self.knobs
            .split_whitespace()
            .filter(move |k| !(smoke && k.starts_with("t_end=")))
    }

    fn submit_line(&self, smoke: bool) -> String {
        let size = if smoke { "smoke=true" } else { "" };
        let knobs: Vec<&str> = self.knobs(smoke).collect();
        format!("SUBMIT {} {} {size}", self.scenario, knobs.join(" "))
    }

    /// The same job as a request for a run without the service.
    fn request(&self, smoke: bool) -> Result<RunRequest, String> {
        let mut req = RunRequest {
            smoke,
            ..RunRequest::new()
        };
        for knob in self.knobs(smoke) {
            let applied = knob
                .split_once('=')
                .and_then(|(key, value)| req.set(key, value).ok());
            if applied != Some(true) {
                return Err(format!("menu knob `{knob}` was not accepted"));
            }
        }
        Ok(req)
    }
}

/// Everything the sweep measured, before it is folded into metrics.
#[derive(Debug, Default)]
pub struct SweepStats {
    pub setup_s: f64,
    pub elapsed_s: f64,
    pub round_s: Vec<f64>,
    /// `SUBMIT` sent → (final) `WAIT` reply, per job.
    pub latency_ms: Vec<f64>,
    /// Latency minus the job's own stepping time.
    pub queue_wait_ms: Vec<f64>,
    pub submit_rtt_us: Vec<f64>,
    pub ping_rtt_us: Vec<f64>,
    pub series_bytes: Vec<f64>,
    pub cell_updates: f64,
    pub jobs: usize,
    pub failed: usize,
}

struct Service {
    queue: Arc<JobQueue>,
    server: Server,
    clients: Vec<Client>,
}

fn io<T>(what: &str, r: std::io::Result<Result<T, String>>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))?
        .map_err(|e| format!("{what}: {e}"))
}

/// Queue + server + connected, pinged clients.
fn start_service() -> Result<Service, String> {
    let queue = Arc::new(JobQueue::new(RUNNERS));
    let server =
        Server::start("127.0.0.1:0", Arc::clone(&queue)).map_err(|e| format!("bind: {e}"))?;
    let addr: SocketAddr = server.addr();
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        io("PING", client.cmd("PING"))?;
        clients.push(client);
    }
    Ok(Service {
        queue,
        server,
        clients,
    })
}

fn stop_service(mut service: Service) {
    service.clients.clear();
    service.server.stop();
    service.queue.shutdown();
}

fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

fn submit(client: &mut Client, line: &str) -> Result<u64, String> {
    let reply = io("SUBMIT", client.cmd(line))?;
    field(&reply, "id")
        .and_then(|id| id.parse().ok())
        .ok_or_else(|| format!("reply `{reply}` has no id"))
}

fn wait(client: &mut Client, id: u64) -> Result<String, String> {
    let reply = io("WAIT", client.cmd(&format!("WAIT {id}")))?;
    Ok(field(&reply, "status").unwrap_or("?").to_string())
}

fn series(client: &mut Client, id: u64) -> Result<Vec<String>, String> {
    io("SERIES", client.cmd_data(&format!("SERIES {id}")))
}

/// Final `l2_norm` of a `SERIES` payload (`t,steps,l2_norm,l2_error`).
fn final_l2_norm(series: &[String]) -> Option<f64> {
    series.last()?.split(',').nth(2)?.parse().ok()
}

/// One client's timed rounds.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    index: usize,
    client: &mut Client,
    queue: &JobQueue,
    references: &[Vec<String>],
    opts: &Opts,
    deadline: Instant,
    ckpt_dir: &Path,
    rec: &mut Recorder,
) -> SweepStats {
    let mut stats = SweepStats::default();
    let mut rng = Lcg::new(opts.seed ^ (0x5EED_0001 + index as u64));
    let mut round = 0;
    // At least one round, however short the window (smoke, the traced
    // probe).
    while round == 0 || Instant::now() < deadline {
        // Every round holds each menu entry once, in seeded order, and arms
        // the first: a round's work does not depend on the draw — only
        // its order and which entry is armed do.
        let mut picks: Vec<usize> = (0..MENU.len()).collect();
        for i in (1..picks.len()).rev() {
            picks.swap(i, rng.usize(0, i + 1));
        }
        let ckpt = ckpt_dir.join(format!("c{index}_r{round}.ckpt"));
        let round_t0 = Instant::now();
        rec.span("serve.round", |rec| {
            // (menu index, ids in submission order, submit instant, armed)
            let mut jobs: Vec<(usize, Vec<u64>, Instant, bool)> = Vec::new();
            for (slot, &pick) in picks.iter().enumerate() {
                let mut line = MENU[pick].submit_line(opts.smoke);
                if slot == 0 {
                    // Smoke runs take two steps; pause after the first.
                    let step = if opts.smoke { 1 } else { PAUSE_AT_STEP };
                    line.push_str(&format!(
                        " pause_at_step={step} save_checkpoint={}",
                        ckpt.display()
                    ));
                }
                let t0 = Instant::now();
                match rec.span("serve.submit", |_| submit(client, &line)) {
                    Ok(id) => {
                        stats.submit_rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        jobs.push((pick, vec![id], t0, slot == 0));
                    }
                    Err(e) => {
                        stats.failed += 1;
                        eprintln!("  serve_sweep: {e}");
                    }
                }
                stats.jobs += 1;
            }
            for (pick, ids, t0, armed) in &mut jobs {
                let outcome = rec.span("serve.wait", |rec| -> Result<(), String> {
                    let mut status = wait(client, ids[0])?;
                    if *armed {
                        if status != "paused" {
                            return Err(format!("armed job {} settled `{status}`", ids[0]));
                        }
                        let id = rec.span("serve.resume", |_| {
                            submit(client, &format!("RESUME {}", ckpt.display()))
                        })?;
                        ids.push(id);
                        status = wait(client, id)?;
                    }
                    if status != "done" {
                        return Err(format!("job {:?} settled `{status}`", ids));
                    }
                    Ok(())
                });
                let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                let fetched = outcome.and_then(|()| {
                    let last = *ids.last().expect("at least the submitted id");
                    let got = rec.span("serve.series", |_| series(client, last))?;
                    stats
                        .series_bytes
                        .push(got.iter().map(|l| l.len() + 1).sum::<usize>() as f64);
                    // A resumed job's series must equal the uninterrupted
                    // run's exactly; so must every plain job's (the engine
                    // is deterministic across schedules).
                    if got != references[*pick] {
                        return Err(format!(
                            "job {ids:?} ({}) series differs from the reference run",
                            MENU[*pick].scenario
                        ));
                    }
                    Ok(())
                });
                match fetched {
                    Ok(()) => {
                        // In-process server: the job objects are at hand
                        // for the stepping time the wire does not carry.
                        let summaries: Vec<_> = ids
                            .iter()
                            .filter_map(|&id| queue.job(id).and_then(|j| j.summary()))
                            .collect();
                        let wall: f64 = summaries.iter().map(|s| s.wall_seconds).sum();
                        let steps = summaries.last().map_or(0, |s| s.steps);
                        let cells = summaries.last().map_or(0, |s| s.num_cells);
                        stats.cell_updates += (cells * steps) as f64;
                        stats.latency_ms.push(latency_ms);
                        stats.queue_wait_ms.push(latency_ms - wall * 1e3);
                    }
                    Err(e) => {
                        stats.failed += 1;
                        eprintln!("  serve_sweep: {e}");
                    }
                }
            }
        });
        let _ = std::fs::remove_file(&ckpt);
        stats.round_s.push(round_t0.elapsed().as_secs_f64());
        round += 1;
    }
    stats
}

/// Discarded warm-up at smoke size, then one uninterrupted reference run
/// per menu entry: its series is what every timed job of that entry must
/// reproduce, and its final norm is checked against the pinned value.
/// Returns the reference series and how many missed their pinned norm.
fn reference_runs(client: &mut Client, opts: &Opts) -> Result<(Vec<Vec<String>>, usize), String> {
    let mut failed = 0;
    let mut references = Vec::new();
    for job in MENU {
        let id = submit(client, &job.submit_line(true))?;
        wait(client, id)?;
        let id = submit(client, &job.submit_line(opts.smoke))?;
        let status = wait(client, id)?;
        if status != "done" {
            return Err(format!(
                "reference run of {} settled `{status}`",
                job.scenario
            ));
        }
        let reference = series(client, id)?;
        let pinned = if opts.smoke {
            job.smoke_l2_norm
        } else {
            job.l2_norm
        };
        let got = final_l2_norm(&reference).unwrap_or(f64::NAN);
        eprintln!(
            "  serve_sweep: reference {} {}: final l2_norm={got:e}",
            job.scenario, job.knobs
        );
        if !close(got, pinned) {
            failed += 1;
            eprintln!(
                "  serve_sweep: INCORRECT: {} final l2_norm {got:e} != reference {pinned:e}",
                job.scenario
            );
        }
        references.push(reference);
    }
    Ok((references, failed))
}

/// Direct repetitions per menu entry behind `step_wall_s`.
const SOLO_REPS: usize = 5;

/// The stepping work of one round: every menu entry straight through
/// `Scenario::run`, alone and on one thread, fastest of [`SOLO_REPS`],
/// summed. Not taken from the service's jobs, whose `wall_seconds` is not
/// a steady number: on these tiny meshes the two pool workers run side by
/// side only in spells (×1.5 faster) and at one-thread speed otherwise,
/// for minutes at a time, and with two runners on the one pool a job's
/// `wall_seconds` also includes waiting for the other runner's job
/// (measured: README).
fn solo_step_wall_s(opts: &Opts) -> Result<f64, String> {
    par::set_num_threads(1);
    let mut total = 0.0;
    for job in MENU {
        let scenario = ScenarioRegistry::global()
            .resolve(job.scenario)
            .ok_or_else(|| format!("scenario `{}` is not registered", job.scenario))?;
        let req = job.request(opts.smoke)?;
        let mut fastest = f64::INFINITY;
        for _ in 0..SOLO_REPS {
            let summary = scenario.run(&req).map_err(|e| e.to_string())?;
            fastest = fastest.min(summary.wall_seconds);
        }
        total += fastest;
    }
    par::set_num_threads(threads_for(2));
    Ok(total)
}

/// Service bring-ups timed per run; `setup_s` is their median. The last
/// service brought up is the one the sweep runs on.
const SETUP_SAMPLES: usize = 201;

/// Runs the whole workload: [`SETUP_SAMPLES`] timed service bring-ups
/// (what `setup_s` is: queue, server, connections, one `PING` each), the
/// untimed warm-up and reference runs, `pings` timed `PING` round trips,
/// then the timed closed-loop sweep of `seconds`.
pub fn sweep(
    opts: &Opts,
    seconds: f64,
    pings: usize,
    out_dir: &Path,
    rec: &mut Recorder,
) -> Result<SweepStats, String> {
    par::set_num_threads(threads_for(2));
    let ckpt_dir: PathBuf = out_dir.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| format!("{}: {e}", ckpt_dir.display()))?;
    if ckpt_dir.to_string_lossy().contains(char::is_whitespace) {
        return Err(format!(
            "checkpoint directory `{}` contains whitespace, which the line protocol cannot carry",
            ckpt_dir.display()
        ));
    }

    let mut setup_s = Vec::new();
    let mut service = loop {
        let t0 = Instant::now();
        let service = rec.span("serve.setup", |_| start_service())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() == SETUP_SAMPLES {
            break service;
        }
        stop_service(service);
    };
    let result = (|| -> Result<SweepStats, String> {
        let (references, failed) = rec.span("serve.references", |_| {
            reference_runs(&mut service.clients[0], opts)
        })?;

        let client = &mut service.clients[0];
        let mut ping_rtt_us = Vec::new();
        for _ in 0..pings {
            let t0 = Instant::now();
            io("PING", client.cmd("PING"))?;
            ping_rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }

        let queue = Arc::clone(&service.queue);
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds);
        let mut parts: Vec<(SweepStats, Recorder)> = std::thread::scope(|scope| {
            let handles: Vec<_> = service
                .clients
                .iter_mut()
                .enumerate()
                .map(|(index, client)| {
                    let mut fork = rec.fork();
                    let (queue, references, ckpt_dir) = (&queue, &references, &ckpt_dir);
                    scope.spawn(move || {
                        let stats = client_loop(
                            index, client, queue, references, opts, deadline, ckpt_dir, &mut fork,
                        );
                        (stats, fork)
                    })
                })
                .collect();
            handles
                .into_iter()
                // A panicking client thread is a benchmark bug: propagate.
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut total = SweepStats {
            setup_s: stats::median(&setup_s),
            elapsed_s: t0.elapsed().as_secs_f64(),
            ping_rtt_us,
            failed,
            ..SweepStats::default()
        };
        for (part, fork) in parts.drain(..) {
            rec.absorb(fork);
            total.round_s.extend(part.round_s);
            total.latency_ms.extend(part.latency_ms);
            total.queue_wait_ms.extend(part.queue_wait_ms);
            total.submit_rtt_us.extend(part.submit_rtt_us);
            total.series_bytes.extend(part.series_bytes);
            total.cell_updates += part.cell_updates;
            total.jobs += part.jobs;
            total.failed += part.failed;
        }
        io("SHUTDOWN", service.clients[0].cmd("SHUTDOWN"))?;
        Ok(total)
    })();
    stop_service(service);
    let total = result?;
    if total.latency_ms.is_empty() {
        return Err("serve_sweep: no job completed".into());
    }
    Ok(total)
}

/// End-to-end run (tracing off).
pub fn run_e2e(opts: &Opts, out_dir: &Path) -> Result<Outcome, String> {
    let step_wall_s = solo_step_wall_s(opts)?;
    let mut rec = Recorder::new("serve_sweep", false);
    let s = sweep(opts, opts.seconds, 0, out_dir, &mut rec)?;
    let (tail_ms, tail_p) = stats::tail(&s.latency_ms, 0.9);
    eprintln!(
        "  serve_sweep: {} jobs ({} failed) in {} rounds over {:.2} s, {CLIENTS} closed-loop \
         clients, {RUNNERS} runners; latency tail reported at p{:.0} of {} samples",
        s.jobs,
        s.failed,
        s.round_s.len(),
        s.elapsed_s,
        tail_p * 100.0,
        s.latency_ms.len()
    );
    Ok(Outcome {
        attempted: s.jobs,
        failed: s.failed,
        samples: s.latency_ms.len(),
        metrics: vec![
            ("time_to_solution_s", stats::median(&s.round_s)),
            ("step_wall_s", step_wall_s),
            ("cell_updates_per_s", s.cell_updates / s.elapsed_s),
            ("setup_s", s.setup_s),
            (
                "peak_rss_mb",
                crate::host::peak_rss_mb().unwrap_or(f64::NAN),
            ),
            ("job_latency_p50_ms", stats::median(&s.latency_ms)),
            ("job_latency_p90_ms", tail_ms),
            ("jobs_per_s", s.latency_ms.len() as f64 / s.elapsed_s),
        ],
        threads: threads_for(2),
        peak_gflops: None,
    })
}
