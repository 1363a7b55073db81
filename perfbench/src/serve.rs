//! The `serve_mixed` workload: an in-process campaign service under a
//! mixed load of predictions and background jobs.
//!
//! Set-up starts `lockstep_serve::serve` on an ephemeral port over a
//! fresh data directory with one shard worker, trains one LR5 and one
//! LR7 job, and asks each of the four `(core, granularity)` tables one
//! question (which trains it). It is repeated [`SETUP_REPS`] times; the
//! last server carries the load:
//!
//! * connection 1 sends `predict` requests **open loop** at
//!   [`PREDICT_RATE`] per second for `--seconds`; a request sent late
//!   because earlier replies came late is timed from its due time, so a
//!   stall also charges the requests queued behind it;
//! * connection 2 runs small LR7 jobs **closed loop** for as long as
//!   the predictions last (at least [`MIN_BG_JOBS`]): submit, poll until
//!   done, submit the next.
//!
//! Every completion moves the scheduler's generation, so the next
//! prediction on each table retrains over all completed jobs.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lockstep_core::{Dsr, ErrorRecord, Predictor, PredictorConfig};
use lockstep_cpu::{CoreKind, Cpu, Granularity, Lr7};
use lockstep_eval::dataset::Dataset;
use lockstep_eval::spec::CampaignSpec;
use lockstep_eval::{merge_shard_archives, plan_shards, run_campaign, run_shard, CampaignArchive};
use lockstep_fault::ErrorKind;
use lockstep_serve::{
    serve, PredictService, Registry, Request, SchedulerConfig, ServerHandle, ServiceConfig,
};
use lockstep_workloads::Workload;
use serde::json::Value;

use crate::trace;
use crate::util::{mean, median, nproc, quantile, Report, Rng};
use crate::Opts;

const SETUP_REPS: usize = 7;
/// Open-loop prediction rate on connection 1 (requests per second). The
/// service answers one connection's requests about a millisecond apart
/// (its reactor polls every millisecond when idle); at 400 per second a
/// burst of host steal time pushed it below the rate, the backlog never
/// drained and the run's median read 50–115 ms. At 100 per second it
/// has ten times the headroom.
const PREDICT_RATE: f64 = 100.0;
/// Background LR7 jobs on connection 2: the seeded sequence they are
/// taken from, the fewest a run completes, faults per kernel over all
/// 12 kernels, and shards.
const BG_JOBS: usize = 400;
const MIN_BG_JOBS: usize = 4;
const BG_FAULTS: u64 = 50;
const BG_SHARDS: u64 = 2;
/// Status poll interval while a background job runs.
const POLL: Duration = Duration::from_millis(10);
/// Longest wait for one reply before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Distinct DSRs checked per `(core, granularity)` table at the end.
const CHECK_DSRS: usize = 40;

/// One campaign job as submitted.
#[derive(Debug, Clone)]
struct Job {
    workloads: Vec<String>,
    faults: u64,
    seed: u64,
    core: &'static str,
    shards: u64,
}

impl Job {
    fn line(&self) -> String {
        let names: Vec<String> = self.workloads.iter().map(|w| format!("\"{w}\"")).collect();
        format!(
            r#"{{"cmd":"submit","workloads":[{}],"faults":{},"seed":{},"core":"{}","shards":{}}}"#,
            names.join(","),
            self.faults,
            self.seed,
            self.core,
            self.shards
        )
    }

    fn spec(&self) -> CampaignSpec {
        CampaignSpec {
            workloads: self.workloads.clone(),
            faults_per_workload: self.faults,
            seed: self.seed,
            replay_mode: "shadow".to_owned(),
            batch_mode: "full".to_owned(),
            core: self.core.to_owned(),
            redundancy: "fixed".to_owned(),
        }
    }

    fn total_faults(&self) -> u64 {
        self.faults * self.workloads.len() as u64
    }

    /// The job's records computed offline, in one process, without the
    /// service: the reference its merged shards must equal.
    fn offline_records(&self) -> Vec<ErrorRecord> {
        let config = self.spec().campaign_config(nproc()).expect("benchmark job specs validate");
        run_campaign(&config).records
    }
}

fn kernel_names() -> Vec<String> {
    Workload::all().iter().map(|w| w.name.to_owned()).collect()
}

fn training_jobs(seed: u64) -> [Job; 2] {
    let names = kernel_names();
    [
        Job { workloads: names.clone(), faults: 60, seed, core: "lr5", shards: 2 },
        Job { workloads: names[..6].to_vec(), faults: 40, seed, core: "lr7", shards: 2 },
    ]
}

fn background_jobs(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed, 10);
    (0..BG_JOBS)
        .map(|_| Job {
            workloads: kernel_names(),
            faults: BG_FAULTS,
            seed: rng.next_u64() % 1_000_000,
            core: "lr7",
            shards: BG_SHARDS,
        })
        .collect()
}

/// A line-protocol connection. It busy-polls (yielding) for a reply
/// instead of blocking: a blocked thread lets its virtual CPU halt, and
/// the wake-up on the reply then adds host scheduling latency that
/// belongs to neither the client nor the server.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// One request, one response line; `Err` on transport failure or
    /// an `"ok": false` answer.
    fn call(&mut self, line: &str) -> Result<Value, String> {
        let request = format!("{line}\n");
        let mut sent = 0;
        while sent < request.len() {
            match self.writer.write(&request.as_bytes()[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut reply = String::new();
        loop {
            match self.reader.read_line(&mut reply) {
                Ok(0) => return Err("connection closed".to_owned()),
                Ok(_) => break,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err("no reply within the timeout".to_owned());
                    }
                    std::thread::yield_now();
                }
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        let value = Value::parse(reply.trim()).map_err(|e| format!("bad reply: {e}"))?;
        if value.field("ok").and_then(Value::as_bool) == Ok(true) {
            Ok(value)
        } else {
            Err(format!("refused: {}", reply.trim()))
        }
    }

    fn submit(&mut self, job: &Job) -> Result<String, String> {
        let reply = self.call(&job.line())?;
        reply.field("job").and_then(Value::as_str).map(str::to_owned).map_err(|e| e.to_string())
    }

    fn state(&mut self, id: &str) -> Result<String, String> {
        let reply = self.call(&format!(r#"{{"cmd":"status","job":"{id}"}}"#))?;
        let job = reply.field("jobs").and_then(|j| j.index(0)).map_err(|e| e.to_string())?;
        job.field("state").and_then(Value::as_str).map(str::to_owned).map_err(|e| e.to_string())
    }

    /// Submits `job` and polls until it leaves the running state.
    /// Returns submit and done times and the round trips it made, as
    /// `(span name, start, end)`.
    #[allow(clippy::type_complexity)]
    fn run_job(
        &mut self,
        job: &Job,
    ) -> Result<(Instant, Instant, Vec<(&'static str, Instant, Instant)>), String> {
        let submitted = Instant::now();
        let job_id = self.submit(job)?;
        let mut calls = vec![("serve.submit", submitted, Instant::now())];
        loop {
            std::thread::sleep(POLL);
            let t = Instant::now();
            let state = self.state(&job_id)?;
            calls.push(("serve.status", t, Instant::now()));
            match state.as_str() {
                "running" => {}
                "done" => return Ok((submitted, Instant::now(), calls)),
                other => return Err(format!("{job_id} ended {other}")),
            }
        }
    }
}

fn predict_line(dsr: u64, granularity: &str, core: &str) -> String {
    format!(r#"{{"cmd":"predict","dsr":"{dsr:#x}","granularity":"{granularity}","core":"{core}"}}"#)
}

/// A prediction as the protocol reports it.
#[derive(Debug, PartialEq)]
struct Answer {
    order: Vec<String>,
    kind: String,
    table_hit: bool,
    trained_jobs: u64,
}

fn answer(reply: &Value) -> Result<Answer, String> {
    let e = |e: serde::json::Error| e.to_string();
    Ok(Answer {
        order: reply
            .field("order")
            .and_then(Value::as_array)
            .map_err(e)?
            .iter()
            .map(|u| u.as_str().map(str::to_owned))
            .collect::<Result<_, _>>()
            .map_err(e)?,
        kind: reply.field("kind").and_then(Value::as_str).map_err(e)?.to_owned(),
        table_hit: reply.field("table_hit").and_then(Value::as_bool).map_err(e)?,
        trained_jobs: reply.field("trained_jobs").and_then(Value::as_u64).map_err(e)?,
    })
}

const TABLES: [(&str, &str); 4] =
    [("lr5", "coarse"), ("lr5", "fine"), ("lr7", "coarse"), ("lr7", "fine")];

/// A started, trained service instance.
struct Instance {
    handle: ServerHandle,
    dir: PathBuf,
    secs: f64,
}

impl Instance {
    fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn start_trained(seed: u64, rep: usize, report: &mut Report) -> Option<Instance> {
    let dir = crate::out_dir().join(format!("serve-{}-{rep}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let _span = trace::enter("setup", Some(rep as u64));
    let start = Instant::now();
    let config = ServiceConfig {
        scheduler: SchedulerConfig { workers: 1, ..SchedulerConfig::default() },
        ..ServiceConfig::default()
    };
    let handle = match serve("127.0.0.1:0", &dir, config) {
        Ok(h) => h,
        Err(e) => {
            report.check(false, || format!("server failed to start: {e}"));
            return None;
        }
    };
    let instance = Instance { handle, dir, secs: 0.0 };
    let trained = (|| -> Result<(), String> {
        let mut client = Client::connect(instance.handle.addr()).map_err(|e| e.to_string())?;
        let ids: Vec<String> =
            training_jobs(seed).iter().map(|j| client.submit(j)).collect::<Result<_, _>>()?;
        for id in &ids {
            while client.state(id)? == "running" {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        for (core, granularity) in TABLES {
            client.call(&predict_line(1, granularity, core))?;
        }
        Ok(())
    })();
    let secs = start.elapsed().as_secs_f64();
    if let Err(e) = trained {
        report.check(false, || format!("set-up failed: {e}"));
        instance.stop();
        return None;
    }
    Some(Instance { secs, ..instance })
}

/// What the predict connection saw.
#[derive(Default)]
struct PredictLog {
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    backlog_max: u64,
    errors: Vec<String>,
    /// `(trained LR7 jobs, first reply reporting that many)`.
    lr7_trained: Vec<(u64, Instant)>,
}

fn predict_load(
    addr: std::net::SocketAddr,
    queries: &[(u64, &'static str, &'static str)],
    seconds: Duration,
) -> PredictLog {
    let mut log = PredictLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(format!("connect: {e}"));
            return log;
        }
    };
    let interval = Duration::from_secs_f64(1.0 / PREDICT_RATE);
    let start = Instant::now();
    for (i, &(dsr, granularity, core)) in queries.iter().enumerate() {
        let due = start + interval * i as u32;
        if due.duration_since(start) >= seconds {
            break;
        }
        // Sleep, not spin, until the request is due: a spinning
        // generator holds one of the host's CPUs and slows the job
        // worker by however much the scheduler gives it.
        let slept = match due.checked_duration_since(Instant::now()) {
            Some(wait) => {
                std::thread::sleep(wait);
                true
            }
            None => false,
        };
        let sent = Instant::now();
        // A request sent late because earlier replies came late is timed
        // from its due time: that wait is the service's. One sent late
        // because this thread woke late from its sleep is timed from its
        // send: that wait is the generator's.
        let from = if slept { sent } else { due };
        let owed = (sent.duration_since(start).as_secs_f64() * PREDICT_RATE) as u64 + 1;
        log.backlog_max = log.backlog_max.max(owed.saturating_sub(i as u64 + 1));
        log.late_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
        let reply = client.call(&predict_line(dsr, granularity, core)).and_then(|v| answer(&v));
        let done = Instant::now();
        let parent = trace::record("serve.predict", i as u64, None, from, done);
        trace::record("serve.predict_wire", i as u64, parent, sent, done);
        match reply {
            Ok(a) => {
                log.latencies_ms.push(done.duration_since(from).as_secs_f64() * 1e3);
                if core == "lr7" && log.lr7_trained.last().is_none_or(|&(n, _)| a.trained_jobs > n)
                {
                    log.lr7_trained.push((a.trained_jobs, done));
                }
            }
            Err(e) => {
                log.latencies_ms.push(f64::INFINITY);
                log.errors.push(e);
            }
        }
    }
    log
}

/// Runs `jobs` in order until `stop` is set and at least
/// [`MIN_BG_JOBS`] have completed; `(submitted, done)` per completed
/// job, or the first error.
fn job_load(
    addr: std::net::SocketAddr,
    jobs: &[Job],
    stop: &AtomicBool,
) -> Result<Vec<(Instant, Instant)>, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        if j >= MIN_BG_JOBS && stop.load(Ordering::Relaxed) {
            break;
        }
        let (submitted, done, calls) = client.run_job(job)?;
        let parent = trace::record("serve.job", j as u64, None, submitted, done);
        for (name, start, end) in calls {
            trace::record(name, j as u64, parent, start, end);
        }
        times.push((submitted, done));
    }
    Ok(times)
}

pub fn run(opts: Opts) -> Report {
    let mut report = Report::default();
    let seed = opts.seed;
    let training = training_jobs(seed);
    let jobs = background_jobs(seed);

    // ---- set-up: one instance at a time; the last one carries the load
    let mut setup_secs = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let Some(instance) = start_trained(seed, rep, &mut report) else {
            return report;
        };
        setup_secs.push(instance.secs);
        if let Some(previous) = server.replace(instance) {
            previous.stop();
        }
    }
    let setup_s = median(&setup_secs);
    let server = server.expect("at least one set-up");
    let addr = server.handle.addr();

    // Inputs: signatures the training jobs manifested (table hits, read
    // back from the service's registry) and random ones (mostly
    // misses), over both cores and granularities.
    let hits: Vec<Vec<u64>> = ["lr5", "lr7"]
        .iter()
        .map(|core| {
            Registry::open(&server.dir)
                .map_err(|e| e.to_string())
                .and_then(|r| merged_records(&r, core))
                .map(|(records, _)| records.iter().map(|r| r.dsr.bits()).collect())
                .unwrap_or_default()
        })
        .collect();
    let mut rng = Rng::new(seed, 11);
    let total = (opts.seconds.as_secs_f64() * PREDICT_RATE).ceil() as usize;
    let queries: Vec<(u64, &'static str, &'static str)> = (0..total)
        .map(|_| {
            let (core, granularity) = TABLES[rng.below(4)];
            let hits = &hits[usize::from(core == "lr7")];
            let dsr = if rng.below(10) < 6 && !hits.is_empty() {
                hits[rng.below(hits.len())]
            } else {
                rng.dsr()
            };
            (dsr, granularity, core)
        })
        .collect();

    // ---- measured phase -----------------------------------------------
    let stop = AtomicBool::new(false);
    let (log, job_times) = std::thread::scope(|scope| {
        let predicts = scope.spawn(|| {
            let log = predict_load(addr, &queries, opts.seconds);
            stop.store(true, Ordering::Relaxed);
            log
        });
        let background = scope.spawn(|| job_load(addr, &jobs, &stop));
        (predicts.join().expect("predict thread"), background.join().expect("job thread"))
    });
    let peak_heap_mb = crate::heap::peak_mb();
    let predicts_sent = log.latencies_ms.len() as u64;
    report.attempted = predicts_sent + job_times.as_ref().map_or(1, |t| t.len()) as u64;
    report.failed = log.errors.len() as u64;
    report.check(log.errors.is_empty(), || {
        format!("{} predict requests failed, first: {}", log.errors.len(), log.errors[0])
    });
    let job_times = match job_times {
        Ok(t) => t,
        Err(e) => {
            report.failed += 1;
            report.check(false, || format!("background job failed: {e}"));
            server.stop();
            return report;
        }
    };

    // ---- output checks --------------------------------------------------
    check_outputs(&server, &training, &jobs, seed, &mut report);

    // ---- metrics --------------------------------------------------------
    let job_s: Vec<f64> =
        job_times.iter().map(|(s, d)| d.duration_since(*s).as_secs_f64()).collect();
    let faults: u64 = jobs.iter().take(job_s.len()).map(Job::total_faults).sum();
    // Submit to the first LR7 answer trained on the job (the training
    // job is LR7 job 1, background job k makes k + 2).
    let repro_s: Vec<f64> = job_times
        .iter()
        .enumerate()
        .filter_map(|(k, (submitted, _))| {
            log.lr7_trained
                .iter()
                .find(|(n, _)| *n >= k as u64 + 2)
                .map(|(_, t)| t.duration_since(*submitted).as_secs_f64())
        })
        .collect();
    report.check(!repro_s.is_empty(), || "no prediction saw a background job's records".to_owned());
    report.notes.push(format!(
        "serve_mixed: {predicts_sent} predicts at {PREDICT_RATE}/s open loop, {} LR7 jobs closed \
         loop ({} seen by predictions), failed_frac {:.4}",
        job_s.len(),
        repro_s.len(),
        report.failed as f64 / report.attempted.max(1) as f64
    ));
    report.notes.push(format!(
        "job seconds: {:?}",
        job_s.iter().map(|s| (s * 1000.0).round() / 1000.0).collect::<Vec<_>>()
    ));
    report.end_to_end(
        opts.traced,
        &[
            ("peak_heap_mb", peak_heap_mb),
            ("faults_per_s", faults as f64 / job_s.iter().sum::<f64>()),
            ("repro_s", mean(&repro_s)),
            ("job_s", mean(&job_s)),
            ("predict_p50_ms", quantile(&log.latencies_ms, 0.50)),
            ("setup_s", setup_s),
        ],
    );
    if opts.traced {
        layer_probes(&server, &jobs[..job_s.len()], &training, &log, seed, &mut report);
    }
    server.stop();
    report
}

/// Merged records of every completed job of `core`, in job-id order —
/// what the service trains that core's tables on.
fn merged_records(registry: &Registry, core: &str) -> Result<(Vec<ErrorRecord>, u64), String> {
    let mut records = Vec::new();
    let mut jobs = 0;
    for job in registry.jobs().map_err(|e| e.to_string())? {
        if job.spec.campaign.core != core {
            continue;
        }
        let shards = registry.load_completed(&job.id)?;
        if (shards.len() as u64) < job.shards {
            return Err(format!("{} is incomplete", job.id));
        }
        records.extend(merge_shard_archives(&shards).map_err(|e| e.to_string())?.records);
        jobs += 1;
    }
    Ok((records, jobs))
}

fn check_outputs(
    server: &Instance,
    training: &[Job],
    jobs: &[Job],
    seed: u64,
    report: &mut Report,
) {
    let registry = match Registry::open(&server.dir) {
        Ok(r) => r,
        Err(e) => return report.check(false, || format!("registry unreadable: {e}")),
    };
    // Shard merges must equal the same campaigns run offline.
    let registered = registry.jobs().unwrap_or_default();
    let offline: Vec<(&Job, Vec<ErrorRecord>)> =
        training.iter().chain(jobs.first()).map(|j| (j, j.offline_records())).collect();
    for (job, expected) in offline {
        let found = registered.iter().find(|r| r.spec.campaign == job.spec());
        let merged = found
            .ok_or_else(|| "not registered".to_owned())
            .and_then(|r| registry.load_completed(&r.id))
            .and_then(|s| merge_shard_archives(&s).map_err(|e| e.to_string()));
        report.check(merged.as_ref().is_ok_and(|m| m.records == expected), || {
            format!(
                "{} job {:?}: merged shards differ from the offline campaign",
                job.core, job.workloads
            )
        });
    }

    // Server answers must equal tables trained offline on the merged
    // records of the completed jobs (as `lockstep_client check` does).
    let mut client = match Client::connect(server.handle.addr()) {
        Ok(c) => c,
        Err(e) => return report.check(false, || format!("check connection: {e}")),
    };
    let mut rng = Rng::new(seed, 12);
    for core in ["lr5", "lr7"] {
        let (records, job_count) = match merged_records(&registry, core) {
            Ok(r) => r,
            Err(e) => return report.check(false, || format!("{core} records: {e}")),
        };
        for granularity in [Granularity::Coarse, Granularity::Fine] {
            let label = lockstep_serve::proto::granularity_label(granularity);
            let refs: Vec<&ErrorRecord> = records.iter().collect();
            let offline = Predictor::train(
                &Dataset::to_train_records(&refs, granularity),
                PredictorConfig::new(granularity),
            );
            let mut mismatches = 0;
            for i in 0..CHECK_DSRS {
                let dsr = if i % 2 == 0 && !records.is_empty() {
                    records[rng.below(records.len())].dsr.bits()
                } else {
                    rng.dsr()
                };
                let p = offline.predict(Dsr::from_bits(dsr));
                let expected = Answer {
                    order: p.order.iter().map(|&u| granularity.unit_name(u).to_owned()).collect(),
                    kind: match p.kind {
                        ErrorKind::Hard => "hard".to_owned(),
                        ErrorKind::Soft => "soft".to_owned(),
                    },
                    table_hit: p.table_hit,
                    trained_jobs: job_count,
                };
                let got = client.call(&predict_line(dsr, label, core)).and_then(|v| answer(&v));
                if got.as_ref() != Ok(&expected) {
                    mismatches += 1;
                }
            }
            report.check(mismatches == 0, || {
                format!("{core}/{label}: {mismatches} of {CHECK_DSRS} answers differ from the offline table")
            });
        }
    }
}

/// Times `f` `n` times, each in its own span; the median in ms.
fn median_ms(name: &'static str, n: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let _span = trace::enter(name, None);
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

fn layer_probes(
    server: &Instance,
    jobs: &[Job],
    training: &[Job],
    log: &PredictLog,
    seed: u64,
    report: &mut Report,
) {
    let mut m: Vec<(&str, f64)> = Vec::new();

    // Per-cycle cost of each core on the kernels its jobs run.
    let step_ns = |names: &[String], lr7: bool| {
        let mut cycles = 0u64;
        let t = Instant::now();
        for name in names {
            let w = Workload::find(name).expect("kernel exists");
            cycles += if lr7 {
                w.golden_run_for::<Lr7>(seed, 400_000)
            } else {
                w.golden_run_for::<Cpu>(seed, 400_000)
            }
            .cycles;
        }
        t.elapsed().as_nanos() as f64 / cycles as f64
    };
    let mut bg_kernels: Vec<String> = jobs.iter().flat_map(|j| j.workloads.clone()).collect();
    bg_kernels.sort();
    bg_kernels.dedup();
    m.push((
        "cpu.lr5_step_ns",
        median(&(0..3).map(|_| step_ns(&training[0].workloads, false)).collect::<Vec<_>>()),
    ));
    m.push((
        "cpu.lr7_step_ns",
        median(&(0..3).map(|_| step_ns(&bg_kernels, true)).collect::<Vec<_>>()),
    ));

    // Shards, archives and merges of one background job.
    let config = jobs[0].spec().campaign_config(1).expect("valid spec");
    let specs = plan_shards(&config, BG_SHARDS as usize);
    let mut run_ms = Vec::new();
    let mut archives = Vec::new();
    for spec in &specs {
        let _span = trace::enter("shard.run", None);
        let t = Instant::now();
        archives.push(run_shard(&config, spec));
        run_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.push(("shard.run_ms", median(&run_ms)));
    let paths: Vec<PathBuf> =
        (0..archives.len()).map(|i| server.dir.join(format!("probe-shard-{i}.json"))).collect();
    let mut save_ms = Vec::new();
    let mut load_ms = Vec::new();
    let mut loaded = Vec::new();
    for _ in 0..3 {
        loaded.clear();
        for (archive, path) in archives.iter().zip(&paths) {
            save_ms
                .push(median_ms("archive.save", 1, || archive.save(path).expect("archive saves")));
            load_ms.push(median_ms("archive.load", 1, || {
                loaded.push(CampaignArchive::load(path).expect("archive loads"))
            }));
        }
    }
    m.push(("archive.save_ms", median(&save_ms)));
    m.push(("archive.load_ms", median(&load_ms)));
    m.push((
        "shard.merge_ms",
        median_ms("shard.merge", 5, || {
            std::hint::black_box(merge_shard_archives(&loaded).expect("shards merge"));
        }),
    ));

    // Protocol parse, idle round trip, cached and retraining predicts.
    let lines: Vec<String> =
        (0..1000u64).map(|i| predict_line(i * 7919, "coarse", "lr7")).collect();
    let parse_us: Vec<f64> = (0..5)
        .map(|_| {
            let _span = trace::enter("proto.parse", None);
            let t = Instant::now();
            for l in &lines {
                std::hint::black_box(Request::parse(l).expect("parses"));
            }
            t.elapsed().as_secs_f64() * 1e6 / lines.len() as f64
        })
        .collect();
    m.push(("proto.parse_us", median(&parse_us)));
    if let Ok(mut client) = Client::connect(server.handle.addr()) {
        // Spaced like the predict load's requests, so each ping finds the
        // reactor idle; back to back, the next ping arrives before it
        // sleeps.
        let interval = Duration::from_secs_f64(1.0 / PREDICT_RATE);
        let ping_ms: Vec<f64> = (0..200)
            .map(|_| {
                std::thread::sleep(interval);
                let _span = trace::enter("server.ping", None);
                let t = Instant::now();
                client.call(r#"{"cmd":"ping"}"#).expect("ping answers");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        m.push(("server.ping_ms", median(&ping_ms)));
    }
    let registry = Arc::new(Registry::open(&server.dir).expect("registry opens"));
    let service = PredictService::new(Arc::clone(&registry), None);
    let mut generation = 1_000u64;
    service.predict(3, Granularity::Coarse, CoreKind::Lr7, 1_000).expect("table trains");
    let mut dsrs = Rng::new(seed, 13);
    let cached: Vec<f64> = (0..1000)
        .map(|_| {
            let _span = trace::enter("predict.cached", None);
            let d = dsrs.dsr();
            let t = Instant::now();
            std::hint::black_box(
                service.predict(d, Granularity::Coarse, CoreKind::Lr7, 1_000).expect("predicts"),
            );
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.push(("predict.cached_us", median(&cached)));
    m.push((
        "predict.retrain_ms",
        median_ms("predict.retrain", 10, || {
            generation += 1;
            std::hint::black_box(
                service
                    .predict(5, Granularity::Coarse, CoreKind::Lr7, generation)
                    .expect("retrains"),
            );
        }),
    ));
    m.push((
        "registry.scan_ms",
        median_ms("registry.scan", 20, || {
            std::hint::black_box(registry.jobs().expect("registry scans"));
        }),
    ));

    // Table training and lookup on the LR7 records the service holds.
    if let Ok((records, _)) = merged_records(&registry, "lr7") {
        let refs: Vec<&ErrorRecord> = records.iter().collect();
        let train = Dataset::to_train_records(&refs, Granularity::Coarse);
        let mut predictor = None;
        m.push((
            "core.train_ms",
            median_ms("core.train", 5, || {
                predictor =
                    Some(Predictor::train(&train, PredictorConfig::new(Granularity::Coarse)));
            }),
        ));
        let predictor = predictor.expect("trained");
        let queries: Vec<Dsr> = (0..10_000).map(|_| Dsr::from_bits(dsrs.dsr())).collect();
        let lookup: Vec<f64> = (0..9)
            .map(|_| {
                let _span = trace::enter("core.lookup", None);
                let t = Instant::now();
                for &q in &queries {
                    std::hint::black_box(predictor.predict(q));
                }
                t.elapsed().as_nanos() as f64 / queries.len() as f64
            })
            .collect();
        m.push(("core.lookup_ns", median(&lookup)));
    }

    m.push(("predict.p90_ms", quantile(&log.latencies_ms, 0.90)));
    m.push(("predict.p99_ms", quantile(&log.latencies_ms, 0.99)));
    m.push(("serve.generator_late_ms", quantile(&log.late_ms, 0.99)));
    m.push(("serve.backlog_max", log.backlog_max as f64));
    m.push(("serve.jobs_done", jobs.len() as f64));
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
    for (name, value) in m {
        report.metric(name, value);
    }
}
