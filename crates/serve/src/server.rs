//! The TCP front-end: blocking I/O with one handler thread per
//! connection, speaking the line-delimited JSON protocol.
//!
//! The accept thread starts a handler per connection (at most
//! [`MAX_CONNECTIONS`]); a handler answers one line before it reads the
//! next, so replies come in request order. Heavy work runs on scheduler
//! workers. Submissions hold one lock across registration and
//! enqueueing, so job ids are monotonic. Shutdown wakes the blocked
//! `accept` with a self-connect (loopback for an unspecified bind); the
//! accept thread then shuts down every connection's read half, so idle
//! handlers see end-of-stream, and joins them. DESIGN.md §11 has the
//! whole protocol.

use std::io::{BufRead, BufReader, ErrorKind as IoErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use lockstep_eval::archive::ARCHIVE_VERSION;
use lockstep_eval::shard::plan_shards;
use lockstep_obs::{Event, EventSink};

use crate::predict::PredictService;
use crate::proto::{
    error_line, error_line_for, JobStatus, PongResponse, Request, RequestError, ShutdownResponse,
    StatusResponse, SubmitResponse,
};
use crate::registry::Registry;
use crate::scheduler::{campaign_runner, Scheduler, SchedulerConfig, ShardRunner};

/// Longest accepted request line, newline excluded; a client exceeding
/// it gets an error line and is disconnected (bounds a handler's
/// buffering).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most connections served at once; one more gets an error line and is
/// closed (bounds the handler threads a client population can start).
pub const MAX_CONNECTIONS: usize = 64;

/// Everything configurable about a service instance.
#[derive(Clone, Default)]
pub struct ServiceConfig {
    /// Scheduler knobs (workers, queue bound, lease timeout, attempts).
    pub scheduler: SchedulerConfig,
    /// Sink for service lifecycle and campaign events.
    pub events: Option<Arc<dyn EventSink>>,
    /// Shard runner override; `None` uses the real campaign engine.
    pub runner: Option<ShardRunner>,
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig").field("scheduler", &self.scheduler).finish_non_exhaustive()
    }
}

/// A running service: accept thread, connection handlers and
/// scheduler, plus the shutdown switch.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound listen address (resolves `:0` requests to the actual
    /// port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the accept thread, the connection handlers and the
    /// scheduler to stop (same effect as the `shutdown` command).
    pub fn shutdown(&self) {
        self.service.stop();
    }

    /// Blocks until the accept thread, every connection handler and
    /// every scheduler thread exit. Clients still holding connections
    /// open do not delay it.
    pub fn join(mut self) {
        if let Some(handle) = self.acceptor.take() {
            handle.join().ok();
        }
        self.service.scheduler.join();
    }
}

/// Starts the campaign service: opens the registry under `data_dir`,
/// requeues unfinished work from previous lifetimes, starts the worker
/// pool, and binds the listener (use port `0` for an ephemeral port).
///
/// # Errors
///
/// Returns the filesystem or socket error if the data directory or
/// listener cannot be set up.
pub fn serve(addr: &str, data_dir: &Path, config: ServiceConfig) -> std::io::Result<ServerHandle> {
    let registry = Arc::new(Registry::open(data_dir)?);
    let listener = bind(addr)?;
    let local = listener.local_addr()?;
    let runner = config.runner.clone().unwrap_or_else(|| campaign_runner(config.events.clone()));
    let scheduler = Scheduler::start(
        config.scheduler.clone(),
        Arc::clone(&registry),
        runner,
        config.events.clone(),
    );
    scheduler.resume();
    let predict = PredictService::new(Arc::clone(&registry), config.events.clone());
    let service = Arc::new(Service {
        registry,
        scheduler,
        predict,
        events: config.events,
        stopping: AtomicBool::new(false),
        submit_lock: Mutex::new(()),
        wake_addr: wake_addr(local),
    });
    let acceptor = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || accept_loop(&listener, &service))
    };
    Ok(ServerHandle { addr: local, service, acceptor: Some(acceptor) })
}

fn bind(addr: &str) -> std::io::Result<TcpListener> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| std::io::Error::new(IoErrorKind::InvalidInput, format!("{addr}: {e}")))?
        .collect();
    TcpListener::bind(&addrs[..])
}

/// Where a self-connect reaches the listener bound at `addr`: loopback
/// for an unspecified bind, else the address itself.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        let ip =
            if addr.is_ipv4() { Ipv4Addr::LOCALHOST.into() } else { Ipv6Addr::LOCALHOST.into() };
        addr.set_ip(ip);
    }
    addr
}

/// Request-handling state shared by every connection handler.
struct Service {
    registry: Arc<Registry>,
    scheduler: Arc<Scheduler>,
    predict: PredictService,
    events: Option<Arc<dyn EventSink>>,
    stopping: AtomicBool,
    /// Held across job registration and enqueueing: the registry picks
    /// the next id from a directory scan.
    submit_lock: Mutex<()>,
    wake_addr: SocketAddr,
}

impl Service {
    /// Stops the scheduler and wakes the accept thread, which then
    /// closes every connection's read half.
    fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.scheduler.shutdown();
        TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1)).ok();
    }

    /// Handles one request line, returning one response line (without
    /// the trailing newline).
    fn handle(&self, line: &str) -> String {
        match Request::parse(line) {
            Err(e) => error_line_for(&e),
            Ok(Request::Ping) => to_line(&PongResponse {
                ok: true,
                service: "lockstep-serve".to_owned(),
                archive_version: u64::from(ARCHIVE_VERSION),
            }),
            Ok(Request::Submit(spec)) => match self.submit(spec) {
                Ok(response) => to_line(&response),
                Err(e) => error_line_for(&e),
            },
            Ok(Request::Status { job }) => match self.status(job.as_deref()) {
                Ok(response) => to_line(&response),
                Err(e) => error_line_for(&e),
            },
            Ok(Request::Predict { dsr, granularity, core }) => {
                match self.predict.predict(dsr, granularity, core, self.scheduler.generation()) {
                    Ok(response) => to_line(&response),
                    Err(e) => error_line(&e),
                }
            }
            Ok(Request::Shutdown) => {
                self.stop();
                to_line(&ShutdownResponse { ok: true, stopping: true })
            }
        }
    }

    fn submit(&self, spec: crate::proto::JobSpec) -> Result<SubmitResponse, RequestError> {
        let config = spec.campaign_config()?;
        let specs = plan_shards(&config, spec.shards as usize);
        let registering = self.submit_lock.lock().expect("no poisoned submit lock");
        let job = self
            .registry
            .create_job(&spec, specs.len() as u64)
            .map_err(|e| RequestError::new("internal", format!("job registration failed: {e}")))?;
        self.scheduler
            .submit(&job, &specs, true)
            .inspect_err(|_| {
                // The job never entered the queue; mark it so a restart
                // does not resurrect work the client was told was rejected.
                self.registry.mark_failed(&job.id, "rejected: queue full at submit");
            })
            .map_err(|e| RequestError::new("queue_full", e))?;
        drop(registering);
        if let Some(sink) = &self.events {
            sink.emit(&Event::JobSubmitted {
                job: job.id.clone(),
                shards: job.shards,
                faults: spec.total_faults(),
            });
        }
        Ok(SubmitResponse {
            ok: true,
            job: job.id,
            shards: specs.len() as u64,
            faults: spec.total_faults(),
        })
    }

    fn status(&self, only: Option<&str>) -> Result<StatusResponse, RequestError> {
        let jobs = match only {
            Some(id) => {
                vec![self.registry.job(id).ok_or_else(|| {
                    RequestError::new("unknown_job", format!("unknown job `{id}`"))
                })?]
            }
            None => self
                .registry
                .jobs()
                .map_err(|e| RequestError::new("internal", format!("registry scan failed: {e}")))?,
        };
        let mut statuses = Vec::with_capacity(jobs.len());
        for job in jobs {
            let done = self.registry.completed_shards(&job.id).len() as u64;
            let failure = self.registry.failure(&job.id);
            let complete = failure.is_none() && done >= job.shards;
            let records = if complete { self.predict.job_records(&job.id).unwrap_or(0) } else { 0 };
            statuses.push(JobStatus {
                job: job.id.clone(),
                state: if failure.is_some() {
                    "failed".to_owned()
                } else if complete {
                    "done".to_owned()
                } else {
                    "running".to_owned()
                },
                shards_done: done,
                shards_total: job.shards,
                injected: job.spec.total_faults(),
                records,
                error: failure.unwrap_or_default(),
            });
        }
        Ok(StatusResponse {
            ok: true,
            queued_shards: self.scheduler.queued_shards() as u64,
            jobs: statuses,
        })
    }
}

fn to_line<T: serde::Serialize>(response: &T) -> String {
    serde_json::to_string(response).expect("responses serialize")
}

/// Accepts connections until the service stops, one handler thread
/// each, then ends every handler's read side and joins them.
fn accept_loop(listener: &TcpListener, service: &Arc<Service>) {
    let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    for stream in listener.incoming() {
        if service.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            // Back off instead of spinning on e.g. descriptor exhaustion.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        // The clone stays here so shutdown can end the handler's reads.
        let Ok(peer) = stream.try_clone() else { continue };
        conns.retain(|(_, handler)| !handler.is_finished());
        let spawned = if conns.len() < MAX_CONNECTIONS {
            let service = Arc::clone(service);
            std::thread::Builder::new().spawn(move || {
                serve_connection(&stream, &service);
                // The accept thread's clone would keep it open.
                stream.shutdown(Shutdown::Both).ok();
            })
        } else {
            Err(std::io::Error::other(format!("too many connections (limit {MAX_CONNECTIONS})")))
        };
        match spawned {
            Ok(handler) => conns.push((peer, handler)),
            Err(e) => {
                (&peer).write_all(format!("{}\n", error_line(&e.to_string())).as_bytes()).ok();
            }
        }
    }
    for (stream, _) in &conns {
        stream.shutdown(Shutdown::Read).ok();
    }
    for (_, handler) in conns {
        handler.join().ok();
    }
}

/// Answers one connection's request lines in order until the client
/// closes it, sends an over-long line, or the service stops.
fn serve_connection(mut stream: &TcpStream, service: &Service) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap tells an over-long line from one that
        // fits exactly.
        match (&mut reader).take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) if line.pop_if(|b| *b == b'\n').is_some() => {}
            // Over the cap: say so and close. Cut off mid-line: close.
            Ok(_) => {
                if line.len() > MAX_LINE_BYTES {
                    let reply = error_line("request line too long");
                    stream.write_all(format!("{reply}\n").as_bytes()).ok();
                }
                return;
            }
        }
        let text = String::from_utf8_lossy(&line);
        if text.trim().is_empty() {
            continue;
        }
        let reply = service.handle(text.trim());
        if stream.write_all(format!("{reply}\n").as_bytes()).is_err() {
            return;
        }
    }
}
