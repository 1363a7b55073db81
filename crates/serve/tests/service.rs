//! End-to-end service tests, each against a real TCP server on an
//! ephemeral port: the full submit → shard → merge → predict loop, the
//! restart-resume path, every graceful-degradation contract
//! (backpressure, lease timeout requeue, retry-then-fail), and the
//! connection edge cases (line and nesting caps, connection cap,
//! concurrent submits, shutdown with clients still connected), and the
//! spec resource limits.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lockstep_core::{Dsr, ErrorRecord, Predictor, PredictorConfig};
use lockstep_cpu::Granularity;
use lockstep_eval::archive::{CampaignArchive, GoldenRunRepr, ARCHIVE_VERSION};
use lockstep_eval::campaign::{run_campaign, CampaignStats};
use lockstep_eval::dataset::Dataset;
use lockstep_eval::shard::{merge_shard_archives, plan_shards, run_shard};
use lockstep_eval::spec::{CampaignSpec, MAX_TOTAL_FAULTS};
use lockstep_fault::ErrorKind;
use lockstep_obs::{Event, EventSink, MemorySink};
use lockstep_serve::proto::{PredictResponse, ShutdownResponse, StatusResponse, SubmitResponse};
use lockstep_serve::server::{MAX_CONNECTIONS, MAX_LINE_BYTES};
use lockstep_serve::{serve, JobSpec, Registry, SchedulerConfig, ServerHandle, ServiceConfig};
use serde::json::Value;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lockstep_serve_test_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn small_spec() -> JobSpec {
    JobSpec {
        campaign: CampaignSpec {
            workloads: vec!["rspeed".to_owned(), "idctrn".to_owned()],
            faults_per_workload: 30,
            seed: 77,
            replay_mode: "shadow".to_owned(),
            batch_mode: "full".to_owned(),
            core: "lr5".to_owned(),
            redundancy: "fixed".to_owned(),
        },
        shards: 5,
    }
}

/// `small_spec` with a different seed and shard count.
fn seeded_spec(seed: u64, shards: u64) -> JobSpec {
    let mut spec = small_spec();
    spec.campaign.seed = seed;
    spec.shards = shards;
    spec
}

/// A persistent protocol connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client { reader: BufReader::new(stream.try_clone().expect("clone")), writer: stream }
    }

    /// The next response line without its newline; empty at end of
    /// stream.
    fn recv(&mut self) -> String {
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("receive");
        response.trim_end().to_owned()
    }

    fn call(&mut self, line: &str) -> String {
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("send");
        self.recv()
    }
}

/// One request, one response, one connection.
fn send(handle: &ServerHandle, line: &str) -> String {
    Client::connect(handle.addr()).call(line)
}

fn is_ok(response: &str) -> bool {
    Value::parse(response).unwrap().field("ok").unwrap().as_bool().unwrap()
}

/// The `(code, error)` of a refusal.
fn refusal(response: &str) -> (String, String) {
    let value = Value::parse(response).unwrap();
    assert!(!value.field("ok").unwrap().as_bool().unwrap(), "expected a refusal: {response}");
    let text = |k: &str| value.field(k).unwrap().as_str().unwrap().to_owned();
    (text("code"), text("error"))
}

/// Joins `handle` on a helper thread; `false` if that takes longer
/// than `limit` (the test then fails instead of hanging).
fn joins_within(handle: ServerHandle, limit: Duration) -> bool {
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        done.send(()).ok();
    });
    joined.recv_timeout(limit).is_ok()
}

/// A server on `addr` with no shard workers: submits queue but never
/// run.
fn idle_server(addr: &str, tag: &str) -> (ServerHandle, PathBuf) {
    let dir = temp_dir(tag);
    let config = ServiceConfig {
        scheduler: SchedulerConfig { workers: 0, ..SchedulerConfig::default() },
        ..ServiceConfig::default()
    };
    (serve(addr, &dir, config).expect("server starts"), dir)
}

fn send_ok<T: serde::Deserialize>(handle: &ServerHandle, line: &str) -> T {
    let response = send(handle, line);
    assert!(is_ok(&response), "server refused `{line}`: {response}");
    serde_json::from_str(&response)
        .unwrap_or_else(|e| panic!("unexpected response `{response}`: {e}"))
}

fn submit_line(spec: &JobSpec) -> String {
    let mut body = serde_json::to_string(spec).expect("spec serializes");
    body.replace_range(0..1, r#"{"cmd":"submit","#);
    body
}

/// Polls until the job leaves `"running"`, returning its final state.
fn wait_for(
    handle: &ServerHandle,
    job: &str,
    timeout: Duration,
) -> lockstep_serve::proto::JobStatus {
    let deadline = Instant::now() + timeout;
    loop {
        let status: StatusResponse =
            send_ok(handle, &format!(r#"{{"cmd":"status","job":"{job}"}}"#));
        let job_status = status.jobs.into_iter().next().expect("job listed");
        if job_status.state != "running" || Instant::now() >= deadline {
            return job_status;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Serialized archive with throughput stats normalized out, the
/// byte-identity convention of the eval test suite.
fn archive_bytes(mut archive: CampaignArchive) -> String {
    archive.stats = CampaignStats::default();
    serde_json::to_string(&archive).expect("archive serializes")
}

/// A structurally valid, instantly produced shard archive for
/// scheduler behavior tests that do not need real campaign data. It
/// carries honest shard provenance so sibling shards still merge.
fn dummy_archive(spec: &JobSpec, shard: &lockstep_eval::shard::ShardSpec) -> CampaignArchive {
    let config = spec.campaign_config().expect("valid spec");
    let golden = config
        .workloads
        .iter()
        .map(|w| {
            let g = GoldenRunRepr { cycles: 1000, output_checksum: 0, instructions: 500 };
            (w.name.to_owned(), g)
        })
        .collect();
    CampaignArchive {
        version: ARCHIVE_VERSION,
        records: Vec::new(),
        injected: 0,
        injected_per_unit: vec![[0u64; 2]; 13],
        golden,
        stats: CampaignStats::default(),
        traces: Vec::new(),
        fuzz: Vec::new(),
        shard: Some(lockstep_eval::shard::ShardRepr::new(&config, shard)),
        lc: None,
    }
}

fn event_kinds(sink: &MemorySink) -> Vec<&'static str> {
    sink.events().iter().map(Event::kind).collect()
}

/// The tentpole contract end to end: a submitted job completes and the
/// prediction endpoint answers **exactly** like the offline-trained
/// table, for every DSR the campaign manifested, at both granularities,
/// plus a guaranteed table miss.
#[test]
fn submitted_job_completes_and_predictions_match_offline() {
    let dir = temp_dir("predict");
    let sink = Arc::new(MemorySink::new());
    let config = ServiceConfig {
        scheduler: SchedulerConfig { workers: 3, ..SchedulerConfig::default() },
        events: Some(sink.clone() as Arc<dyn EventSink>),
        runner: None,
    };
    let handle = serve("127.0.0.1:0", &dir, config).expect("server starts");

    let spec = small_spec();
    let submitted: SubmitResponse = send_ok(&handle, &submit_line(&spec));
    assert_eq!(submitted.job, "job-000001");
    assert_eq!(submitted.shards, 5);
    assert_eq!(submitted.faults, 60);

    let status = wait_for(&handle, &submitted.job, Duration::from_secs(300));
    assert_eq!(status.state, "done", "job must complete: {status:?}");
    assert_eq!(status.shards_done, 5);

    // Offline reference: identical campaign, identical training call.
    let mut campaign = spec.campaign_config().unwrap();
    campaign.threads = 4;
    let result = run_campaign(&campaign);
    assert_eq!(status.records, result.records.len() as u64, "service merged the same records");

    for granularity in [Granularity::Coarse, Granularity::Fine] {
        let records: Vec<&ErrorRecord> = result.records.iter().collect();
        let train = Dataset::to_train_records(&records, granularity);
        let offline = Predictor::train(&train, PredictorConfig::new(granularity));
        let mut dsrs: Vec<u64> = result.records.iter().map(|r| r.dsr.bits()).collect();
        dsrs.sort_unstable();
        dsrs.dedup();
        assert!(!dsrs.is_empty());
        let miss = (0..u64::MAX).find(|b| dsrs.binary_search(b).is_err()).unwrap();
        dsrs.push(miss);
        let label = lockstep_serve::proto::granularity_label(granularity);
        for &bits in &dsrs {
            let expected = offline.predict(Dsr::from_bits(bits));
            let got: PredictResponse = send_ok(
                &handle,
                &format!(r#"{{"cmd":"predict","dsr":"{bits:#x}","granularity":"{label}"}}"#),
            );
            let expected_order: Vec<String> =
                expected.order.iter().map(|&u| granularity.unit_name(u).to_owned()).collect();
            assert_eq!(got.order, expected_order, "dsr {bits:016x} ({label})");
            assert_eq!(
                got.kind,
                match expected.kind {
                    ErrorKind::Hard => "hard",
                    ErrorKind::Soft => "soft",
                },
                "dsr {bits:016x} ({label})"
            );
            assert_eq!(got.table_hit, expected.table_hit, "dsr {bits:016x} ({label})");
            assert_eq!(got.trained_jobs, 1);
            assert_eq!(got.trained_records, result.records.len() as u64);
        }
    }

    // The obs sink saw the whole job lifecycle.
    let kinds = event_kinds(&sink);
    for expected in
        ["job_submitted", "shard_leased", "shard_completed", "job_completed", "prediction_served"]
    {
        assert!(kinds.contains(&expected), "missing `{expected}` in {kinds:?}");
    }

    send_ok::<lockstep_serve::proto::ShutdownResponse>(&handle, r#"{"cmd":"shutdown"}"#);
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A server killed mid-job resumes from the registry: whatever shard
/// archives reached disk are kept, the rest are requeued, and the
/// merged result is byte-identical to the uninterrupted single-shot
/// campaign.
#[test]
fn restarted_server_resumes_incomplete_jobs() {
    let dir = temp_dir("resume");
    let mut spec = seeded_spec(11, 6);
    spec.campaign.faults_per_workload = 24;
    let campaign = spec.campaign_config().unwrap();
    let specs = plan_shards(&campaign, 6);

    // Lifetime 1: register the job and complete two shards, then die
    // (drop everything; only the data directory survives).
    {
        let registry = Registry::open(&dir).expect("registry opens");
        let job = registry.create_job(&spec, specs.len() as u64).expect("job registers");
        assert_eq!(job.id, "job-000001");
        for shard_spec in &specs[..2] {
            let archive = run_shard(&campaign, shard_spec);
            assert!(registry.complete_shard(&job.id, shard_spec.index, &archive).unwrap());
        }
    }

    // Lifetime 2: a fresh server on the same data directory finishes
    // the job without being asked.
    let handle = serve(
        "127.0.0.1:0",
        &dir,
        ServiceConfig {
            scheduler: SchedulerConfig { workers: 2, ..SchedulerConfig::default() },
            ..ServiceConfig::default()
        },
    )
    .expect("server restarts");
    let status = wait_for(&handle, "job-000001", Duration::from_secs(300));
    assert_eq!(status.state, "done", "resumed job must complete: {status:?}");

    let registry = Registry::open(&dir).unwrap();
    let merged = merge_shard_archives(&registry.load_completed("job-000001").unwrap()).unwrap();
    let mut single_config = spec.campaign_config().unwrap();
    single_config.threads = 4;
    let single = CampaignArchive::from_result(&run_campaign(&single_config));
    assert_eq!(
        archive_bytes(merged),
        archive_bytes(single),
        "resumed merge must be byte-identical to the uninterrupted campaign"
    );

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The bounded queue rejects submits it cannot hold instead of
/// accepting work it would starve.
#[test]
fn full_queue_rejects_new_jobs_with_backpressure() {
    let dir = temp_dir("backpressure");
    let handle = serve(
        "127.0.0.1:0",
        &dir,
        ServiceConfig {
            scheduler: SchedulerConfig {
                workers: 0, // nothing drains the queue
                queue_capacity: 4,
                ..SchedulerConfig::default()
            },
            ..ServiceConfig::default()
        },
    )
    .expect("server starts");

    let spec = seeded_spec(77, 4);
    let first: SubmitResponse = send_ok(&handle, &submit_line(&spec));
    assert_eq!(first.shards, 4);

    let refused = send(&handle, &submit_line(&spec));
    let value = Value::parse(&refused).unwrap();
    assert!(!value.field("ok").unwrap().as_bool().unwrap());
    let error = value.field("error").unwrap().as_str().unwrap().to_owned();
    assert!(error.contains("queue full"), "want backpressure error, got `{error}`");

    // The rejected job is marked failed, not left to resurrect on
    // restart.
    let status = wait_for(&handle, "job-000002", Duration::from_secs(5));
    assert_eq!(status.state, "failed");
    assert!(status.error.contains("queue full"));

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard that overruns its lease is requeued by the watchdog and
/// completed by another attempt; the late original is dropped by
/// first-writer-wins (shard reruns are byte-identical, so either
/// archive is the right one).
#[test]
fn timed_out_shards_are_requeued_and_the_job_still_completes() {
    let dir = temp_dir("timeout");
    let sink = Arc::new(MemorySink::new());
    let slow_done = Arc::new(AtomicBool::new(false));
    let slow_flag = Arc::clone(&slow_done);
    let handle = serve(
        "127.0.0.1:0",
        &dir,
        ServiceConfig {
            scheduler: SchedulerConfig {
                workers: 2,
                shard_timeout: Duration::from_millis(100),
                ..SchedulerConfig::default()
            },
            events: Some(sink.clone() as Arc<dyn EventSink>),
            runner: Some(Arc::new(move |spec, shard| {
                // First lease of shard 0 sleeps well past its lease.
                if shard.index == 0 && !slow_flag.swap(true, Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(400));
                }
                dummy_archive(spec, shard)
            })),
        },
    )
    .expect("server starts");

    let spec = seeded_spec(77, 3);
    let submitted: SubmitResponse = send_ok(&handle, &submit_line(&spec));
    let status = wait_for(&handle, &submitted.job, Duration::from_secs(60));
    assert_eq!(status.state, "done", "{status:?}");
    assert_eq!(status.shards_done, 3);

    let requeued = sink
        .events()
        .iter()
        .any(|e| matches!(e, Event::ShardRequeued { shard: 0, reason, .. } if reason == "timeout"));
    assert!(requeued, "watchdog must requeue the overrunning shard: {:?}", event_kinds(&sink));

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard that keeps panicking fails its job after the attempt limit
/// with the panic message on record — and the service keeps serving
/// other jobs.
#[test]
fn repeatedly_panicking_shard_fails_its_job_but_not_the_service() {
    let dir = temp_dir("panic");
    let sink = Arc::new(MemorySink::new());
    let handle = serve(
        "127.0.0.1:0",
        &dir,
        ServiceConfig {
            scheduler: SchedulerConfig {
                workers: 2,
                max_attempts: 2,
                ..SchedulerConfig::default()
            },
            events: Some(sink.clone() as Arc<dyn EventSink>),
            runner: Some(Arc::new(|spec, shard| {
                // Seed 13 marks the poisoned job; its shard 1 always dies.
                if spec.campaign.seed == 13 && shard.index == 1 {
                    panic!("injected shard failure");
                }
                dummy_archive(spec, shard)
            })),
        },
    )
    .expect("server starts");

    let poisoned: SubmitResponse = send_ok(&handle, &submit_line(&seeded_spec(13, 3)));
    let status = wait_for(&handle, &poisoned.job, Duration::from_secs(60));
    assert_eq!(status.state, "failed", "{status:?}");
    assert!(status.error.contains("injected shard failure"), "error: {}", status.error);
    assert!(status.error.contains("after 2 attempts"), "error: {}", status.error);
    let kinds = event_kinds(&sink);
    assert!(kinds.contains(&"shard_requeued"), "first attempt requeues: {kinds:?}");
    assert!(kinds.contains(&"job_failed"), "second attempt fails the job: {kinds:?}");

    // The service is still healthy for the next job.
    let healthy: SubmitResponse = send_ok(&handle, &submit_line(&seeded_spec(14, 3)));
    let status = wait_for(&handle, &healthy.job, Duration::from_secs(60));
    assert_eq!(status.state, "done", "{status:?}");

    // Dummy archives carry no records, so the predictor has nothing to
    // train on — the endpoint degrades with an error, not a panic.
    let refused = send(&handle, r#"{"cmd":"predict","dsr":"0x1"}"#);
    let value = Value::parse(&refused).unwrap();
    assert!(!value.field("ok").unwrap().as_bool().unwrap());
    let predict_error = value.field("error").unwrap().as_str().unwrap().to_owned();
    assert!(predict_error.contains("no trained table"), "got `{predict_error}`");

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Protocol robustness on one persistent connection: bad requests get
/// error lines, good requests still work afterwards, and a request
/// split across TCP writes is reassembled.
#[test]
fn malformed_requests_get_error_lines_and_the_connection_survives() {
    let dir = temp_dir("proto");
    let handle = serve(
        "127.0.0.1:0",
        &dir,
        ServiceConfig {
            scheduler: SchedulerConfig { workers: 0, ..SchedulerConfig::default() },
            ..ServiceConfig::default()
        },
    )
    .expect("server starts");

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |line: &str| -> Value {
        writer.write_all(format!("{line}\n").as_bytes()).expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("receive");
        Value::parse(response.trim_end()).expect("response parses")
    };

    for (bad, code) in [
        ("this is not json", "bad_request"),
        (r#"{"cmd":"warp"}"#, "unknown_command"),
        (r#"{"no_cmd":true}"#, "bad_request"),
        (
            r#"{"cmd":"submit","workloads":["not_a_workload"],"faults_per_workload":5}"#,
            "unknown_workload",
        ),
        (
            r#"{"cmd":"submit","workloads":["lc:not_a_kernel"],"faults_per_workload":5}"#,
            "unknown_workload",
        ),
        (r#"{"cmd":"status","job":"job-999999"}"#, "unknown_job"),
        (r#"{"cmd":"predict","dsr":"0x1"}"#, "error"),
        (r#"{"cmd":"predict","dsr":"0x1","core":"lr9"}"#, "unknown_core"),
    ] {
        let value = roundtrip(bad);
        assert!(!value.field("ok").unwrap().as_bool().unwrap(), "`{bad}` must be refused");
        assert!(!value.field("error").unwrap().as_str().unwrap().is_empty());
        assert_eq!(value.field("code").unwrap().as_str().unwrap(), code, "for `{bad}`");
    }

    // An unknown core model is a typed refusal naming the offender —
    // and like every refusal, it does not poison the connection.
    let refused = roundtrip(
        r#"{"cmd":"submit","workloads":["rspeed"],"faults_per_workload":5,"core":"lr9"}"#,
    );
    assert!(!refused.field("ok").unwrap().as_bool().unwrap());
    assert_eq!(refused.field("code").unwrap().as_str().unwrap(), "unknown_core");
    assert!(refused.field("error").unwrap().as_str().unwrap().contains("lr9"));

    // Same connection still serves good requests...
    let pong = roundtrip(r#"{"cmd":"ping"}"#);
    assert!(pong.field("ok").unwrap().as_bool().unwrap());
    assert_eq!(pong.field("service").unwrap().as_str().unwrap(), "lockstep-serve");

    // ...including one dribbled in across two TCP writes.
    writer.write_all(br#"{"cmd":"#).expect("send head");
    writer.flush().ok();
    std::thread::sleep(Duration::from_millis(30));
    writer.write_all(b"\"ping\"}\n").expect("send tail");
    let mut response = String::new();
    reader.read_line(&mut response).expect("receive");
    assert!(Value::parse(response.trim_end()).unwrap().field("ok").unwrap().as_bool().unwrap());

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Submits from several connections at once still get distinct,
/// contiguous job ids, each registered with its own spec.
#[test]
fn concurrent_submits_get_distinct_contiguous_job_ids() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10;
    let (handle, dir) = idle_server("127.0.0.1:0", "concurrent_submits");
    let start = std::sync::Barrier::new(THREADS as usize);
    let mut submitted: Vec<(String, u64)> = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..THREADS)
            .map(|t| {
                let (handle, start) = (&handle, &start);
                scope.spawn(move || {
                    start.wait();
                    (0..PER_THREAD)
                        .map(|i| {
                            let seed = 1000 + t * PER_THREAD + i;
                            let line = submit_line(&seeded_spec(seed, 2));
                            (send_ok::<SubmitResponse>(handle, &line).job, seed)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        submitters.into_iter().flat_map(|s| s.join().expect("submitter")).collect()
    });
    submitted.sort();
    let ids: Vec<&str> = submitted.iter().map(|(id, _)| id.as_str()).collect();
    let expected: Vec<String> = (1..=THREADS * PER_THREAD).map(|n| format!("job-{n:06}")).collect();
    assert_eq!(ids, expected);

    // No submit overwrote another's record.
    let registry = Registry::open(&dir).unwrap();
    for (id, seed) in &submitted {
        assert_eq!(registry.job(id).expect("job registered").spec.campaign.seed, *seed, "{id}");
    }

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A request nested far deeper than the parser allows is a typed
/// `bad_request`, not a stack overflow that takes the daemon down.
#[test]
fn deeply_nested_request_is_a_bad_request_and_the_server_survives() {
    let (handle, dir) = idle_server("127.0.0.1:0", "nesting");
    let mut client = Client::connect(handle.addr());
    let (code, error) = refusal(&client.call(&"[".repeat(200_000)));
    assert_eq!(code, "bad_request");
    assert!(error.contains("nesting"), "{error}");
    assert!(is_ok(&client.call(r#"{"cmd":"ping"}"#)));
    assert!(is_ok(&send(&handle, r#"{"cmd":"ping"}"#)));

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A submit whose fault count passes the checked multiply but exceeds
/// `MAX_TOTAL_FAULTS` is refused with `too_many_faults` before any fault
/// or shard plan is sized from it, and the server keeps answering. A
/// job right at the cap is still accepted.
#[test]
fn oversized_fault_count_is_refused_and_the_server_survives() {
    let (handle, dir) = idle_server("127.0.0.1:0", "fault_cap");
    let mut client = Client::connect(handle.addr());
    let (code, error) = refusal(&client.call(
        r#"{"cmd":"submit","workloads":["rspeed","idctrn"],"faults_per_workload":1000000000000,"shards":4294967296}"#,
    ));
    assert_eq!(code, "too_many_faults");
    assert!(error.contains(&MAX_TOTAL_FAULTS.to_string()), "{error}");
    assert!(is_ok(&client.call(r#"{"cmd":"ping"}"#)));

    let at_cap = format!(
        r#"{{"cmd":"submit","workloads":["rspeed","idctrn"],"faults_per_workload":{}}}"#,
        MAX_TOTAL_FAULTS / 2
    );
    let accepted: SubmitResponse = send_ok(&handle, &at_cap);
    assert_eq!(accepted.faults, MAX_TOTAL_FAULTS);
    assert!(is_ok(&send(&handle, r#"{"cmd":"ping"}"#)));

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A line over the cap gets one error line, then the connection
/// closes.
#[test]
fn over_long_request_line_gets_an_error_then_the_connection_closes() {
    let (handle, dir) = idle_server("127.0.0.1:0", "long_line");
    let mut client = Client::connect(handle.addr());
    // Exactly one byte over, with no newline: the server reads all of
    // it, so it closes cleanly instead of resetting the connection.
    client.writer.write_all(&vec![b'a'; MAX_LINE_BYTES + 1]).expect("send");
    let (_, error) = refusal(&client.recv());
    assert_eq!(error, "request line too long");
    assert_eq!(client.recv(), "", "the connection must close after the error");
    assert!(is_ok(&send(&handle, r#"{"cmd":"ping"}"#)));

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// One connection over the cap is refused with an error line and
/// closed; the connections under it keep working, and closing one of
/// them frees its slot.
#[test]
fn connections_over_the_cap_are_refused_and_the_rest_still_work() {
    let (handle, dir) = idle_server("127.0.0.1:0", "conn_cap");
    let ping = r#"{"cmd":"ping"}"#;
    // A reply proves the server accepted the connection, so the one
    // over the cap is accepted last.
    let mut held: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut client = Client::connect(handle.addr());
            assert!(is_ok(&client.call(ping)));
            client
        })
        .collect();

    let mut extra = Client::connect(handle.addr());
    let (_, error) = refusal(&extra.recv());
    assert!(error.contains("too many connections"), "{error}");
    assert_eq!(extra.recv(), "", "the refused connection must close");

    for client in &mut held {
        assert!(is_ok(&client.call(ping)));
    }

    // The freed slot is reaped on a later accept; the handler may take
    // a moment to notice the close, so retry briefly.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let mut client = Client::connect(handle.addr());
        client.writer.write_all(format!("{ping}\n").as_bytes()).expect("send");
        if is_ok(&client.recv()) {
            break;
        }
        assert!(Instant::now() < deadline, "a closed connection's slot was never freed");
        std::thread::sleep(Duration::from_millis(20));
    }

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The reply to `shutdown` reaches the client before its connection
/// closes, and `join` returns while another client is idle mid-line.
#[test]
fn shutdown_reply_arrives_and_join_ignores_a_half_sent_line() {
    let (handle, dir) = idle_server("127.0.0.1:0", "shutdown");
    let mut idle = Client::connect(handle.addr());
    assert!(is_ok(&idle.call(r#"{"cmd":"ping"}"#)));
    idle.writer.write_all(br#"{"cmd":"pi"#).expect("send half a line");
    std::thread::sleep(Duration::from_millis(50));

    let mut stopper = Client::connect(handle.addr());
    let reply: ShutdownResponse =
        serde_json::from_str(&stopper.call(r#"{"cmd":"shutdown"}"#)).expect("shutdown reply");
    assert!(reply.ok && reply.stopping);
    assert!(joins_within(handle, Duration::from_secs(2)), "join blocked on an idle client");
    assert_eq!(stopper.recv(), "");
    assert_eq!(idle.recv(), "", "the half-sent line is dropped, not answered");
    std::fs::remove_dir_all(&dir).ok();
}

/// A server bound to the unspecified address wakes its own `accept`
/// through loopback and shuts down cleanly.
#[test]
fn server_bound_to_unspecified_address_shuts_down() {
    let (handle, dir) = idle_server("0.0.0.0:0", "unspecified");
    assert!(handle.addr().ip().is_unspecified());
    let loopback = SocketAddr::from(([127, 0, 0, 1], handle.addr().port()));
    assert!(is_ok(&Client::connect(loopback).call(r#"{"cmd":"ping"}"#)));

    handle.shutdown();
    assert!(joins_within(handle, Duration::from_secs(2)), "accept was never woken");
    std::fs::remove_dir_all(&dir).ok();
}
