//! End-to-end tests of `julie serve`: submission, streaming status,
//! admission control, cancellation, the results cache, and the headline
//! robustness invariants — SIGKILL-restart recovery to byte-identical
//! verdicts, and SIGTERM draining to checkpoints.
//!
//! All HTTP is done over raw `TcpStream`s; the wire protocol is plain
//! HTTP/1.1 with `Connection: close` semantics.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("julie-serve-{label}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Server {
    child: Child,
    port: u16,
    reader: BufReader<ChildStdout>,
    startup: Vec<String>,
}

impl Server {
    /// Spawns `julie serve` over `data_dir` and waits for its listening
    /// line to learn the bound port.
    fn start(data_dir: &Path, extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_julie"))
            .arg("serve")
            .arg(format!("--data-dir={}", data_dir.display()))
            .arg("--addr=127.0.0.1:0")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("server spawns");
        let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut startup = Vec::new();
        let port = loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("server stdout readable") == 0 {
                panic!("server exited before listening; startup: {startup:?}");
            }
            let line = line.trim().to_string();
            if let Some(addr) = line.strip_prefix("listening on ") {
                let port: u16 = addr.rsplit(':').next().unwrap().parse().unwrap();
                startup.push(line);
                break port;
            }
            startup.push(line);
        };
        Server {
            child,
            port,
            reader,
            startup,
        }
    }

    fn kill(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }

    /// Sends SIGTERM and collects (exit status, remaining stdout).
    fn sigterm_and_wait(mut self, within: Duration) -> (bool, String) {
        let pid = self.child.id();
        let ok = Command::new("sh")
            .arg("-c")
            .arg(format!("kill {pid}"))
            .status()
            .expect("kill runs")
            .success();
        assert!(ok, "SIGTERM delivered");
        let deadline = Instant::now() + within;
        loop {
            if let Some(status) = self.child.try_wait().expect("waitable") {
                let mut rest = String::new();
                self.reader.read_to_string(&mut rest).ok();
                return (status.success(), rest);
            }
            assert!(
                Instant::now() < deadline,
                "server did not exit after SIGTERM"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// One full request/response over a fresh connection.
fn request(port: u16, method: &str, path: &str, body: Option<&str>) -> (u16, String, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connects");
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response readable");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("response has a head");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let payload = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        dechunk(payload)
    } else {
        payload.to_string()
    };
    (status, head.to_string(), payload)
}

/// Decodes a chunked body (the wait endpoint) into its concatenated
/// payload.
fn dechunk(raw: &str) -> String {
    let mut out = String::new();
    let mut rest = raw;
    while let Some((size_line, tail)) = rest.split_once("\r\n") {
        let size = usize::from_str_radix(size_line.trim(), 16).unwrap_or(0);
        if size == 0 {
            break;
        }
        out.push_str(&tail[..size.min(tail.len())]);
        rest = tail.get(size + 2..).unwrap_or("");
    }
    out
}

/// Minimal JSON string-field extractor for wire assertions.
fn field_str(doc: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = doc.find(&pat)? + pat.len();
    let end = doc[start..].find('"')?;
    Some(doc[start..start + end].to_string())
}

fn json_escape(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
        .replace('\t', "\\t")
}

/// Submits a job and returns its id.
fn submit(port: u16, net: &str, fields: &str) -> String {
    let body = format!("{{\"net\":\"{}\"{fields}}}", json_escape(net));
    let (status, _, payload) = request(port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 202, "submission accepted: {payload}");
    field_str(&payload, "id").expect("submission returns an id")
}

fn status_doc(port: u16, id: &str) -> String {
    let (status, _, payload) = request(port, "GET", &format!("/jobs/{id}"), None);
    assert_eq!(status, 200, "status for {id}: {payload}");
    payload
}

/// Polls a job until `pred(status_doc)` or panics at the deadline.
fn poll_until(port: u16, id: &str, within: Duration, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + within;
    loop {
        let doc = status_doc(port, id);
        if pred(&doc) {
            return doc;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} did not reach the expected status; last: {doc}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn state_of(doc: &str) -> String {
    field_str(doc, "state").expect("status has a state")
}

/// Extracts the embedded report object from a status document.
fn report_of(doc: &str) -> String {
    let start = doc.find("\"report\":").expect("status has a report") + "\"report\":".len();
    let end = doc.rfind(",\"error\":").expect("status has an error field");
    doc[start..end].to_string()
}

/// The reference report: `julie check --json` on the same net and flags.
fn solo_report(net_path: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_julie"))
        .arg("check")
        .arg(net_path)
        .arg("--json")
        .arg("--threads=1")
        .args(args)
        .output()
        .expect("reference run");
    String::from_utf8(out.stdout).unwrap().trim().to_string()
}

/// Strips the only nondeterministic report field (wall-clock coverage).
fn strip_elapsed(report: &str) -> String {
    match report.find("\"elapsed_secs\":") {
        None => report.to_string(),
        Some(start) => {
            let end = report[start..].find('}').expect("budget object closes") + start;
            format!("{}{}", &report[..start], &report[end..])
        }
    }
}

fn write_net(dir: &Path, name: &str, net: &petri::PetriNet) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, petri::to_text(net)).unwrap();
    path
}

// ---------------------------------------------------------------------
// basic wire protocol
// ---------------------------------------------------------------------

#[test]
fn health_listing_and_error_routes() {
    let dir = temp_dir("routes");
    let server = Server::start(&dir, &[]);
    let (status, _, payload) = request(server.port, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert!(payload.contains("\"ok\":true"));

    let (status, _, _) = request(server.port, "GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _, _) = request(server.port, "GET", "/jobs/j999999", None);
    assert_eq!(status, 404);
    let (status, _, _) = request(server.port, "PUT", "/jobs", None);
    assert_eq!(status, 405);

    let (status, _, payload) = request(server.port, "GET", "/jobs", None);
    assert_eq!(status, 200);
    assert!(payload.contains("\"jobs\":[]"), "{payload}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_submissions_are_rejected_with_400() {
    let dir = temp_dir("badsub");
    let server = Server::start(&dir, &["--max-job-states=1000"]);
    for (body, why) in [
        ("{not json", "unparseable body"),
        ("{}", "missing net"),
        (
            "{\"net\":\"net x\\npl p *\\n\",\"engine\":\"warp\"}",
            "unknown engine",
        ),
        (
            "{\"net\":\"net x\\npl p *\\n\",\"max_states\":100000}",
            "budget above the admission cap",
        ),
    ] {
        let (status, _, payload) = request(server.port, "POST", "/jobs", Some(body));
        assert_eq!(status, 400, "{why}: {payload}");
        assert!(payload.contains("\"error\":"), "{why}: {payload}");
    }
    // nothing was journaled for rejected submissions
    let entries = std::fs::read_dir(dir.join("jobs")).unwrap().count();
    assert_eq!(entries, 0, "rejected submissions leave no journal");
    std::fs::remove_dir_all(&dir).ok();
}

/// A property nested 200,000 levels deep is a parse error, not a stack
/// overflow: the submission gets a 400 and the server keeps serving.
#[test]
fn deeply_nested_property_is_rejected_and_serving_continues() {
    let dir = temp_dir("deepprop");
    let server = Server::start(&dir, &[]);
    let property = format!("EF {}deadlock", "(".repeat(200_000));
    let body = format!("{{\"net\":\"net x\\npl p *\\n\",\"property\":\"{property}\"}}");
    let (status, _, payload) = request(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 400, "{payload}");
    assert!(payload.contains("nests deeper"), "{payload}");
    let (status, _, _) = request(server.port, "GET", "/healthz", None);
    assert_eq!(status, 200);
    std::fs::remove_dir_all(&dir).ok();
}

/// The deepest property the parser accepts and a flat 20,000-operand
/// chain run on the server's worker threads (and, for `auto`, on the
/// portfolio's leg threads) to the verdict of a solo `julie check`.
#[test]
fn properties_at_the_nesting_cap_run_on_server_workers() {
    let dir = temp_dir("capprop");
    let net = models::nsdp(2);
    let net_path = write_net(&dir, "nsdp2.net", &net);
    let server = Server::start(&dir, &[]);
    let deep = format!(
        "EF {}not deadlock{}",
        "fireable(release0) or m(eat1) = 1 and (".repeat(63),
        ")".repeat(63)
    );
    let chain = format!("AG {}", vec!["m(fork0) <= 1"; 20_000].join(" and "));
    for (label, property) in [("deep", &deep), ("chain", &chain)] {
        let prop_path = dir.join(format!("{label}.prop"));
        std::fs::write(&prop_path, property).unwrap();
        let prop_arg = format!("--property-file={}", prop_path.display());
        let solo = solo_report(&net_path, &["--engine=full", &prop_arg]);
        let verdict = field_str(&solo, "verdict");
        assert_eq!(verdict.as_deref(), Some("holds"), "{label} solo");
        for engine in ["full", "po", "gpo", "bdd", "unfold", "pdr", "auto"] {
            let fields = format!(",\"engine\":\"{engine}\",\"property\":\"{property}\"");
            let id = submit(server.port, &petri::to_text(&net), &fields);
            let doc = poll_until(server.port, &id, Duration::from_secs(60), |d| {
                state_of(d) == "done"
            });
            let served = field_str(&report_of(&doc), "verdict");
            assert_eq!(served, verdict, "{label} on {engine}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A request head that never ends its line is cut off at the head bound:
/// the client gets a 400 while it still holds the socket open, instead of
/// the server buffering without limit.
#[test]
fn unterminated_request_head_is_bounded() {
    let dir = temp_dir("longhead");
    let server = Server::start(&dir, &[]);
    let mut stream = TcpStream::connect(("127.0.0.1", server.port)).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&[b'a'; 64 * 1024]).unwrap();
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    // read until the response is complete; a timeout here means the
    // server is still waiting for a newline
    loop {
        let n = stream
            .read(&mut buf)
            .expect("the server answers before the read timeout");
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
    }
    let raw = String::from_utf8_lossy(&raw);
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    assert!(raw.contains("request head too large"), "{raw}");
    let (status, _, _) = request(server.port, "GET", "/healthz", None);
    assert_eq!(status, 200);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn small_job_completes_with_the_solo_verdict() {
    let dir = temp_dir("small");
    let net = models::nsdp(4);
    let net_path = write_net(&dir, "nsdp4.net", &net);
    let server = Server::start(&dir, &[]);
    let id = submit(server.port, &petri::to_text(&net), ",\"engine\":\"gpo\"");
    let doc = poll_until(server.port, &id, Duration::from_secs(60), |d| {
        state_of(d) == "done"
    });
    assert_eq!(report_of(&doc), solo_report(&net_path, &["--engine=gpo"]));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// the headline invariant: SIGKILL, restart, identical verdict
// ---------------------------------------------------------------------

/// SIGKILL the server mid-job, restart over the same data dir, and the
/// recovered job's full report — verdict, state counts, witness marking
/// and trace — is byte-identical to an uninterrupted `julie check --json`
/// run, across all three checkpointing engines.
#[test]
fn sigkill_restart_recovers_jobs_to_identical_reports() {
    let dir = temp_dir("sigkill");
    // per-engine workloads sized so the kill lands mid-run; the gpo
    // engine spends its time in valid-set construction, so it is killed
    // while running rather than after a periodic snapshot
    let n8 = models::nsdp(8);
    let n10 = models::nsdp(10);
    let cases: [(&str, &petri::PetriNet, &str, bool); 3] = [
        ("full", &n8, "nsdp8.net", true),
        ("po", &n10, "nsdp10.net", true),
        ("gpo", &n8, "nsdp8g.net", false),
    ];
    for (engine, net, file, wait_for_snapshot) in cases {
        let case_dir = temp_dir(&format!("sigkill-{engine}"));
        let net_path = write_net(&dir, file, net);
        let reference = solo_report(&net_path, &[&format!("--engine={engine}")]);
        assert!(
            reference.contains("\"verdict\":\"deadlock\""),
            "{engine}: reference finds the deadlock: {reference}"
        );

        let mut server = Server::start(&case_dir, &["--checkpoint-every=500", "--workers=1"]);
        let id = submit(
            server.port,
            &petri::to_text(net),
            &format!(",\"engine\":\"{engine}\""),
        );
        // kill mid-run: after the first periodic snapshot when the engine
        // reaches one quickly, otherwise as soon as the job is running
        poll_until(server.port, &id, Duration::from_secs(120), |d| {
            if wait_for_snapshot {
                d.contains("\"checkpointed\":true")
            } else {
                state_of(d) == "running"
            }
        });
        server.kill();

        let restarted = Server::start(&case_dir, &["--checkpoint-every=500", "--workers=1"]);
        assert!(
            restarted.startup.iter().any(|l| l.contains("in-flight")),
            "{engine}: restart reports journal recovery: {:?}",
            restarted.startup
        );
        let doc = poll_until(restarted.port, &id, Duration::from_secs(300), |d| {
            state_of(d) == "done"
        });
        assert_eq!(
            report_of(&doc),
            reference,
            "{engine}: recovered report is byte-identical to the solo run"
        );
        std::fs::remove_dir_all(&case_dir).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// budget QoS isolation
// ---------------------------------------------------------------------

/// N concurrent jobs with different budgets: each job's verdict and
/// coverage match its solo run exactly — budgets do not bleed across
/// jobs sharing the worker pool.
#[test]
fn concurrent_jobs_with_different_budgets_match_their_solo_runs() {
    let dir = temp_dir("isolation");
    let nsdp6 = models::nsdp(6);
    let nsdp8 = models::nsdp(8);
    // (engine, net, file, max_states or 0 for default)
    let cases: [(&str, &petri::PetriNet, &str, usize); 5] = [
        ("full", &nsdp8, "i-full8.net", 3000),
        ("po", &nsdp8, "i-po8.net", 500),
        ("full", &nsdp6, "i-full6.net", 0),
        ("gpo", &nsdp6, "i-gpo6.net", 0),
        ("pdr", &nsdp6, "i-pdr6.net", 0),
    ];
    // large checkpoint interval: no segmentation, so partial coverage is
    // comparable to the solo (checkpoint-less) runs
    let server = Server::start(&dir, &["--workers=4", "--checkpoint-every=1000000"]);
    let mut jobs = Vec::new();
    for (engine, net, file, max_states) in cases {
        let net_path = write_net(&dir, file, net);
        let mut fields = format!(",\"engine\":\"{engine}\"");
        let mut args = vec![format!("--engine={engine}")];
        if max_states > 0 {
            fields.push_str(&format!(",\"max_states\":{max_states}"));
            args.push(format!("--max-states={max_states}"));
        }
        let id = submit(server.port, &petri::to_text(net), &fields);
        jobs.push((engine, net_path, args, id));
    }
    for (engine, net_path, args, id) in jobs {
        let doc = poll_until(server.port, &id, Duration::from_secs(120), |d| {
            state_of(d) == "done"
        });
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let reference = solo_report(&net_path, &args);
        assert_eq!(
            strip_elapsed(&report_of(&doc)),
            strip_elapsed(&reference),
            "{engine} ({id}): concurrent report equals the solo run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// admission control
// ---------------------------------------------------------------------

#[test]
fn over_capacity_submissions_get_a_retriable_503() {
    let dir = temp_dir("capacity");
    let nsdp10 = models::nsdp(10);
    let server = Server::start(&dir, &["--workers=1", "--queue-bound=1"]);
    let id = submit(server.port, &petri::to_text(&nsdp10), ",\"engine\":\"po\"");

    // the pool is saturated: the next submission must bounce, retriably
    let body = format!(
        "{{\"net\":\"{}\",\"engine\":\"po\"}}",
        json_escape(&petri::to_text(&nsdp10))
    );
    let (status, head, payload) = request(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 503, "over capacity: {payload}");
    assert!(
        head.to_ascii_lowercase().contains("retry-after:"),
        "503 carries Retry-After: {head}"
    );

    // the admitted job is unperturbed and finishes with its verdict
    let doc = poll_until(server.port, &id, Duration::from_secs(120), |d| {
        state_of(d) == "done"
    });
    assert!(
        report_of(&doc).contains("\"verdict\":\"deadlock\""),
        "admitted job finished normally: {doc}"
    );

    // capacity freed: submissions are accepted again
    let (status, _, _) = request(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 202, "capacity freed after completion");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// graceful shutdown
// ---------------------------------------------------------------------

/// SIGTERM stops admissions, trips the running job's budget, and drains:
/// the server exits 0 within the deadline, the interrupted job has a
/// final checkpoint but no (premature) result, and a restarted server
/// re-queues it from the journal.
#[test]
fn sigterm_drains_running_jobs_to_checkpoints() {
    let dir = temp_dir("drain");
    let nsdp10 = models::nsdp(10);
    let server = Server::start(&dir, &["--workers=1", "--drain-secs=30"]);
    let port = server.port;
    let id = submit(port, &petri::to_text(&nsdp10), ",\"engine\":\"full\"");
    poll_until(port, &id, Duration::from_secs(60), |d| {
        state_of(d) == "running"
    });

    let (success, rest) = server.sigterm_and_wait(Duration::from_secs(40));
    assert!(success, "drained server exits 0; tail: {rest}");
    assert!(rest.contains("drained"), "drain completion logged: {rest}");

    let job_dir = dir.join("jobs").join(&id);
    assert!(
        job_dir.join("run.ckpt").exists(),
        "interrupted job checkpointed on drain"
    );
    assert!(
        !job_dir.join("result.job").exists(),
        "no premature terminal result journaled"
    );

    let restarted = Server::start(&dir, &[]);
    assert!(
        restarted.startup.iter().any(|l| l.contains("1 in-flight")),
        "restart re-queues the drained job: {:?}",
        restarted.startup
    );
    poll_until(restarted.port, &id, Duration::from_secs(10), |d| {
        let s = state_of(d);
        s == "running" || s == "queued" || s == "done"
    });
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// cancellation
// ---------------------------------------------------------------------

#[test]
fn delete_cancels_a_running_job_and_terminal_jobs_conflict() {
    let dir = temp_dir("delete");
    let nsdp10 = models::nsdp(10);
    let server = Server::start(&dir, &["--workers=1"]);
    let id = submit(
        server.port,
        &petri::to_text(&nsdp10),
        ",\"engine\":\"full\"",
    );
    poll_until(server.port, &id, Duration::from_secs(60), |d| {
        state_of(d) == "running"
    });
    let (status, _, _) = request(server.port, "DELETE", &format!("/jobs/{id}"), None);
    assert_eq!(status, 200);
    let doc = poll_until(server.port, &id, Duration::from_secs(30), |d| {
        state_of(d) == "cancelled"
    });
    assert!(doc.contains("\"error\":\"cancelled\""), "{doc}");
    // a result journal exists, so the cancellation survives restarts
    assert!(dir.join("jobs").join(&id).join("result.job").exists());
    let (status, _, _) = request(server.port, "DELETE", &format!("/jobs/{id}"), None);
    assert_eq!(status, 409, "terminal jobs cannot be re-cancelled");
    std::fs::remove_dir_all(&dir).ok();
}

/// Dropping a `/wait` stream cancels the watched job: the protocol's
/// client-disconnect rule.
#[test]
fn wait_disconnect_cancels_the_job() {
    let dir = temp_dir("disconnect");
    let nsdp10 = models::nsdp(10);
    let server = Server::start(&dir, &["--workers=1"]);
    let id = submit(
        server.port,
        &petri::to_text(&nsdp10),
        ",\"engine\":\"full\"",
    );
    poll_until(server.port, &id, Duration::from_secs(60), |d| {
        state_of(d) == "running"
    });
    {
        let mut stream = TcpStream::connect(("127.0.0.1", server.port)).unwrap();
        stream
            .write_all(format!("GET /jobs/{id}/wait HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        // read one status chunk to make sure the stream is live, then
        // disconnect without warning
        let mut buf = [0u8; 512];
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "wait stream sends status updates");
    }
    let doc = poll_until(server.port, &id, Duration::from_secs(30), |d| {
        state_of(d) == "cancelled"
    });
    assert!(doc.contains("cancelled"), "{doc}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wait_streams_until_terminal() {
    let dir = temp_dir("wait");
    let net = models::nsdp(4);
    let server = Server::start(&dir, &[]);
    let id = submit(server.port, &petri::to_text(&net), ",\"engine\":\"po\"");
    let (status, head, payload) = request(server.port, "GET", &format!("/jobs/{id}/wait"), None);
    assert_eq!(status, 200);
    assert!(head.to_ascii_lowercase().contains("chunked"), "{head}");
    let last = payload
        .lines()
        .last()
        .expect("wait streamed at least one status");
    assert_eq!(state_of(last), "done", "{last}");
    assert!(last.contains("\"verdict\":\"deadlock\""), "{last}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// results cache
// ---------------------------------------------------------------------

#[test]
fn repeat_submissions_hit_the_results_cache() {
    let dir = temp_dir("cache");
    let net = models::nsdp(4);
    let text = petri::to_text(&net);
    let server = Server::start(&dir, &[]);
    let first = submit(server.port, &text, ",\"engine\":\"po\"");
    let first_doc = poll_until(server.port, &first, Duration::from_secs(60), |d| {
        state_of(d) == "done"
    });
    assert!(first_doc.contains("\"cached\":false"), "{first_doc}");

    // identical net + engine + budget: served from the cache, instantly
    // terminal, same report
    let body = format!("{{\"net\":\"{}\",\"engine\":\"po\"}}", json_escape(&text));
    let (status, _, payload) = request(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 202);
    assert!(payload.contains("\"cached\":true"), "{payload}");
    assert!(payload.contains("\"state\":\"done\""), "{payload}");
    let second = field_str(&payload, "id").unwrap();
    let second_doc = status_doc(server.port, &second);
    assert_eq!(report_of(&first_doc), report_of(&second_doc));

    // a different budget is a different cache key: no hit
    let body = format!(
        "{{\"net\":\"{}\",\"engine\":\"po\",\"max_states\":17}}",
        json_escape(&text)
    );
    let (status, _, payload) = request(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 202);
    assert!(payload.contains("\"cached\":false"), "{payload}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// worker panic isolation
// ---------------------------------------------------------------------

/// A job whose net fails inside the engine must not take the pool down:
/// the job is marked failed and the server keeps serving. (Engine panics
/// are journaled the same way; an engine error is the reachable stand-in.)
#[test]
fn failed_jobs_do_not_poison_the_pool() {
    let dir = temp_dir("poison");
    let server = Server::start(&dir, &["--workers=1"]);
    // a net that parses but whose marking is unsafe for the classes
    // engine is hard to construct; instead use a net that the timed
    // engine accepts and a stuck net that finishes normally afterwards,
    // exercising the worker loop across a failure boundary
    let bad = "net bad\npl p *\npl q *\ntr t : p q -> p p\n";
    let body = format!("{{\"net\":\"{}\",\"engine\":\"full\"}}", json_escape(bad));
    let (status, _, payload) = request(server.port, "POST", "/jobs", Some(&body));
    if status == 202 {
        let id = field_str(&payload, "id").unwrap();
        // unsafe nets make the engine error: the job fails, the pool lives
        poll_until(server.port, &id, Duration::from_secs(60), |d| {
            state_of(d) == "failed" || state_of(d) == "done"
        });
    }
    // the pool still serves fresh jobs
    let good = submit(
        server.port,
        "net ok\npl p *\npl q\ntr go : p -> q\n",
        ",\"engine\":\"full\"",
    );
    let doc = poll_until(server.port, &good, Duration::from_secs(60), |d| {
        state_of(d) == "done"
    });
    assert!(doc.contains("\"verdict\":\"deadlock\""), "{doc}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// the engine portfolio behind engine=auto
// ---------------------------------------------------------------------

/// An `engine=auto` job resolves to some winning leg and journals that
/// leg's solo-shaped report: the stored report is byte-identical to an
/// uninterrupted `julie check --engine=<winner>` run, and the result
/// seeds the cache under *both* the auto key and the winner's solo key.
#[test]
fn auto_job_resolves_to_a_solo_shaped_cached_report() {
    let dir = temp_dir("auto");
    let net = models::nsdp(4);
    let text = petri::to_text(&net);
    let net_path = write_net(&dir, "auto4.net", &net);
    let server = Server::start(&dir, &[]);
    let id = submit(server.port, &text, ",\"engine\":\"auto\"");
    let doc = poll_until(server.port, &id, Duration::from_secs(120), |d| {
        state_of(d) == "done"
    });
    let report = report_of(&doc);
    let winner = field_str(&report, "engine").expect("report names the winning engine");
    assert_ne!(
        winner, "auto",
        "the stored report is the winner's, not the portfolio's"
    );
    let reference = solo_report(&net_path, &[&format!("--engine={winner}")]);
    assert_eq!(
        strip_elapsed(&report),
        strip_elapsed(&reference),
        "auto report equals an uninterrupted solo {winner} run"
    );

    // same submission again: the auto cache key hits
    let body = format!("{{\"net\":\"{}\",\"engine\":\"auto\"}}", json_escape(&text));
    let (status, _, payload) = request(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 202);
    assert!(payload.contains("\"cached\":true"), "{payload}");

    // a solo submission of the resolved winner also hits (dual insert)
    let body = format!(
        "{{\"net\":\"{}\",\"engine\":\"{winner}\"}}",
        json_escape(&text)
    );
    let (status, _, payload) = request(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 202);
    assert!(
        payload.contains("\"cached\":true"),
        "winner's solo key was seeded: {payload}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGKILL the server while an `engine=auto` job is in flight, restart
/// over the same data dir, and the recovered job still resolves to a
/// report byte-identical to an uninterrupted solo run of whichever leg
/// won — crash recovery is engine-transparent.
#[test]
fn sigkill_restart_recovers_an_auto_job_to_a_solo_identical_report() {
    let dir = temp_dir("auto-sigkill");
    let net = models::nsdp(8);
    let text = petri::to_text(&net);
    let net_path = write_net(&dir, "auto8.net", &net);

    let mut server = Server::start(&dir, &["--checkpoint-every=200"]);
    let id = submit(server.port, &text, ",\"engine\":\"auto\"");
    // kill while the race is (very likely) still running; if it already
    // finished, the test degenerates to recovery of a terminal job,
    // which must also hold
    std::thread::sleep(Duration::from_millis(150));
    server.kill();

    let server = Server::start(&dir, &[]);
    let doc = poll_until(server.port, &id, Duration::from_secs(120), |d| {
        state_of(d) == "done"
    });
    let report = report_of(&doc);
    let winner = field_str(&report, "engine").expect("report names the winning engine");
    let reference = solo_report(&net_path, &[&format!("--engine={winner}")]);
    assert_eq!(
        strip_elapsed(&report),
        strip_elapsed(&reference),
        "recovered auto report equals an uninterrupted solo {winner} run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// healthz counters and the Retry-After estimate
// ---------------------------------------------------------------------

/// `GET /healthz` exposes queue depth, active workers, and cache
/// hit/miss counters; an over-capacity 503 carries a Retry-After header
/// whose value is the clamped queue-drain estimate.
#[test]
fn healthz_counters_and_retry_after_estimate() {
    let dir = temp_dir("healthz");
    let net = models::nsdp(4);
    let text = petri::to_text(&net);
    let server = Server::start(&dir, &["--workers=1", "--queue-bound=2"]);

    let (status, _, payload) = request(server.port, "GET", "/healthz", None);
    assert_eq!(status, 200);
    for key in [
        "\"ok\":true",
        "\"queue_depth\":",
        "\"active_workers\":",
        "\"cache_hits\":0",
        "\"cache_misses\":0",
        "\"draining\":false",
    ] {
        assert!(payload.contains(key), "healthz missing {key}: {payload}");
    }

    // one miss (the run) + one hit (the replay) show up in the counters
    let id = submit(server.port, &text, ",\"engine\":\"po\"");
    poll_until(server.port, &id, Duration::from_secs(60), |d| {
        state_of(d) == "done"
    });
    submit(server.port, &text, ",\"engine\":\"po\"");
    let (_, _, payload) = request(server.port, "GET", "/healthz", None);
    assert!(payload.contains("\"cache_hits\":1"), "{payload}");
    assert!(payload.contains("\"cache_misses\":1"), "{payload}");

    // saturate the pool with slow jobs, then parse the 503's estimate
    let slow = petri::to_text(&models::nsdp(10));
    submit(server.port, &slow, ",\"engine\":\"full\"");
    submit(server.port, &slow, ",\"engine\":\"full\"");
    let body = format!("{{\"net\":\"{}\",\"engine\":\"full\"}}", json_escape(&slow));
    let (status, head, _) = request(server.port, "POST", "/jobs", Some(&body));
    assert_eq!(status, 503);
    let retry_after: u64 = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("retry-after:")
                .map(str::trim)
                .map(String::from)
        })
        .expect("503 carries Retry-After")
        .parse()
        .expect("Retry-After is an integer");
    assert!(
        (1..=60).contains(&retry_after),
        "estimate is clamped: {retry_after}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
