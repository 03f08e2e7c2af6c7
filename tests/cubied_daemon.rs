//! End-to-end guarantees of `cubied`, the sweep-as-a-service daemon:
//! concurrent identical requests deduplicate to a single execution, a
//! daemon restart serves a pure content-addressed store hit that is
//! bit-identical to the original computation, and a version-skewed
//! store entry is invalidated and recomputed rather than served.
//! Hostile clients — an over-long line, partial UTF-8, a half-closed
//! socket, more idle connections than the connection cap — each get a
//! clean error, after which the daemon still answers `ping` and shuts
//! down cleanly; shutdown never depends on the socket file.
//!
//! Each test runs its own daemon on a private socket + store under a
//! unique temp directory, and reads the daemon's per-process `stats`
//! counters (not the global obs counters, which other tests share).

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use cubie::golden::Json;
use cubie::serve::proto::simple_request;
use cubie::serve::{client_request, Daemon, Handle, ServeConfig, SweepSpec, MAX_REQUEST_BYTES};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cubied_it_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn cfg_in(dir: &Path, exec_delay_ms: u64) -> ServeConfig {
    ServeConfig {
        socket: dir.join("cubied.sock"),
        store_dir: dir.join("store"),
        max_jobs: 1,
        heavy_slots: 1,
        queue_limit: 16,
        exec_delay_ms,
    }
}

/// The cheapest single-cell request: scan, case 2, TC on H200 at the
/// deep-test reduced scales.
fn sweep_request() -> Json {
    SweepSpec {
        filters: ["workload=scan", "case=2", "device=h200", "variant=tc"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        jobs: Some(1),
        sparse_scale: Some(64),
        graph_scale: Some(512),
        verify: false,
    }
    .to_json("sweep")
}

fn field<'a>(resp: &'a Json, name: &str) -> &'a Json {
    resp.get(name)
        .unwrap_or_else(|| panic!("response missing `{name}`: {}", resp.to_canonical_string()))
}

fn counter(stats: &Json, name: &str) -> i128 {
    field(field(stats, "counters"), name)
        .as_int()
        .expect("counter is an integer")
}

#[test]
fn concurrent_identical_sweeps_execute_once_and_dedup() {
    let dir = scratch("dedup");
    let mut handle = Daemon::start(cfg_in(&dir, 800)).expect("daemon");
    let socket = handle.socket().to_path_buf();

    const N: usize = 4;
    let barrier = Arc::new(Barrier::new(N));
    let clients: Vec<_> = (0..N)
        .map(|_| {
            let socket = socket.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                client_request(&socket, &sweep_request()).expect("sweep response")
            })
        })
        .collect();
    let responses: Vec<Json> = clients
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    let stores: Vec<&str> = responses
        .iter()
        .map(|r| field(r, "store").as_str().expect("store is a string"))
        .collect();
    assert_eq!(
        stores.iter().filter(|s| **s == "miss").count(),
        1,
        "exactly one request executes, saw {stores:?}"
    );
    assert_eq!(
        stores.iter().filter(|s| **s == "dedup").count(),
        N - 1,
        "the rest join the in-flight execution, saw {stores:?}"
    );
    let payloads: Vec<String> = responses
        .iter()
        .map(|r| field(r, "artifact").to_canonical_string())
        .collect();
    assert!(
        payloads.iter().all(|p| *p == payloads[0]),
        "every deduplicated client must receive the identical payload"
    );

    let stats = client_request(&socket, &cubie::serve::proto::simple_request("stats"))
        .expect("stats response");
    assert_eq!(counter(&stats, "exec"), 1, "one execution for {N} clients");
    assert_eq!(counter(&stats, "dedup"), (N - 1) as i128);
    handle.shutdown();
}

#[test]
fn restart_serves_a_pure_store_hit_bit_identically() {
    let dir = scratch("restart");

    let mut first = Daemon::start(cfg_in(&dir, 0)).expect("first daemon");
    let socket = first.socket().to_path_buf();
    let cold = client_request(&socket, &sweep_request()).expect("cold sweep");
    assert_eq!(field(&cold, "store").as_str(), Some("miss"));
    first.shutdown();

    // A fresh daemon process state over the same store directory: the
    // result must come back as a pure store hit, with zero executions.
    let mut second = Daemon::start(cfg_in(&dir, 0)).expect("second daemon");
    let warm = client_request(&socket, &sweep_request()).expect("warm sweep");
    assert_eq!(field(&warm, "store").as_str(), Some("hit"));

    let stats = client_request(&socket, &cubie::serve::proto::simple_request("stats"))
        .expect("stats response");
    assert_eq!(counter(&stats, "exec"), 0, "a restart hit must not execute");
    assert_eq!(counter(&stats, "hit"), 1);
    assert_eq!(counter(&stats, "miss"), 0);
    second.shutdown();

    // Bit-identical through the canonical writer, and clean through the
    // golden differ — the store's validation oracle.
    assert_eq!(
        field(&cold, "artifact").to_canonical_string(),
        field(&warm, "artifact").to_canonical_string(),
        "restart hit diverged from the original computation"
    );
    let a = cubie::golden::Artifact::from_json(field(&cold, "artifact")).expect("cold artifact");
    let b = cubie::golden::Artifact::from_json(field(&warm, "artifact")).expect("warm artifact");
    cubie::golden::verify_bit_identical(&a, &b).expect("differ agrees the hit is bit-identical");
}

#[test]
fn version_skewed_store_entry_is_invalidated_and_recomputed() {
    let dir = scratch("skew");
    let mut handle = Daemon::start(cfg_in(&dir, 0)).expect("daemon");
    let socket = handle.socket().to_path_buf();

    let cold = client_request(&socket, &sweep_request()).expect("cold sweep");
    assert_eq!(field(&cold, "store").as_str(), Some("miss"));

    // Doctor the stored entry into one written by an older golden
    // schema. The daemon must treat it as version skew on the next
    // lookup: invalidate, recompute, re-store.
    let store_dir = dir.join("store");
    let entries: Vec<_> = std::fs::read_dir(&store_dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    assert_eq!(entries.len(), 1, "one sweep stored exactly one entry");
    let text = std::fs::read_to_string(&entries[0]).expect("read entry");
    let skewed = text.replace("golden=cubie-golden/v1", "golden=cubie-golden/v0");
    assert_ne!(
        text, skewed,
        "entry key must carry the golden schema version"
    );
    std::fs::write(&entries[0], skewed).expect("write skewed entry");

    let redo = client_request(&socket, &sweep_request()).expect("post-skew sweep");
    assert_eq!(
        field(&redo, "store").as_str(),
        Some("miss"),
        "a skewed entry must be recomputed, not served"
    );
    assert_eq!(
        field(&cold, "artifact").to_canonical_string(),
        field(&redo, "artifact").to_canonical_string(),
        "recomputation must reproduce the original payload"
    );

    let stats = client_request(&socket, &cubie::serve::proto::simple_request("stats"))
        .expect("stats response");
    assert_eq!(counter(&stats, "invalidated"), 1);
    assert_eq!(counter(&stats, "exec"), 2);

    // The re-stored entry is valid again: the next lookup is a hit.
    let warm = client_request(&socket, &sweep_request()).expect("warm sweep");
    assert_eq!(field(&warm, "store").as_str(), Some("hit"));
    handle.shutdown();
}

/// Run `f` on its own thread and fail the test if it has not returned
/// within `secs` seconds (a hung shutdown must fail, not hang the suite).
fn within<T: Send + 'static>(what: &str, secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what} did not return within {secs} s"))
}

/// Connect, send `bytes` (optionally half-closing the write side), and
/// read one response line. Write errors are ignored: the daemon may
/// close the connection before reading everything.
fn raw_exchange(socket: &Path, bytes: &[u8], half_close: bool) -> (Json, UnixStream) {
    let stream = UnixStream::connect(socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let _ = (&stream).write_all(bytes);
    if half_close {
        stream.shutdown(Shutdown::Write).expect("half-close");
    }
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("response line");
    let resp = Json::parse(line.trim()).expect("response is JSON");
    (resp, reader.into_inner())
}

fn is_error(resp: &Json) -> bool {
    resp.get("ok") == Some(&Json::Bool(false)) && resp.get("error").is_some()
}

/// After the daemon answered an error and closed `conn`, it still
/// serves `ping` on a new connection and then shuts down cleanly.
fn assert_closed_then_ping_then_clean_shutdown(mut conn: UnixStream, mut handle: Handle) {
    let mut rest = Vec::new();
    // EOF, or a reset because the daemon closed with unread input.
    let _ = conn.read_to_end(&mut rest);
    assert!(rest.is_empty(), "the daemon wrote past its error line");
    let socket = handle.socket().to_path_buf();
    let pong = client_request(&socket, &simple_request("ping")).expect("ping after error");
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
    within("Handle::shutdown", 5, move || handle.shutdown());
    assert!(!socket.exists(), "socket removed on clean exit");
}

#[test]
fn oversized_line_without_newline_gets_an_error_and_is_closed() {
    let dir = scratch("oversized");
    let handle = Daemon::start(cfg_in(&dir, 0)).expect("daemon");
    let flood = vec![b'x'; MAX_REQUEST_BYTES + 1];
    let (resp, conn) = raw_exchange(handle.socket(), &flood, false);
    assert!(is_error(&resp), "{}", resp.to_canonical_string());
    let msg = field(&resp, "error").as_str().unwrap_or_default();
    assert!(msg.contains("exceeds"), "{msg}");
    assert_closed_then_ping_then_clean_shutdown(conn, handle);
}

#[test]
fn partial_utf8_gets_an_error_and_is_closed() {
    let dir = scratch("utf8");
    let handle = Daemon::start(cfg_in(&dir, 0)).expect("daemon");
    // `€` is E2 82 AC; the line ends after its first two bytes.
    let (resp, conn) = raw_exchange(handle.socket(), b"{\"cmd\":\"ping\xE2\x82\n", false);
    assert!(is_error(&resp), "{}", resp.to_canonical_string());
    let msg = field(&resp, "error").as_str().unwrap_or_default();
    assert!(msg.contains("UTF-8"), "{msg}");
    assert_closed_then_ping_then_clean_shutdown(conn, handle);
}

#[test]
fn half_closed_socket_gets_its_last_line_answered() {
    let dir = scratch("halfclose");
    let handle = Daemon::start(cfg_in(&dir, 0)).expect("daemon");
    // An unterminated, well-formed request before EOF is still served.
    let (pong, conn) = raw_exchange(handle.socket(), br#"{"cmd":"ping"}"#, true);
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
    drop(conn);
    // An unterminated, truncated one gets an error.
    let (resp, conn) = raw_exchange(handle.socket(), br#"{"cmd":"pi"#, true);
    assert!(is_error(&resp), "{}", resp.to_canonical_string());
    assert_closed_then_ping_then_clean_shutdown(conn, handle);
}

#[test]
fn connections_past_the_cap_get_server_busy() {
    let dir = scratch("conncap");
    let cfg = cfg_in(&dir, 0);
    let cap = cfg.connection_cap();
    let mut handle = Daemon::start(cfg).expect("daemon");
    let socket = handle.socket().to_path_buf();

    // The listen backlog is accepted in connect order: the first `cap`
    // idle connections take every slot, the last 8 are turned away.
    let conns: Vec<UnixStream> = (0..cap + 8)
        .map(|_| UnixStream::connect(&socket).expect("connect"))
        .collect();
    for conn in &conns[cap..] {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut line = String::new();
        BufReader::new(conn)
            .read_line(&mut line)
            .expect("busy line");
        let resp = Json::parse(line.trim()).expect("response is JSON");
        assert!(is_error(&resp), "{line}");
        let msg = field(&resp, "error").as_str().unwrap_or_default();
        assert!(msg.contains("server busy"), "{msg}");
    }
    // An admitted idle connection is still served at the cap.
    let mut admitted = &conns[0];
    admitted
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    admitted.write_all(b"{\"cmd\":\"ping\"}\n").expect("send");
    let mut line = String::new();
    BufReader::new(admitted).read_line(&mut line).expect("pong");
    assert!(line.contains("\"ok\":true"), "{line}");
    drop(conns);

    // Slots free up as the handlers see EOF; then `ping` is served.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let pong = client_request(&socket, &simple_request("ping")).expect("ping");
        if pong.get("ok") == Some(&Json::Bool(true)) {
            break;
        }
        assert!(Instant::now() < deadline, "slots never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = client_request(&socket, &simple_request("stats")).expect("stats");
    assert!(counter(&stats, "rejected") >= 8);
    within("Handle::shutdown", 5, move || handle.shutdown());
    assert!(!socket.exists(), "socket removed on clean exit");
}

#[test]
fn shutdown_returns_when_the_socket_file_was_unlinked() {
    let dir = scratch("unlinked");
    let mut handle = Daemon::start(cfg_in(&dir, 0)).expect("daemon");
    std::fs::remove_file(handle.socket()).expect("unlink socket");
    within("Handle::shutdown", 5, move || handle.shutdown());
}

#[test]
fn shutdown_leaves_a_socket_rebound_by_another_daemon() {
    let dir = scratch("rebound");
    let mut first = Daemon::start(cfg_in(&dir, 0)).expect("first daemon");
    let socket = first.socket().to_path_buf();
    // A second daemon on the same path replaces the first one's socket.
    let mut second_cfg = cfg_in(&dir, 0);
    second_cfg.store_dir = dir.join("store2");
    let mut second = Daemon::start(second_cfg).expect("second daemon");
    within("Handle::shutdown", 5, move || first.shutdown());
    assert!(
        socket.exists(),
        "the first daemon unlinked the second's socket"
    );
    let pong = client_request(&socket, &simple_request("ping")).expect("ping");
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
    second.shutdown();
    assert!(!socket.exists());
}

#[test]
fn client_shutdown_request_makes_wait_return() {
    let dir = scratch("clientstop");
    let mut handle = Daemon::start(cfg_in(&dir, 0)).expect("daemon");
    let socket = handle.socket().to_path_buf();
    let bye = client_request(&socket, &simple_request("shutdown")).expect("shutdown");
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
    within("Handle::wait", 5, move || handle.wait());
    assert!(!socket.exists(), "socket removed on clean exit");
}
