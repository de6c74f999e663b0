//! Concurrency soak — the satellite contract (ISSUE 9): ≥64 clients of
//! mixed traffic (valid `POST /run` and GETs, malformed requests,
//! mid-request disconnects, responses abandoned unread) against the
//! nonblocking front end. Afterwards the server must have closed every
//! connection (no fd leak, checked against `/proc/self/fd`), and the
//! `/metrics` serve counters must reconcile with what the harness saw:
//! `accepted == closed + active`, every harness-observed response counted,
//! and the latency histogram's count equal to the response counter.

use bvl_lab::{
    serve, CellSpec, CodeFingerprint, Experiment, GridSpec, Job, OnStale, Service, Store,
};
use bvl_obs::Registry;
use rand::RngCore;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 64;
const ROUNDS: usize = 6;

struct Square;

impl Experiment for Square {
    fn name(&self) -> &str {
        "square"
    }

    fn grids(&self, smoke: bool) -> Vec<GridSpec> {
        let n = if smoke { 4 } else { 16 };
        let mut g = GridSpec::new("square", 7);
        for i in 0..n {
            g = g.cell(CellSpec::new("square-cells", i, format!("i={i}")));
        }
        vec![g]
    }

    fn cell_rows(&self, cell: &CellSpec, mut job: Job) -> Vec<Vec<String>> {
        vec![vec![cell.params.clone(), job.rng.next_u64().to_string()]]
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-lab-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: lab\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let status: u16 = response.lines().next()?.split_whitespace().nth(1)?.parse().ok()?;
    let payload = response.split_once("\r\n\r\n")?.1.to_string();
    Some((status, payload))
}

/// The integer right after `"needle":` (digits only).
fn json_u64(body: &str, needle: &str) -> u64 {
    let at = body.find(&format!("\"{needle}\":")).unwrap_or_else(|| panic!("no {needle}: {body}"));
    body[at + needle.len() + 3..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").map(|d| d.count()).unwrap_or(0)
}

/// Poll `/metrics` until the server has closed every soak connection
/// (the probe itself is the one remaining active connection while its
/// request is in flight).
fn drain(addr: SocketAddr) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = request(addr, "GET", "/metrics", "").expect("metrics probe");
        assert_eq!(status, 200);
        if json_u64(&body, "active") <= 1 {
            return body;
        }
        assert!(Instant::now() < deadline, "connections never drained: {body}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn soak_mixed_traffic_leaks_no_fds_and_metrics_reconcile() {
    let dir = tmpdir("store");
    let code = CodeFingerprint::from_parts("soak-test-api", "0");
    let store = Store::open(&dir, code, OnStale::Error).unwrap();
    let service = Arc::new(Service::new(store, Registry::enabled(1), vec![Box::new(Square)]));
    let server = serve("127.0.0.1:0", Arc::clone(&service), 3).unwrap();
    let addr = server.addr();

    // Warm the grid so soak-phase POSTs are cheap cache hits.
    let (status, _) = request(addr, "POST", "/run", "{\"exp\":\"square\"}").unwrap();
    assert_eq!(status, 200);

    // Let the warm-up connection fully close, then baseline the fd table.
    drain(addr);
    let fds_before = fd_count();

    let ok_200 = AtomicU64::new(0);
    let ok_400 = AtomicU64::new(0);
    let transport_errors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (ok_200, ok_400, transport_errors) = (&ok_200, &ok_400, &transport_errors);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    match (client + round) % 6 {
                        0 => match request(addr, "POST", "/run", "{\"exp\":\"square\"}") {
                            Some((200, _)) => drop(ok_200.fetch_add(1, Ordering::Relaxed)),
                            _ => drop(transport_errors.fetch_add(1, Ordering::Relaxed)),
                        },
                        1 => match request(addr, "GET", "/status", "") {
                            Some((200, _)) => drop(ok_200.fetch_add(1, Ordering::Relaxed)),
                            _ => drop(transport_errors.fetch_add(1, Ordering::Relaxed)),
                        },
                        2 => match request(addr, "GET", "/cells?exp=square", "") {
                            Some((200, _)) => drop(ok_200.fetch_add(1, Ordering::Relaxed)),
                            _ => drop(transport_errors.fetch_add(1, Ordering::Relaxed)),
                        },
                        3 => {
                            // Malformed request line: a clean 400, not a hang.
                            let mut s = TcpStream::connect(addr).unwrap();
                            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                            s.write_all(b"NONSENSE\r\n\r\n").unwrap();
                            let mut out = String::new();
                            s.read_to_string(&mut out).unwrap();
                            if out.starts_with("HTTP/1.1 400") {
                                ok_400.fetch_add(1, Ordering::Relaxed);
                            } else {
                                transport_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        4 => {
                            // Disconnect mid-request: half a head, then gone.
                            let mut s = TcpStream::connect(addr).unwrap();
                            let _ = s.write_all(b"GET /status HTT");
                            drop(s);
                        }
                        _ => {
                            // Valid request, response abandoned unread.
                            let mut s = TcpStream::connect(addr).unwrap();
                            let _ = s.write_all(
                                b"GET /status HTTP/1.1\r\nHost: lab\r\nConnection: close\r\n\r\n",
                            );
                            drop(s);
                        }
                    }
                }
            });
        }
    });
    assert_eq!(transport_errors.into_inner(), 0, "soak saw transport failures");
    let ok_200 = ok_200.into_inner();
    let ok_400 = ok_400.into_inner();
    assert_eq!(ok_200, (CLIENTS * ROUNDS / 6 * 3) as u64, "every valid request answered");
    assert_eq!(ok_400, (CLIENTS * ROUNDS / 6) as u64, "every malformed request rejected");

    // Every soak connection must close: no deadlock, no leaked conn slots.
    let metrics = drain(addr);
    let accepted = json_u64(&metrics, "accepted");
    let responses = json_u64(&metrics, "responses");
    let closed = json_u64(&metrics, "closed");
    let active = json_u64(&metrics, "active");
    assert_eq!(accepted, closed + active, "lifecycle counters reconcile");
    // Warm-up + drains + the 4 responding traffic classes; the abandoned
    // and mid-request classes may or may not get a response on the wire,
    // so `responses` is bounded, not exact.
    assert!(responses >= 1 + ok_200 + ok_400, "{metrics}");
    assert!(accepted >= (CLIENTS * ROUNDS) as u64, "{metrics}");
    // The latency histogram observes exactly once per written response.
    let needle = "\"serve_latency_us\":{\"count\":";
    let hist_at = metrics.find(needle).expect("hist");
    let hist_count: u64 = metrics[hist_at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();
    assert_eq!(hist_count, responses, "one latency sample per response");

    // The fd table is back to its baseline: nothing leaked. The final
    // drain probe's own socket is already closed client-side; allow the
    // server a moment to finish its half.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if fd_count() <= fds_before {
            break;
        }
        assert!(Instant::now() < deadline, "fd leak: {} > {}", fd_count(), fds_before);
        std::thread::sleep(Duration::from_millis(50));
    }

    server.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
