//! Open-loop Poisson load against the lab's HTTP front end.
//!
//! Arrival times and the request mix come from the seed. Requests go out
//! over `conns` keep-alive connections, one thread each; a thread takes
//! the next request in arrival order as soon as it is free and sends it
//! when it is due. Latency is timed from when a request was due, so a
//! stall is charged to every request it delays. A request that finds both
//! connections busy waits for one: that wait is the client-side backlog.
//!
//! Each response is checked for status 200 and a JSON object body. Bodies
//! are grouped by request key and digest (the `elapsed_ms` field of
//! `POST /run` is dropped first, as it is a timing) so the caller can
//! check one sample of each distinct body against its references.

use crate::{json_str, Rng, EXPS};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
pub enum Kind {
    Status,
    Metrics,
    Cells,
    Run,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Status => "status",
            Kind::Metrics => "metrics",
            Kind::Cells => "cells",
            Kind::Run => "run",
        }
    }

    /// Bodies of these carry live counters and differ request to request.
    fn varies(self) -> bool {
        matches!(self, Kind::Status | Kind::Metrics)
    }
}

/// The request mix of the repo's recorded 100 req/s serve load (the
/// open-loop phase of `bench_serve`): 60% `GET /status`, 10%
/// `GET /metrics`, 20% `GET /cells?exp=…`, 10% `POST /run`. Where that
/// load reads and reruns the smoke `thm2` grid only, here the experiment
/// is uniform over the eight and `POST /run` reruns the full warm grid.
fn draw(rng: &mut Rng) -> (Kind, usize) {
    let u = rng.unit();
    let kind = if u < 0.6 {
        Kind::Status
    } else if u < 0.7 {
        Kind::Metrics
    } else if u < 0.9 {
        Kind::Cells
    } else {
        Kind::Run
    };
    (kind, rng.below(EXPS.len() as u64) as usize)
}

fn request(kind: Kind, exp: &str) -> Vec<u8> {
    match kind {
        Kind::Status => b"GET /status HTTP/1.1\r\nHost: bench\r\n\r\n".to_vec(),
        Kind::Metrics => b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n".to_vec(),
        Kind::Cells => format!("GET /cells?exp={exp} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes(),
        Kind::Run => {
            let body = format!("{{\"exp\":\"{exp}\"}}");
            format!(
                "POST /run HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        }
    }
}

struct Record {
    kind: Kind,
    exp: usize,
    due: u64,
    free: u64,
    send: u64,
    done: u64,
    ok: bool,
}

/// Distinct bodies per request key: digest → (count, one sample).
type Bodies = BTreeMap<String, BTreeMap<u64, (u64, String)>>;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Drop the `"elapsed_ms":N` field, the one timing in a `/run` body.
fn without_elapsed(body: &str) -> String {
    match body.find(",\"elapsed_ms\":") {
        Some(i) => {
            let rest = &body[i + 1..];
            let end = rest.find(['}', ',']).unwrap_or(rest.len());
            format!("{}{}", &body[..i], &rest[end..])
        }
        None => body.to_string(),
    }
}

/// Read one HTTP/1.1 response; returns (status code, body).
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<(u16, String)> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut chunk = [0u8; 16384];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-response"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let code: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| bad("no content-length"))?;
    while buf.len() < head_end + len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + len]).to_string();
    buf.drain(..head_end + len);
    Ok((code, body))
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(s)
}

/// Sleep until `due`, then spin the last stretch for a precise send.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + Duration::from_micros(300) {
        std::thread::sleep(due - now - Duration::from_micros(200));
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

pub struct Load {
    records: Vec<Record>,
    bodies: Bodies,
}

/// Offer `rate` requests per second for `secs` seconds to `addr`.
pub fn run(addr: SocketAddr, rate: f64, secs: f64, seed: u64, conns: usize) -> Load {
    let mut rng = Rng::new(seed ^ 0x10ad_0000);
    let mut schedule = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= secs {
            break;
        }
        let (kind, exp) = draw(&mut rng);
        schedule.push((Duration::from_secs_f64(t), kind, exp));
    }
    let next = AtomicUsize::new(0);
    let bodies: Mutex<Bodies> = Mutex::new(BTreeMap::new());
    let start = Instant::now() + Duration::from_millis(20);
    let us = |t: Instant| t.saturating_duration_since(start).as_micros() as u64;
    let records: Vec<Record> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    let mut conn = connect(addr).ok();
                    let mut buf = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&(offset, kind, exp)) = schedule.get(i) else {
                            break;
                        };
                        let free = Instant::now();
                        let due = start + offset;
                        wait_until(due);
                        let send = Instant::now();
                        if conn.is_none() {
                            conn = connect(addr).ok();
                            buf.clear();
                        }
                        let reply = conn.as_mut().map_or_else(
                            || Err(std::io::Error::other("cannot connect")),
                            |s| {
                                s.write_all(&request(kind, EXPS[exp]))?;
                                read_response(s, &mut buf)
                            },
                        );
                        let done = Instant::now();
                        let ok = match reply {
                            Ok((code, body)) => {
                                let shaped = body.starts_with('{') && body.ends_with('}');
                                let key = match kind {
                                    Kind::Cells | Kind::Run => {
                                        format!("{}/{}", kind.name(), EXPS[exp])
                                    }
                                    _ => kind.name().to_string(),
                                };
                                let body = if matches!(kind, Kind::Run) {
                                    without_elapsed(&body)
                                } else {
                                    body
                                };
                                let digest = if kind.varies() {
                                    0
                                } else {
                                    fnv(body.as_bytes())
                                };
                                let mut map = bodies.lock().expect("body map lock");
                                let slot = map.entry(key).or_default().entry(digest).or_default();
                                slot.0 += 1;
                                if slot.1.is_empty() || kind.varies() {
                                    slot.1 = body;
                                }
                                code == 200 && shaped
                            }
                            Err(e) => {
                                eprintln!("load: {} request failed: {e}", kind.name());
                                conn = None;
                                false
                            }
                        };
                        out.push(Record {
                            kind,
                            exp,
                            due: us(due),
                            free: us(free),
                            send: us(send),
                            done: us(done),
                            ok,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    Load {
        records,
        bodies: bodies.into_inner().expect("body map lock"),
    }
}

impl Load {
    /// The load as one JSON object: per-request
    /// `[kind, exp, due, free, send, done, ok]` (times in µs from the
    /// start of the schedule) and the distinct bodies per request key.
    pub fn to_json(&self) -> String {
        let reqs: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                format!(
                    "[\"{}\",\"{}\",{},{},{},{},{}]",
                    r.kind.name(),
                    EXPS[r.exp],
                    r.due,
                    r.free,
                    r.send,
                    r.done,
                    r.ok
                )
            })
            .collect();
        let bodies: Vec<String> = self
            .bodies
            .iter()
            .map(|(key, seen)| {
                let list: Vec<String> = seen
                    .values()
                    .map(|(n, sample)| format!("[{n},{}]", json_str(sample)))
                    .collect();
                format!("{}:[{}]", json_str(key), list.join(","))
            })
            .collect();
        format!(
            "{{\"requests\":[{}],\"bodies\":{{{}}}}}",
            reqs.join(","),
            bodies.join(",")
        )
    }
}
