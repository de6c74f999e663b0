//! Engine performance snapshot → `BENCH_engine.json`.
//!
//! Measures the hot paths this repo's perf work targets and writes one
//! machine-readable JSON file at the repository root so the perf trajectory
//! is tracked across PRs:
//!
//! * **timeline** — whole-machine LogP runs under `TimelineKind::BinaryHeap`
//!   (the pre-overhaul engine, kept selectable exactly for this comparison)
//!   vs `TimelineKind::Bucket` (the calendar queue). "before/after" on the
//!   same binary, same workloads. The two sides' reps alternate (heap,
//!   bucket, heap, …) and the speedup is the median of the per-pair
//!   ratios, so a slow spell on the host hits both sides of a pair rather
//!   than skewing the ratio.
//! * **payload** — construct+clone+read round-trips for an inline payload vs
//!   a spilled one. The spill path is the old representation (every payload
//!   heap-allocated a `Vec`), so this is the message-layer before/after.
//!   Reps alternate too, and the ratio is again a median of pairs.
//! * **sweep** — the `exp_table1`-style topology measurement job set run
//!   through the sweep harness on a 1-thread rayon pool and on a pool sized
//!   to the host. On a single-core host the parallel leg is skipped with a
//!   notice (a parallel sweep cannot speed up there; pretending to measure
//!   one reports noise as a slowdown).
//! * **scaling** — the sharded engine's growth curve: single-shard wall
//!   time (median of 5 runs up to p = 10⁴, of 3 above, the runs going
//!   round-robin over the sizes) of a fixed-rounds ring versus machine
//!   size `p` from 64 to 10⁶ by decades, the same ring
//!   over a seeded random single cycle at 10⁴–10⁶ (every delivery then
//!   touches a far-away processor, so the rows show what memory locality
//!   costs at large `p`), plus the 2-shard speedup
//!   on the random cycle at `p = 10⁶`, 1- and 2-shard reps interleaved,
//!   fastest of 3 per side (skipped with a notice when the host has fewer
//!   than two cores).
//!
//! Wall-clock numbers are environment-dependent; the JSON records the host
//! parallelism next to them. Run via `scripts/regen_experiments.sh` or:
//!
//! ```sh
//! cargo run --release -p bvl-bench --bin bench_engine
//! ```
//!
//! With `--smoke` the binary instead runs each benched workload traced at
//! shard counts 1/2/4, and the random-cycle ring at a `p` that spans
//! several of the engine's destination blocks at shard counts 1/2,
//! byte-compares the traces, prints one PASS/FAIL line per workload, and
//! exits non-zero on any divergence — the CI determinism gate, cheap
//! enough for every push.
//!
//! If `CRITERION_JSONL` points at a `CRITERION_MINI_JSON` output file (the
//! `event_queue` micro-bench writes one), its measurements are embedded
//! under `"criterion"`.

use bvl_bench::sweep::sweep;
use bvl_logp::{
    LogpConfig, LogpMachine, LogpParams, LogpProcess, Op, ProcView, Script, TimelineKind,
};
use bvl_model::rngutil::SeedStream;
use bvl_model::{Payload, ProcId, INLINE_WORDS};
use bvl_net::{measure_parameters, Hypercube, MeshOfTrees, RouterConfig, Topology};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

fn ring_scripts(p: usize, rounds: usize) -> Vec<Script> {
    (0..p)
        .map(|i| {
            let mut ops = Vec::new();
            for r in 0..rounds {
                ops.push(Op::Send {
                    dst: ProcId(((i + 1) % p) as u32),
                    payload: Payload::word(r as u32, i as i64),
                });
                ops.push(Op::Recv);
            }
            Script::new(ops)
        })
        .collect()
}

fn hot_spot_scripts(p: usize, k: usize) -> Vec<Script> {
    let mut v = vec![Script::new(vec![Op::Recv; (p - 1) * k])];
    v.extend((1..p).map(|i| {
        Script::new((0..k).map(move |q| Op::Send {
            dst: ProcId(0),
            payload: Payload::word(q as u32, i as i64),
        }))
    }));
    v
}

fn alltoall_scripts(p: usize) -> Vec<Script> {
    (0..p)
        .map(|me| {
            let mut ops = Vec::new();
            for t in 0..p - 1 {
                ops.push(Op::Send {
                    dst: ProcId(((me + 1 + t) % p) as u32),
                    payload: Payload::word(0, me as i64),
                });
            }
            ops.extend(std::iter::repeat_n(Op::Recv, p - 1));
            Script::new(ops)
        })
        .collect()
}

/// Wall time of one call of `f`, in milliseconds.
fn once_ms<F: FnMut()>(mut f: F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn time_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    (0..reps)
        .map(|_| once_ms(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// `reps` interleaved timings of `a` and `b` (a, b, a, b, …): the fastest
/// of each side, and the median of the per-pair ratios `a / b`. A slow
/// spell on the host slows both halves of a pair, so the median ratio is
/// steadier than the ratio of the two minima.
fn paired(
    reps: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let mut ratios: Vec<f64> = (0..reps)
        .map(|_| {
            let (ta, tb) = (a(), b());
            best_a = best_a.min(ta);
            best_b = best_b.min(tb);
            ta / tb
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    (best_a, best_b, ratios[reps / 2])
}

fn run_machine(kind: TimelineKind, scripts: Vec<Script>, p: usize) -> u64 {
    let params = LogpParams::new(p, 16, 1, 2).unwrap();
    let config = LogpConfig {
        timeline: kind,
        ..LogpConfig::default()
    };
    let mut m = LogpMachine::with_config(params, config, scripts);
    m.run().unwrap().makespan.get()
}

type ScriptBuilder = Box<dyn Fn() -> Vec<Script>>;

/// Timing reps per side of the heap-vs-bucket comparison.
const TIMELINE_REPS: usize = 9;

/// Timing reps per side of the spill-vs-inline comparison.
const PAYLOAD_REPS: usize = 9;

fn timeline_section(out: &mut Vec<String>) {
    let cases: Vec<(&str, usize, ScriptBuilder)> = vec![
        ("ring_x32", 64, Box::new(|| ring_scripts(64, 32))),
        ("hot_spot_stalling", 64, Box::new(|| hot_spot_scripts(64, 16))),
        ("all_to_all", 64, Box::new(|| alltoall_scripts(64))),
    ];
    for (name, p, build) in cases {
        // Equal work both sides; 10 machine runs per timing rep, reps
        // alternating heap and bucket.
        let rep_ms = |kind| {
            once_ms(|| {
                for _ in 0..10 {
                    black_box(run_machine(kind, build(), p));
                }
            })
        };
        let (heap_ms, bucket_ms, speedup) = paired(
            TIMELINE_REPS,
            || rep_ms(TimelineKind::BinaryHeap),
            || rep_ms(TimelineKind::Bucket),
        );
        eprintln!(
            "timeline/{name}: heap {heap_ms:.2} ms, bucket {bucket_ms:.2} ms, \
             speedup {speedup:.2}x (median of {TIMELINE_REPS} pairs)"
        );
        out.push(format!(
            "    {{\"workload\": \"{name}\", \"p\": {p}, \"heap_ms\": {heap_ms:.3}, \
             \"bucket_ms\": {bucket_ms:.3}, \"speedup\": {speedup:.3}}}"
        ));
    }
}

fn payload_section(out: &mut Vec<String>) {
    let inline = vec![7i64; INLINE_WORDS];
    let spill = vec![7i64; INLINE_WORDS * 2];
    let iters = 2_000_000u64;
    let bench = |words: &[i64]| -> f64 {
        let ms = once_ms(|| {
            let mut acc = 0i64;
            for _ in 0..iters {
                let p = Payload::words(3, black_box(words));
                let q = p.clone();
                acc = acc.wrapping_add(q.data().iter().sum::<i64>());
            }
            black_box(acc);
        });
        ms * 1e6 / iters as f64 // ns per construct+clone+read
    };
    let (spill_ns, inline_ns, ratio) = paired(PAYLOAD_REPS, || bench(&spill), || bench(&inline));
    eprintln!(
        "payload: inline {inline_ns:.1} ns/op, spill {spill_ns:.1} ns/op, \
         ratio {ratio:.2}x (median of {PAYLOAD_REPS} pairs)"
    );
    out.push(format!(
        "    {{\"case\": \"inline_{INLINE_WORDS}w\", \"ns_per_op\": {inline_ns:.1}}}"
    ));
    out.push(format!(
        "    {{\"case\": \"spill_{}w\", \"ns_per_op\": {spill_ns:.1}, \
         \"ratio_to_inline\": {ratio:.3}, \
         \"note\": \"spill = pre-overhaul always-Vec representation\"}}",
        INLINE_WORDS * 2
    ));
}

fn sweep_jobs() -> Vec<(&'static str, u32)> {
    vec![
        ("hypercube", 6),
        ("hypercube", 7),
        ("mesh_of_trees", 6),
        ("mesh_of_trees", 8),
        ("hypercube", 6),
        ("hypercube", 7),
        ("mesh_of_trees", 6),
        ("mesh_of_trees", 8),
    ]
}

fn run_sweep() -> f64 {
    let rep = sweep("bench-engine", 11, sweep_jobs(), |(kind, k), _job| {
        let topo: Box<dyn Topology> = match kind {
            "hypercube" => Box::new(Hypercube::new(k)),
            _ => Box::new(MeshOfTrees::new(1usize << (k / 2))),
        };
        let m = measure_parameters(&*topo, &[1, 2, 4, 8], 2, 5, RouterConfig::default());
        m.gamma
    });
    rep.elapsed.as_secs_f64() * 1e3
}

/// Best-of-3 sweep time on a dedicated rayon pool of `threads` workers.
/// An explicit pool is the only honest way to vary thread count here:
/// `RAYON_NUM_THREADS` is read once when the global pool first spins up,
/// so setting it mid-process silently measures the same pool twice.
fn sweep_in_pool(threads: usize) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build rayon pool");
    time_ms(3, || {
        pool.install(|| {
            black_box(run_sweep());
        });
    })
}

fn sweep_section() -> String {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let jobs = sweep_jobs().len();
    let t1_ms = sweep_in_pool(1);
    if host < 2 {
        eprintln!(
            "sweep: {jobs} jobs, 1 thread {t1_ms:.1} ms; single-core host, parallel leg skipped"
        );
        return format!(
            "  \"sweep\": {{\"jobs\": {jobs}, \"threads_1_ms\": {t1_ms:.3}, \"host_cpus\": {host}, \
             \"skipped\": \"single-core host: a parallel sweep cannot speed up here\"}}"
        );
    }
    let tn_ms = sweep_in_pool(host);
    let speedup = t1_ms / tn_ms;
    eprintln!(
        "sweep: {jobs} jobs, 1 thread {t1_ms:.1} ms, {host} threads {tn_ms:.1} ms, speedup {speedup:.2}x"
    );
    format!(
        "  \"sweep\": {{\"jobs\": {jobs}, \"threads_1_ms\": {t1_ms:.3}, \"threads_n_ms\": {tn_ms:.3}, \
         \"threads_n\": {host}, \"host_cpus\": {host}, \"speedup\": {speedup:.3}, \"efficiency\": {:.3}}}",
        speedup / host as f64
    )
}

/// A ring participant with constant per-processor memory (one word of
/// state, no op queue), so the scaling curve can reach p = 10⁶ without the
/// `Script` representation dominating the footprint.
struct RingProc {
    next: ProcId,
    rounds_left: u32,
    recv_pending: bool,
}

impl LogpProcess for RingProc {
    fn next_op(&mut self, _view: &ProcView) -> Op {
        if self.recv_pending {
            self.recv_pending = false;
            return Op::Recv;
        }
        if self.rounds_left == 0 {
            return Op::Halt;
        }
        self.rounds_left -= 1;
        self.recv_pending = true;
        Op::Send {
            dst: self.next,
            payload: Payload::word(0, 0),
        }
    }
}

/// Rounds per processor in the scaling-curve ring; total work is O(p · rounds).
const SCALING_ROUNDS: u32 = 4;

/// Successor map of a seeded random single cycle over `p` processors
/// (Sattolo's algorithm).
fn random_cycle(p: usize) -> Vec<usize> {
    let mut rng = SeedStream::new(SCALING_SEED).derive("bench-engine-cycle", p as u64);
    let mut next: Vec<usize> = (0..p).collect();
    for i in (1..p).rev() {
        let j = rng.gen_range(0..i);
        next.swap(i, j);
    }
    next
}

/// Seed of the random-cycle scaling rows.
const SCALING_SEED: u64 = 14;

/// Reps per side of the shard-speedup leg.
const SHARD_REPS: usize = 3;

/// Wall time of one ring run under `shards` shards, where processor `i`
/// sends to `next[i]`, excluding machine construction (the curve tracks
/// engine throughput, not allocation).
fn ring_time_ms(next: &[usize], shards: usize) -> f64 {
    let p = next.len();
    let params = LogpParams::new(p, 16, 1, 2).unwrap();
    let config = LogpConfig {
        shards,
        ..LogpConfig::default()
    };
    let procs = next
        .iter()
        .map(|&n| RingProc {
            next: ProcId(n as u32),
            rounds_left: SCALING_ROUNDS,
            recv_pending: false,
        })
        .collect();
    let mut m = LogpMachine::with_config(params, config, procs);
    once_ms(|| {
        black_box(m.run().unwrap().makespan.get());
    })
}

/// The successor map of the neighbour ring `i → i + 1`.
fn neighbour_ring(p: usize) -> Vec<usize> {
    (0..p).map(|i| (i + 1) % p).collect()
}

/// Single-shard rows `{p, ms, ns_per_msg}` of the ring over `next(p)`,
/// each the median of several runs (5 up to p = 10⁴, 3 above). The runs go
/// round-robin over the sizes, so a slow spell on the host falls on runs of
/// several sizes instead of on every run of one. The flatness gate divides
/// the p = 10⁶ row by the p = 10⁴ row, and would read such a spell as a
/// change in flatness.
fn scaling_rows(label: &str, ps: &[usize], next: fn(usize) -> Vec<usize>) -> String {
    let reps = |p: usize| if p <= 10_000 { 5 } else { 3 };
    let nexts: Vec<Vec<usize>> = ps.iter().map(|&p| next(p)).collect();
    let mut runs: Vec<Vec<f64>> = vec![Vec::new(); ps.len()];
    let rounds = ps.iter().map(|&p| reps(p)).max().unwrap_or(0);
    for round in 0..rounds {
        for (i, &p) in ps.iter().enumerate() {
            if round < reps(p) {
                runs[i].push(ring_time_ms(&nexts[i], 1));
            }
        }
    }
    let mut rows = Vec::new();
    for (&p, mut runs) in ps.iter().zip(runs) {
        runs.sort_by(f64::total_cmp);
        let median = runs[runs.len() / 2];
        let ns_per_msg = median * 1e6 / (p as f64 * f64::from(SCALING_ROUNDS));
        eprintln!(
            "scaling/ring_x{SCALING_ROUNDS}/{label}: p = {p}, {median:.1} ms, \
             {ns_per_msg:.0} ns/msg (1 shard, median of {})",
            runs.len()
        );
        rows.push(format!(
            "      {{\"p\": {p}, \"ms\": {median:.3}, \"ns_per_msg\": {ns_per_msg:.1}}}"
        ));
    }
    rows.join(",\n")
}

fn scaling_section() -> String {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let rows = scaling_rows(
        "neighbour",
        &[64, 1_000, 10_000, 100_000, 1_000_000],
        neighbour_ring,
    );
    let random_rows = scaling_rows("random_cycle", &[10_000, 100_000, 1_000_000], random_cycle);
    let shard_json = if host >= 2 {
        // The 1- and 2-shard reps alternate and each side keeps its
        // fastest, so a slow spell on a shared host hits both sides.
        let p = 1_000_000;
        let ring = random_cycle(p);
        let mut best = [f64::INFINITY; 2];
        for _ in 0..SHARD_REPS {
            for (side, shards) in [1usize, 2].into_iter().enumerate() {
                best[side] = best[side].min(ring_time_ms(&ring, shards));
            }
        }
        let speedup = best[0] / best[1];
        eprintln!(
            "scaling/shards: random cycle p = {p}, 1 shard {:.1} ms, 2 shards {:.1} ms, \
             speedup {speedup:.2}x",
            best[0], best[1]
        );
        format!(
            "\"shard_speedup\": {{\"p\": {p}, \"ring\": \"random_cycle\", \"reps\": {SHARD_REPS}, \
             \"rows\": [\n      {{\"shards\": 1, \"ms\": {:.3}, \"speedup\": 1.0}},\n      \
             {{\"shards\": 2, \"ms\": {:.3}, \"speedup\": {speedup:.3}}}\n    ]}}",
            best[0], best[1]
        )
    } else {
        eprintln!("scaling/shards: single-core host, shard-speedup leg skipped");
        format!(
            "\"shard_speedup\": {{\"host_cpus\": {host}, \
             \"skipped\": \"single-core host: shard speedup is not measurable here\"}}"
        )
    };
    format!(
        "  \"scaling\": {{\n    \"workload\": \"ring_x{SCALING_ROUNDS}\",\n    \
         \"single_shard\": [\n{rows}\n    ],\n    \
         \"random_cycle\": {{\"seed\": {SCALING_SEED}, \"single_shard\": [\n{random_rows}\n    ]}},\n    \
         {shard_json}\n  }}"
    )
}

/// The random-cycle ring of the scaling rows as scripts, for the smoke.
fn random_ring_scripts(p: usize) -> Vec<Script> {
    random_cycle(p)
        .into_iter()
        .enumerate()
        .map(|(i, next)| {
            Script::new((0..SCALING_ROUNDS).flat_map(|r| {
                [
                    Op::Send {
                        dst: ProcId(next as u32),
                        payload: Payload::word(r, i as i64),
                    },
                    Op::Recv,
                ]
            }))
        })
        .collect()
}

/// `--smoke`: the CI determinism gate. Each benched workload runs traced at
/// shard counts 1, 2, and 4, and the random-cycle ring at a `p` spanning
/// several destination blocks (2¹² processors each) at 1 and 2; the traces
/// must be byte-identical.
fn smoke() -> i32 {
    let cases: Vec<(&str, usize, ScriptBuilder, &[usize])> = vec![
        ("ring_x32", 64, Box::new(|| ring_scripts(64, 32)), &[2, 4]),
        ("hot_spot_stalling", 64, Box::new(|| hot_spot_scripts(64, 16)), &[2, 4]),
        ("all_to_all", 64, Box::new(|| alltoall_scripts(64)), &[2, 4]),
        ("random_cycle_ring_x4", 20_000, Box::new(|| random_ring_scripts(20_000)), &[2]),
    ];
    let mut failed = false;
    for (name, p, build, shard_counts) in cases {
        let run = |shards: usize| {
            let params = LogpParams::new(p, 16, 1, 2).unwrap();
            let config = LogpConfig {
                shards,
                ..LogpConfig::traced()
            };
            let mut m = LogpMachine::with_config(params, config, build());
            let report = m.run().unwrap();
            (report.makespan, format!("{:?}", m.trace().events()))
        };
        let (makespan, base) = run(1);
        let ok = shard_counts.iter().all(|&s| {
            let (mk, trace) = run(s);
            mk == makespan && trace == base
        });
        if ok {
            println!("smoke/{name}: PASS");
        } else {
            let counts: Vec<String> = shard_counts.iter().map(usize::to_string).collect();
            println!(
                "smoke/{name}: FAIL (trace diverged across shard counts 1/{})",
                counts.join("/")
            );
        }
        failed |= !ok;
    }
    if failed {
        1
    } else {
        0
    }
}

fn criterion_section() -> Option<String> {
    let path = std::env::var("CRITERION_JSONL").ok()?;
    let text = std::fs::read_to_string(path).ok()?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return None;
    }
    Some(format!(
        "  \"criterion\": [\n    {}\n  ]",
        lines.join(",\n    ")
    ))
}

fn main() {
    if std::env::args().skip(1).any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut timeline = Vec::new();
    timeline_section(&mut timeline);
    let mut payload = Vec::new();
    payload_section(&mut payload);
    let sweep_json = sweep_section();
    let scaling_json = scaling_section();

    let mut sections = vec![
        format!("  \"host_cpus\": {host}"),
        format!("  \"timeline\": [\n{}\n  ]", timeline.join(",\n")),
        format!("  \"payload\": [\n{}\n  ]", payload.join(",\n")),
        sweep_json,
        scaling_json,
    ];
    if let Some(crit) = criterion_section() {
        sections.push(crit);
    }
    let json = format!("{{\n{}\n}}\n", sections.join(",\n"));
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("{json}");
    eprintln!("wrote BENCH_engine.json");
}
