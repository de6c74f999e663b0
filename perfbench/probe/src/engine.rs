//! `engine_bigp`: `ring_x4` on `LogpMachine` at p = 10⁴ and p = 10⁶.
//!
//! Every processor sends four one-word messages to its successor in a
//! seeded random single cycle and receives four. The random cycle is
//! deliberate: against the neighbour ring it makes every delivery touch a
//! far-away processor, so cache misses at large `p` show in the timing.
//! Only `run()` is timed for the per-message figure; construction is the
//! set-up time and is timed on its own.

use crate::trace::Tracer;
use crate::{rss_kb, Facts, Rng};
use bvl_logp::{LogpMachine, LogpParams, LogpProcess, Op, ProcView};
use bvl_model::{Payload, ProcId};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const ROUNDS: u32 = 4;
/// Makespan of `ring_x4` under `L = 16, o = 1, G = 2`, at every `p`.
pub const MAKESPAN: u64 = 72;
const SMALL: usize = 10_000;
const BIG: usize = 1_000_000;

/// A ring participant with constant memory per processor: the successor,
/// the rounds left and whether a receive is due.
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

/// Successor table of a uniformly random single cycle over `p` nodes
/// (Sattolo's algorithm).
pub fn random_cycle(p: usize, rng: &mut Rng) -> Vec<u32> {
    let mut next: Vec<u32> = (0..p as u32).collect();
    for i in (1..p).rev() {
        let j = rng.below(i as u64) as usize;
        next.swap(i, j);
    }
    next
}

fn machine(cycle: &[u32]) -> LogpMachine<RingProc> {
    let p = cycle.len();
    let procs = cycle
        .iter()
        .map(|&n| RingProc {
            next: ProcId(n),
            rounds_left: ROUNDS,
            recv_pending: false,
        })
        .collect();
    let params = LogpParams::new(p, 16, 1, 2).expect("ring parameters are valid");
    LogpMachine::new(params, procs)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one construct → run → drop cycle measured. Construction and drop
/// are timed by their spans only.
struct Cycle {
    /// Milliseconds in `run()`.
    run: f64,
    /// Makespan 72 and four sends and receives on every processor.
    ok: bool,
    delivered: u64,
    makespan: u64,
}

fn one(tr: &Tracer, parent: u64, cycle: &[u32]) -> Cycle {
    let p = cycle.len();
    let label = format!("p={p}");
    let s = tr.begin_labeled("logp.construct", &label, parent);
    let mut m = machine(cycle);
    tr.end(s);

    let s = tr.begin_labeled("logp.run", &label, parent);
    let t0 = Instant::now();
    let rep = m.run();
    let run = ms(t0.elapsed());
    tr.end(s);

    let (ok, delivered, makespan) = match &rep {
        Ok(r) => {
            let each = r
                .per_proc
                .iter()
                .all(|s| s.sent == ROUNDS as u64 && s.acquired == ROUNDS as u64);
            let ok = each
                && r.per_proc.len() == p
                && r.makespan.get() == MAKESPAN
                && r.delivered == ROUNDS as u64 * p as u64;
            (ok, r.delivered, r.makespan.get())
        }
        Err(e) => {
            eprintln!("engine: ring_x4 at p={p} failed: {e}");
            (false, 0, 0)
        }
    };
    black_box(&rep);

    let s = tr.begin_labeled("logp.drop", &label, parent);
    drop(rep);
    drop(m);
    tr.end(s);
    Cycle {
        run,
        ok,
        delivered,
        makespan,
    }
}

/// The set-up of a big-p run: build the p = 10⁶ machine once, in a fresh
/// process, as a user's run does. Inside one process later constructions
/// reuse freed pages and measured 4–6× faster than the first, so the
/// set-up time is taken one process at a time.
pub fn construct(seed: u64, facts: &mut Facts) {
    let big = random_cycle(BIG, &mut Rng::new(seed ^ 0x5eed_e1e1));
    let t0 = Instant::now();
    let m = machine(&big);
    facts.num("construct_ms", ms(t0.elapsed()));
    drop(black_box(m));
}

/// The workload: p = 10⁴ runs for a tenth of the budget (the first
/// `run()` of the process is discarded as warm-up: it measured ≈ 1.4×
/// slower than later ones), then p = 10⁶ runs for the rest, at least
/// `min_big` of them. The first p = 10⁶ run is kept: it follows the
/// warm-up, and a user's single big run pays the same first touch.
pub fn bench(seed: u64, seconds: f64, min_big: usize, tr: &Tracer, facts: &mut Facts) {
    let root = tr.begin("engine", 0);
    let mut rng = Rng::new(seed ^ 0x5eed_e1e1);
    let small = random_cycle(SMALL, &mut rng);
    let big = random_cycle(BIG, &mut rng);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut runs_small = Vec::new();
    let mut warmup = None;
    let s = tr.begin_labeled("engine.ring", "p=10000", root.id());
    while runs_small.len() < 5 || start.elapsed() < budget / 10 {
        let c = one(tr, s.id(), &small);
        attempted += 1;
        failed += u64::from(!c.ok);
        if warmup.is_none() {
            warmup = Some(c.run);
        } else {
            runs_small.push(c.run);
        }
    }
    tr.end(s);
    // With spans on, untraced runs alternate with traced ones so the
    // recording cost can be reported.
    let mut untraced_small = Vec::new();
    let mut traced_small = Vec::new();
    if tr.is_on() {
        let off = Tracer::new(false);
        for _ in 0..10 {
            untraced_small.push(one(&off, 0, &small).run);
            traced_small.push(one(tr, 0, &small).run);
        }
    }

    let mut runs_big = Vec::new();
    let (mut delivered, mut makespan);
    let rss_before = rss_kb("VmRSS");
    let mut rss_delta_kb = 0;
    let s = tr.begin_labeled("engine.ring", "p=1000000", root.id());
    loop {
        let c = one(tr, s.id(), &big);
        if runs_big.is_empty() {
            rss_delta_kb = rss_kb("VmHWM").saturating_sub(rss_before);
        }
        attempted += 1;
        failed += u64::from(!c.ok);
        runs_big.push(c.run);
        (delivered, makespan) = (c.delivered, c.makespan);
        // Start another run only if it fits the budget.
        let next_end = start.elapsed().as_secs_f64() * 1e3 + c.run;
        if runs_big.len() >= min_big && next_end > budget.as_secs_f64() * 1e3 {
            break;
        }
    }
    tr.end(s);
    tr.end(root);

    facts.num("warmup_run_ms_p1e4", warmup.unwrap_or(0.0));
    facts.num_list("run_ms_p1e4", &runs_small);
    facts.num_list("run_ms_p1e6", &runs_big);
    facts.num_list("run_ms_p1e4_untraced", &untraced_small);
    facts.num_list("run_ms_p1e4_traced", &traced_small);
    facts.int("msgs_p1e4", ROUNDS as u64 * SMALL as u64);
    facts.int("msgs_p1e6", ROUNDS as u64 * BIG as u64);
    facts.int("delivered_p1e6", delivered);
    facts.int("makespan_p1e6", makespan);
    facts.int("rss_delta_kb_p1e6", rss_delta_kb);
    facts.int("attempted", attempted);
    facts.int("failed", failed);
}
