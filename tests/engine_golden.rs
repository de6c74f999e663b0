//! Golden digests of the LogP engine's observable output.
//!
//! `tests/determinism.rs` and `tests/shard_determinism.rs` compare two
//! paths of one build (bucket vs heap timeline, one vs many shards), so a
//! change that alters both sides alike passes them. These digests pin the
//! engine against fixed constants instead: each is the FNV-1a hash of the
//! `Debug` rendering of every trace event, followed by the report's
//! SUMMARY fields and per-processor statistics. The constants were taken
//! from the engine before its per-message state moved into a slab of
//! handles (the sleepy ring's from the engine before that slab handed out
//! slots in creation order and the timeline recycled slot buffers; the
//! `*_P20000` cases' from the engine before each worker split its
//! processors into cache-sized destination blocks), and every run must
//! reproduce them at 1 and 4 shards under both timeline implementations.
//!
//! The `p = 20 000` cases span five destination blocks of 2¹² processors
//! (three if blocks were twice that), so they pin the blocked engine
//! against the unblocked one.

use bsp_vs_logp::exec::RunOptions;
use bsp_vs_logp::fault::FaultPlan;
use bsp_vs_logp::logp::{
    AcceptOrder, DeliveryPolicy, LogpConfig, LogpMachine, LogpParams, LogpReport, Op, Script,
    TimelineKind,
};
use bsp_vs_logp::model::rngutil::SeedStream;
use bsp_vs_logp::model::{ModelError, Payload, ProcId, Steps};
use rand::Rng;
use std::sync::Arc;

/// 64-bit FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The SUMMARY fields of a run, as an experiment binary prints them.
fn summary_line(rep: &LogpReport) -> String {
    format!(
        "SUMMARY makespan={} stall_episodes={} stall_steps={} max_buffer={} delivered={} \
         duplicates_dropped={} latency_mean={:.6}",
        rep.makespan.get(),
        rep.stall_episodes,
        rep.total_stall.get(),
        rep.max_buffer(),
        rep.delivered,
        rep.duplicates_dropped,
        rep.latency.mean(),
    )
}

/// One traced run: the digest of its trace, SUMMARY line and per-processor
/// statistics.
fn digest(params: LogpParams, config: LogpConfig, opts: &RunOptions, scripts: Vec<Script>) -> u64 {
    let mut m = LogpMachine::with_config(params, config, scripts);
    m.instrument(&RunOptions {
        trace: true,
        ..opts.clone()
    });
    let rep = m.run().expect("golden workloads complete");
    let mut h = Fnv::new();
    for ev in m.trace().events() {
        h.feed(format!("{ev:?}\n").as_bytes());
    }
    h.feed(summary_line(&rep).as_bytes());
    h.feed(format!("{:?}", rep.per_proc).as_bytes());
    h.0
}

fn send(dst: usize, round: usize, word: usize) -> Op {
    Op::Send {
        dst: ProcId::from(dst),
        payload: Payload::word(round as u32, word as i64),
    }
}

/// Successor map of a seeded random single cycle (Sattolo's algorithm).
fn random_cycle(p: usize, seed: u64) -> Vec<usize> {
    let mut rng = SeedStream::new(seed).derive("golden-cycle", 0);
    let mut next: Vec<usize> = (0..p).collect();
    for i in (1..p).rev() {
        let j = rng.gen_range(0..i);
        next.swap(i, j);
    }
    next
}

/// `ring_x4` over a seeded random single cycle: four rounds of
/// send-to-successor then receive.
fn random_ring_x4(p: usize, seed: u64) -> Vec<Script> {
    let next = random_cycle(p, seed);
    (0..p)
        .map(|i| Script::new((0..4).flat_map(|r| [send(next[i], r, i), Op::Recv])))
        .collect()
}

/// `ring_x4` over a random cycle where processor `sleeper` sleeps until
/// `wake` before each receive. Its incoming messages stay buffered while
/// the rest of the ring churns through new ones, and its wake-ups lie far
/// beyond the bucket ring's window.
fn sleepy_ring_x4(p: usize, seed: u64, sleeper: usize, wake: u64) -> Vec<Script> {
    let next = random_cycle(p, seed);
    (0..p)
        .map(|i| {
            Script::new((0..4).flat_map(|r| {
                let mut ops = vec![send(next[i], r, i)];
                if i == sleeper {
                    ops.push(Op::WaitUntil(Steps(wake * (r as u64 + 1))));
                }
                ops.push(Op::Recv);
                ops
            }))
        })
        .collect()
}

/// Every other processor floods processor 0 far past its capacity, with a
/// `Compute` burst midway that only the bucket timeline's overflow heap
/// can carry.
fn stalling_hot_spot(p: usize, k: usize) -> Vec<Script> {
    let mut v = vec![Script::new(vec![Op::Recv; (p - 1) * k])];
    v.extend((1..p).map(|i| {
        let mut ops = Vec::new();
        for q in 0..k {
            if q == k / 2 {
                ops.push(Op::Compute(200));
            }
            ops.push(send(0, q, i));
        }
        Script::new(ops)
    }));
    v
}

/// All-to-all: each processor sends one message to every other, then
/// receives `p - 1`.
fn all_to_all(p: usize) -> Vec<Script> {
    (0..p)
        .map(|me| {
            let mut ops: Vec<Op> = (0..p - 1).map(|t| send((me + 1 + t) % p, 0, me)).collect();
            ops.extend(std::iter::repeat_n(Op::Recv, p - 1));
            Script::new(ops)
        })
        .collect()
}

/// Several §2.2 hot spots at once: each `(dst, srcs)` pair has every
/// source send one message to `dst` at time 0, so all submissions meet at
/// `t = 1`. Everyone else idles.
fn hot_spots(p: usize, spots: &[(usize, std::ops::Range<usize>)]) -> Vec<Script> {
    let mut ops: Vec<Vec<Op>> = vec![Vec::new(); p];
    for (dst, srcs) in spots {
        for src in srcs.clone() {
            ops[src].push(send(*dst, 0, src));
            ops[*dst].push(Op::Recv);
        }
    }
    ops.into_iter().map(Script::new).collect()
}

/// Assert one workload's digest at 1 and 4 shards under both timelines.
fn check(
    name: &str,
    expected: u64,
    params: LogpParams,
    config: LogpConfig,
    opts: RunOptions,
    scripts: Vec<Script>,
) {
    for timeline in [TimelineKind::Bucket, TimelineKind::BinaryHeap] {
        for shards in [1usize, 4] {
            let got = digest(
                params,
                LogpConfig { timeline, ..config },
                &RunOptions {
                    shards,
                    ..opts.clone()
                },
                scripts.clone(),
            );
            assert_eq!(
                got, expected,
                "{name}: digest {got:#018x} differs from the golden {expected:#018x} \
                 ({timeline:?}, {shards} shards)"
            );
        }
    }
}

const RING_X4_P4096: u64 = 0x45b9_2c15_9ff7_d7b2;
const HOT_SPOT_FIFO: u64 = 0x7992_dbe5_b7fd_5163;
const HOT_SPOT_LIFO: u64 = 0xeb79_61db_8d30_214c;
const HOT_SPOT_RANDOM: u64 = 0x2f53_67ea_012a_f62c;
const UNIFORM_ALL_TO_ALL: u64 = 0x1495_5f80_52b0_7cba;
const FAULTED_HOT_SPOT: u64 = 0xf2b6_0033_6202_09b9;
const SLEEPY_RING_X4: u64 = 0x6539_05d4_561d_7214;
const RING_X4_P20000: u64 = 0x60a6_a325_7b06_f15c;
const SLEEPY_RING_X4_P20000: u64 = 0x21df_3190_210a_2e19;
const FAULTED_HOT_SPOTS_P20000: u64 = 0x4599_d6c0_b6be_3108;
/// The error every run of the multi-block `forbid_stalling` hot spots must
/// stop with.
const STALL_ERROR_P20000: &str = "StallDetected { proc: P102, at: 1 }";

/// Machine size of the multi-block cases.
const BIG_P: usize = 20_000;

#[test]
fn random_cycle_ring_x4_matches_golden() {
    let p = 4096;
    check(
        "ring_x4",
        RING_X4_P4096,
        LogpParams::new(p, 16, 1, 2).unwrap(),
        LogpConfig::default(),
        RunOptions::new(),
        random_ring_x4(p, 801),
    );
}

#[test]
fn stalling_hot_spot_matches_golden_under_every_accept_order() {
    let params = LogpParams::new(12, 12, 1, 3).unwrap();
    for (name, order, expected) in [
        ("hot_spot/fifo", AcceptOrder::Fifo, HOT_SPOT_FIFO),
        ("hot_spot/lifo", AcceptOrder::Lifo, HOT_SPOT_LIFO),
        ("hot_spot/random", AcceptOrder::Random, HOT_SPOT_RANDOM),
    ] {
        let config = LogpConfig {
            accept_order: order,
            seed: 5,
            ..LogpConfig::default()
        };
        check(
            name,
            expected,
            params,
            config,
            RunOptions::new(),
            stalling_hot_spot(12, 8),
        );
    }
}

#[test]
fn uniform_delivery_matches_golden() {
    let p = 16;
    let config = LogpConfig {
        delivery: DeliveryPolicy::Uniform,
        seed: 7,
        ..LogpConfig::default()
    };
    check(
        "uniform/all_to_all",
        UNIFORM_ALL_TO_ALL,
        LogpParams::new(p, 12, 1, 3).unwrap(),
        config,
        RunOptions::new(),
        all_to_all(p),
    );
}

/// Duplicates exercise the engine's dedup path; the capacity squeeze and
/// the stall bursts block acceptance with nothing in transit, which is
/// what schedules `Wake` re-polls.
#[test]
fn faulted_hot_spot_matches_golden() {
    let plan = FaultPlan::new(3)
        .duplicate(3)
        .capacity_squeeze(1)
        .stall_burst(11, 3);
    check(
        "faulted/hot_spot",
        FAULTED_HOT_SPOT,
        LogpParams::new(12, 12, 1, 3).unwrap(),
        LogpConfig::default(),
        RunOptions::new().faults(Arc::new(plan)),
        stalling_hot_spot(12, 8),
    );
}

/// Messages to the sleeping processor outlive many later ones, so a slab
/// that recycles slots must skip its live slots, and the wake-ups travel
/// through the bucket timeline's overflow heap.
#[test]
fn sleepy_random_cycle_ring_x4_matches_golden() {
    let p = 1024;
    check(
        "sleepy_ring_x4",
        SLEEPY_RING_X4,
        LogpParams::new(p, 16, 1, 2).unwrap(),
        LogpConfig::default(),
        RunOptions::new(),
        sleepy_ring_x4(p, 802, 7, 5_000),
    );
}

#[test]
fn random_cycle_ring_x4_across_blocks_matches_golden() {
    check(
        "ring_x4/p20000",
        RING_X4_P20000,
        LogpParams::new(BIG_P, 16, 1, 2).unwrap(),
        LogpConfig::default(),
        RunOptions::new(),
        random_ring_x4(BIG_P, 803),
    );
}

/// The sleeper sits in the first block and its sender in a late one, so
/// its messages are written into the sleeper's block by another block's
/// processor, and stay there while that block's slab churns.
#[test]
fn sleepy_ring_x4_across_blocks_matches_golden() {
    let seed = 804;
    let next = random_cycle(BIG_P, seed);
    let sender = (0..BIG_P).rev().find(|&i| next[i] < 1_024).unwrap();
    let sleeper = next[sender];
    assert!(sender >= 16_384, "sender {sender} shares a block with the sleeper");
    check(
        "sleepy_ring_x4/p20000",
        SLEEPY_RING_X4_P20000,
        LogpParams::new(BIG_P, 16, 1, 2).unwrap(),
        LogpConfig::default(),
        RunOptions::new(),
        sleepy_ring_x4(BIG_P, seed, sleeper, 5_000),
    );
}

/// Two hot spots stall at the same instant under `forbid_stalling`. The
/// one in the first block stalls a high source; the one in a late block
/// stalls a low source. The run must stop with the lowest stalled source,
/// whichever block or shard detects it first.
#[test]
fn forbid_stalling_hot_spots_across_blocks_fail_with_golden_error() {
    let params = LogpParams::new(BIG_P, 4, 1, 2).unwrap();
    let scripts = hot_spots(BIG_P, &[(0, 15_000..15_006), (16_400, 100..106)]);
    for timeline in [TimelineKind::Bucket, TimelineKind::BinaryHeap] {
        for shards in [1usize, 4] {
            let config = LogpConfig {
                timeline,
                ..LogpConfig::stall_free()
            };
            let mut m = LogpMachine::with_config(params, config, scripts.clone());
            m.instrument(&RunOptions::new().shards(shards));
            let err: ModelError = m.run().expect_err("both hot spots stall");
            assert_eq!(
                format!("{err:?}"),
                STALL_ERROR_P20000,
                "{timeline:?}, {shards} shards"
            );
        }
    }
}

/// The faulted hot spot's duplicates and `Wake` re-polls, with the two
/// destinations in different blocks and every sender in a third.
#[test]
fn faulted_hot_spots_across_blocks_match_golden() {
    let plan = FaultPlan::new(3)
        .duplicate(3)
        .capacity_squeeze(1)
        .stall_burst(11, 3);
    check(
        "faulted/hot_spots/p20000",
        FAULTED_HOT_SPOTS_P20000,
        LogpParams::new(BIG_P, 12, 1, 3).unwrap(),
        LogpConfig::default(),
        RunOptions::new().faults(Arc::new(plan)),
        hot_spots(BIG_P, &[(0, 15_000..15_012), (8_200, 12_500..12_512)]),
    );
}
