//! Cache-key and payload stability — the satellite contract:
//!
//! * identical `RunOptions` / domain points hash identically across
//!   `RAYON_NUM_THREADS` 1, 2 and 4, and across process restarts;
//! * the code fingerprint moves when the public-API inventory moves;
//! * a store written under a stale code fingerprint is detected
//!   (the check `lab diff` builds on).

use bvl_lab::{run_grid, CellSpec, CodeFingerprint, GridSpec, Job, OnStale, Store};
use bvl_obs::Registry;
use rand::RngCore;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-lab-stab-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn grid() -> GridSpec {
    let mut g = GridSpec::new("stability", 1996);
    for i in 0..12 {
        g = g.cell(CellSpec::new("points", i, format!("p={}", 1 << i)));
    }
    g.cell(CellSpec::new("adversarial", 0, "p=64").plan("seed=3,dup=2,delay=5"))
}

fn body(cell: &CellSpec, mut job: Job) -> Vec<Vec<String>> {
    // Two rows per cell, mixing params, index arithmetic and seeded draws,
    // so any seeding drift shows up in the payload.
    vec![
        vec![cell.params.clone(), job.rng.next_u64().to_string()],
        vec![job.index.to_string(), job.rng.next_u64().to_string()],
    ]
}

/// Keys and payloads must not depend on worker-pool width. One test owns
/// the env toggling (integration tests in this file avoid racing it by not
/// reading `RAYON_NUM_THREADS` elsewhere).
#[test]
fn keys_and_payloads_identical_across_thread_counts() {
    let g = grid();
    let code = CodeFingerprint::from_parts("stability-api", "0");
    let keys: Vec<String> = g.cells.iter().map(|c| g.key_of(&code, c)).collect();
    let reg = Registry::disabled();

    let mut payloads = Vec::new();
    for threads in ["1", "2", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        // Keys are pure functions of the request — no thread dependence.
        let now: Vec<String> = g.cells.iter().map(|c| g.key_of(&code, c)).collect();
        assert_eq!(keys, now, "keys moved at RAYON_NUM_THREADS={threads}");

        // Cold run, then a warm run against a fresh store (a "process
        // restart" is an open of the same directory; the scheduler tests
        // cover reopen, here each width gets its own store).
        let dir = tmpdir(&format!("threads-{threads}"));
        let store = Store::open(&dir, code.clone(), OnStale::Error).unwrap();
        let cold = run_grid(&g, Some(&store), &reg, body).unwrap();
        assert_eq!(cold.misses, 13, "at RAYON_NUM_THREADS={threads}");
        let warm = run_grid(&g, Some(&store), &reg, body).unwrap();
        assert_eq!(warm.hits, 13, "at RAYON_NUM_THREADS={threads}");
        assert_eq!(cold.rows, warm.rows);
        payloads.push(cold.rows);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::env::remove_var("RAYON_NUM_THREADS");

    assert_eq!(payloads[0], payloads[1], "1 vs 2 threads diverged");
    assert_eq!(payloads[0], payloads[2], "1 vs 4 threads diverged");
}

/// A store survives a process restart byte-for-byte: reopen the directory
/// with an equal (recomputed) fingerprint and serve every cell as a hit.
#[test]
fn reopened_store_serves_identical_payloads() {
    let g = grid();
    let dir = tmpdir("restart");
    let reg = Registry::disabled();
    let cold = {
        let code = CodeFingerprint::from_parts("stability-api", "0");
        let store = Store::open(&dir, code, OnStale::Error).unwrap();
        run_grid(&g, Some(&store), &reg, body).unwrap()
    };
    // "Restart": a brand-new store value over the same directory, with the
    // fingerprint recomputed from the same inputs (as a fresh process would).
    let code = CodeFingerprint::from_parts("stability-api", "0");
    let store = Store::open(&dir, code, OnStale::Error).unwrap();
    let warm = run_grid(&g, Some(&store), &reg, body).unwrap();
    assert_eq!((warm.hits, warm.misses), (13, 0));
    assert_eq!(cold.rows, warm.rows);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `lab diff` signal: opening a store written by a different code
/// generation reports staleness instead of serving stale cells.
#[test]
fn stale_code_fingerprint_is_detected() {
    let g = grid();
    let dir = tmpdir("stale");
    let reg = Registry::disabled();
    let old_code = CodeFingerprint::from_parts("stability-api", "0");
    {
        let store = Store::open(&dir, old_code.clone(), OnStale::Error).unwrap();
        run_grid(&g, Some(&store), &reg, body).unwrap();
    }

    // The public-API inventory changed: the fingerprint must move...
    let new_code = CodeFingerprint::from_parts("stability-api + pub fn added", "0");
    assert_ne!(old_code, new_code);

    // ...`OnStale::Keep` (what `lab diff` uses) reports the writer...
    let kept = Store::open(&dir, new_code.clone(), OnStale::Keep).unwrap();
    assert_eq!(kept.stale(), Some(old_code.as_str()));
    assert_eq!(kept.len(), 13, "diff still sees the stale cells");
    drop(kept);

    // ...`OnStale::Error` refuses...
    let err = Store::open(&dir, new_code.clone(), OnStale::Error).unwrap_err();
    assert!(err.to_string().contains("written by code"), "{err}");

    // ...and `OnStale::Invalidate` archives and recomputes everything.
    let store = Store::open(&dir, new_code, OnStale::Invalidate).unwrap();
    assert_eq!(store.len(), 0);
    let recomputed = run_grid(&g, Some(&store), &reg, body).unwrap();
    assert_eq!((recomputed.hits, recomputed.misses), (0, 13));
    std::fs::remove_dir_all(&dir).unwrap();
}
