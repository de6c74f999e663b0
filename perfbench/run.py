#!/usr/bin/env python3
"""The reproduction's benchmark: cold reproduce, big-p engine, warm store and serve.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-reference   # re-record perfbench/reference.json

It builds the `lab` and outside-the-lab `exp_*` binaries and the probe
(`perfbench/probe`, a package of its own) with `cargo build --release`
into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload, checks
every output against `perfbench/reference.json`, and prints one JSON line
last: `{"correct", "attempted", "failed", "metrics"}`; after a wrong
output it exits 1. Scratch stores and per-run results go to `.bench_work/`.

Workloads (why each is here is in BENCHMARK.json):

* reproduce_cold: `lab run all` into an empty store, then the eight
  binaries outside the lab, in a seeded order, repeated for the budget.
* engine_bigp: `ring_x4` over a seeded random single cycle on
  `LogpMachine`, at p = 10^4 and p = 10^6 (the probe's `engine` command).
* warm_store: a filled store; warm `lab run all` reruns around open-loop
  Poisson traffic to `lab serve` at 100 req/s, in the request mix of the
  repo's recorded serve load (`bench_serve`). A load phase whose
  generator fell behind is invalid, not slow: it is offered once more, and
  the result file says whether the kept one is valid. The search for the
  highest rate `lab serve` sustains runs in the traced pass.

Every workload reports the same end-to-end metrics, each measured on that
workload (tracing off):

* setup_s: set-up, median of several in the run. reproduce_cold: create
  each reproduction's empty store (`lab status`); engine_bigp: build the
  p = 10^6 machine in a fresh process; warm_store: fill a store cold and
  bring `lab serve` up on it.
* ok_frac: share of attempted operations whose output was right.
* peak_rss_mb: peak RSS of the processes doing the measured work (not of
  set-up, checks or the load generator). warm_store: the warm reruns and
  the `lab serve` under load.
* wall_ms: median wall time of the workload's unit of work: one whole
  cold reproduction; one `run()` at p = 10^6; one warm `lab run all`.

Short latencies (each program of a reproduction, a `run()` at p = 10^4, a
request at 100 req/s) moved by up to 1.5x between runs on a 2-vCPU host,
with the host's speed, so they are not end-to-end metrics with a bound:
each run records them in its result file (median and the highest
percentile with at least ten samples beyond it, with the sample count),
and the traced run reports them as per-layer metrics.

`--trace 1` runs the traced pass instead: the probe's `layers` command
(cold reproduction and warm read path through the layers' public
functions, spans around each call) and its `engine` command with spans on.
It covers every layer group whatever the workload, so each traced run
reports every per-layer metric, plus the tracing overhead of each group
(traced minus untraced, measured in the same run). Spans, with parent
links, are written to `.bench_work/`.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")

# The eight experiments of `lab run all`, and the eight binaries of the
# reproduction that run outside the lab.
EXPS = ["table1", "thm1", "thm2", "faults", "stack", "sort", "stream", "bsf"]
OUTSIDE = ["thm3", "cb", "stalling", "anomalies", "xover", "partition", "radix", "ablation"]
CELL_KINDS = ["measure", "host", "route", "route-big", "superstep", "conformance",
              "stack", "sort", "stream", "bsf"]

MIN_FREE_GB = 3.0         # engine_bigp peaks near 2.8 GB
SERVE_RATE = 100.0        # req/s of the recorded serve load
SERVE_LIMIT_MS = 50.0     # p99 limit of the rate search
SEARCH_LEVEL_S = 1.5      # seconds offered at each level of the rate search
SETUPS = 9                # set-ups per warm_store run, for the median
GEN_LAG_LIMIT_MS = 10.0   # generator later than this at its tail (or 1 ms at its median): invalid


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def die(msg, code=2):
    log(msg)
    sys.exit(code)


# ---------------------------------------------------------------- host & build

def nproc():
    return len(os.sched_getaffinity(0))


def mem_available_gb():
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 2**20
    return 0.0


def host_facts():
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {
        "nproc": nproc(),
        "rayon_threads": int(os.environ.get("RAYON_NUM_THREADS") or nproc()),
        "serve_workers": conns(),
        "connections": conns(),
        "rustc": rustc,
        "mem_available_gb": round(mem_available_gb(), 2),
    }


def conns():
    """Serve workers and client connections: at most one per CPU."""
    return max(1, min(2, nproc()))


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def bin_path(name):
    return os.path.join(target_dir(), "release", name)


def build():
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(os.path.join(ROOT, "crates")):
        die("no repository here: run from the root of a checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    bins = ["lab"] + [f"exp_{e}" for e in OUTSIDE]
    cmds = [
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "bvl-bench"] + [a for b in bins for a in ("--bin", b)],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "probe", "Cargo.toml")],
    ]
    for cmd in cmds:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")


# ------------------------------------------------------------------ processes

class Proc:
    """A child process, reaped with its peak RSS. `peak_kb` is the highest
    peak of the processes that do the measured work (`work=True`); set-up,
    checks and the load generator are left out of it."""
    peak_kb = 0

    @classmethod
    def run(cls, argv, stderr=subprocess.DEVNULL, work=True):
        """Run to completion; returns (returncode, stdout bytes, seconds)."""
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr)
        out = p.stdout.read()
        p.stdout.close()
        rc = cls.reap(p, work)
        return rc, out, time.perf_counter() - t0

    @classmethod
    def reap(cls, p, work):
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        if work:
            cls.peak_kb = max(cls.peak_kb, ru.ru_maxrss)
        return p.returncode


def fresh_dir(name):
    d = os.path.join(WORK, name)
    shutil.rmtree(d, ignore_errors=True)
    return d


# ----------------------------------------------------------------- references

def sha(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def lab_table(stdout):
    """`lab run all` stdout without its elapsed column (a timing)."""
    lines = []
    for line in stdout.decode().splitlines():
        if line.startswith("|"):
            fields = line.split("|")
            line = "|".join(fields[:-2] + fields[-1:])
        lines.append(line)
    return "\n".join(lines)


def rows_digest(cells):
    """Digest of an experiment's stored cells: [domain, index, params, plan, rows]."""
    canon = sorted(json.dumps(c, separators=(",", ":")) for c in cells)
    return sha("\n".join(canon))


def served_cells(body):
    doc = json.loads(body)
    return [[c["domain"], c["index"], c["params"], c["plan"], c["payload"]] for c in doc["cells"]]


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {REFERENCE}: {e}")


def write_reference():
    """Record the references from the programs as built now. Run it only on
    a commit whose outputs are known to be right."""
    build()
    ref = {"outside_stdout": {}, "rows": {}, "grids": {}}
    d = fresh_dir("reference-store")
    rc, out, _ = Proc.run([bin_path("lab"), "run", "all", "--dir", d])
    if rc != 0:
        die("lab run all failed")
    ref["lab_cold"] = sha(lab_table(out))
    rc, out, _ = Proc.run([bin_path("lab"), "run", "all", "--dir", d])
    ref["lab_warm"] = sha(lab_table(out))
    for line in out.decode().splitlines()[2:]:
        f = [x.strip() for x in line.strip("|").split("|")]
        ref["grids"][f[0]] = {"cells": int(f[1]), "forced": int(f[4])}
    for e in OUTSIDE:
        rc, out, _ = Proc.run([bin_path(f"exp_{e}")])
        if rc != 0:
            die(f"exp_{e} failed")
        ref["outside_stdout"][e] = sha(out)
    with Server(d) as srv:
        for e in EXPS:
            ref["rows"][e] = rows_digest(served_cells(srv.get(f"/cells?exp={e}")))
        ref["stored_cells"] = json.loads(srv.get("/status"))["cells"]
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {REFERENCE}")


# --------------------------------------------------------------------- server

class Server:
    """`lab serve` on a store, on an ephemeral port, stopped on exit. Its
    peak RSS counts in `Proc.peak_kb` when it serves the measured work."""

    def __init__(self, store, work=False):
        self.store = store
        self.work = work

    def __enter__(self):
        self.p = subprocess.Popen(
            [bin_path("lab"), "serve", "--addr", "127.0.0.1:0", "--workers", str(conns()), "--dir", self.store],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.p.stdout.readline().decode()
        if "serving" not in line:
            self.__exit__()
            die(f"lab serve did not start: {line!r}")
        self.addr = line.split()[2]
        for _ in range(500):
            try:
                self.get("/status")
                return self
            except OSError:
                time.sleep(0.002)
        self.__exit__()
        die("lab serve did not answer GET /status")

    def get(self, path):
        host, port = self.addr.rsplit(":", 1)
        c = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            c.request("GET", path)
            r = c.getresponse()
            body = r.read()
            if r.status != 200:
                raise OSError(f"GET {path}: {r.status}")
            return body
        finally:
            c.close()

    def peak_kb(self):
        try:
            with open(f"/proc/{self.p.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def __exit__(self, *exc):
        if self.work:
            Proc.peak_kb = max(Proc.peak_kb, self.peak_kb())
        self.p.kill()
        self.p.stdout.close()
        self.p.wait()


# ---------------------------------------------------------------- statistics

def median(xs):
    return statistics.median(xs)


def tail(xs):
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(xs)
    return s[max(0, len(s) - 11)]


def latency(xs):
    """Median and tail of a latency sample, with the count and the tail's
    percentile; a sample of 20 or fewer has no tail above its median."""
    n = len(xs)
    if n <= 20:
        return {"p50": median(xs), "tail": None, "tail_pct": None, "n": n}
    return {"p50": median(xs), "tail": tail(xs), "tail_pct": round(100 * (n - 10) / n, 2), "n": n}


def lag_ok(lat):
    """Whether the generator kept to its schedule in a load run: a load run
    whose generator fell behind measured the client, not the server, and is
    invalid rather than slow."""
    lags = [g for _, g in lat]
    return bool(lags) and tail(lags) <= GEN_LAG_LIMIT_MS and median(lags) <= 1.0


def metric(value, unit):
    return {"value": value, "unit": unit}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"WRONG: {what}")


# ------------------------------------------------------------------ workloads

def reproduce_cold(seed, seconds, tally, detail):
    ref = load_reference()
    rng = random.Random(seed)
    setup, walls, ops, lab_s = [], [], [], []
    # The first reproduction of a run is checked but not timed: on a 2-vCPU
    # host the first seconds after a pause ran up to 1.5x slower.
    warm_up = True
    start = time.perf_counter()
    while len(walls) < 3 or time.perf_counter() - start < seconds:
        units = ["lab"] + OUTSIDE
        rng.shuffle(units)
        # Set-up: create the reproduction's empty store.
        store = fresh_dir("cold-store")
        rc, _, dt_setup = Proc.run([bin_path("lab"), "status", "--dir", store], work=False)
        tally.check(rc == 0, "lab status on an empty store")
        t0 = time.perf_counter()
        times = {}
        for u in units:
            if u == "lab":
                rc, out, dt = Proc.run([bin_path("lab"), "run", "all", "--dir", store])
                tally.check(rc == 0 and sha(lab_table(out)) == ref["lab_cold"], "lab run all (cold) output")
            else:
                rc, out, dt = Proc.run([bin_path(f"exp_{u}")])
                tally.check(rc == 0 and sha(out) == ref["outside_stdout"][u], f"exp_{u} output")
            times[u] = dt * 1e3
        wall = (time.perf_counter() - t0) * 1e3
        # The rows the cold `lab run all` stored, checked outside the timed
        # wall: its stdout is only a summary of counts.
        check_rows(store, tally, ref, "cold")
        if warm_up:
            warm_up = False
            continue
        setup.append(dt_setup)
        walls.append(wall)
        ops.extend(times.values())
        lab_s.append(times["lab"])
    detail.update(reproduction_ms=latency(walls), lab_run_all_ms=median(lab_s), program_ms=latency(ops))
    return {"setup_s": median(setup), "wall_ms": median(walls)}


def check_rows(store, tally, ref, what):
    """Check every experiment's stored rows, served by `lab serve`."""
    with Server(store) as srv:
        for e in EXPS:
            try:
                ok = rows_digest(served_cells(srv.get(f"/cells?exp={e}"))) == ref["rows"][e]
            except (OSError, ValueError, KeyError, TypeError):
                ok = False
            tally.check(ok, f"{e} {what} rows")


def require_memory():
    free = mem_available_gb()
    if free < MIN_FREE_GB:
        die(f"engine_bigp needs {MIN_FREE_GB} GB free and {free:.2f} GB is available; "
            "refusing rather than swapping", code=3)


def probe(args, out_name, work=True):
    out = os.path.join(WORK, out_name)
    rc, _, _ = Proc.run([bin_path("bvl-perfbench")] + args + ["--out", out], stderr=sys.stderr, work=work)
    if rc != 0:
        die(f"probe {args[0]} failed with exit code {rc}")
    with open(out) as f:
        return json.load(f)


def check_engine(facts, tally):
    """Each ring_x4 run was checked in the probe: makespan 72, and every
    processor sent and received four messages (4p delivered)."""
    tally.attempted += facts["attempted"]
    tally.failed += facts["failed"]
    if facts["failed"]:
        log(f"WRONG: {facts['failed']} ring_x4 run(s) with a wrong makespan or delivered count")


def engine_bigp(seed, seconds, tally, detail):
    require_memory()
    setup = [probe(["construct", "--seed", str(seed + i)], "construct.json")["construct_ms"] for i in range(9)]
    facts = probe(["engine", "--seed", str(seed), "--seconds", str(seconds), "--min-big", "2"], "engine.json")
    check_engine(facts, tally)
    detail.update(warmup_run_ms_p1e4=facts["warmup_run_ms_p1e4"], run_ms_p1e4=latency(facts["run_ms_p1e4"]),
                  run_ms_p1e6=facts["run_ms_p1e6"])
    return {"setup_s": median(setup) / 1e3, "wall_ms": median(facts["run_ms_p1e6"])}


def check_load(load, tally, ref, warm_rows=None):
    """Check every response of a load run; returns per-request
    (latency ms, generator lag ms) in arrival order."""
    reqs = sorted(load["requests"], key=lambda r: r[2])
    bad_keys = set()
    for key, seen in load["bodies"].items():
        kind, _, exp = key.partition("/")
        try:
            if kind == "cells":
                cells = served_cells(seen[0][1])
                ok = len(seen) == 1 and rows_digest(cells) == ref["rows"][exp]
                if warm_rows is not None:
                    ok = ok and rows_digest(cells) == rows_digest(warm_rows[exp])
            elif kind == "run":
                doc = json.loads(seen[0][1])
                g = ref["grids"][exp]
                ok = (len(seen) == 1 and doc["cells"] == g["cells"] and doc["forced"] == g["forced"]
                      and doc["misses"] == g["forced"] and doc["hits"] == g["cells"] - g["forced"])
            elif kind == "status":
                ok = json.loads(seen[-1][1])["cells"] == ref["stored_cells"]
            else:
                doc = json.loads(seen[-1][1])
                ok = "serve" in doc and "counters" in doc
        except (ValueError, KeyError, IndexError, TypeError):
            ok = False
        if not ok:
            log(f"WRONG: responses to {key}")
            bad_keys.add(key)
    out = []
    for kind, exp, due, free, send, done, ok in reqs:
        key = f"{kind}/{exp}" if kind in ("cells", "run") else kind
        tally.check(ok and key not in bad_keys, f"{kind} {exp} response (status or body)")
        out.append(((done - due) / 1e3, (send - max(due, free)) / 1e3))
    return out


def offer(srv, rate, secs, seed, name):
    return probe(["load", "--addr", srv.addr, "--rate", str(rate), "--secs", str(secs),
                  "--seed", str(seed), "--conns", str(conns())], name, work=False)["load"]


def p99(xs):
    s = sorted(xs)
    return s[min(len(s) - 1, int(0.99 * len(s)))]


def rate_search(srv, seed, tally, ref):
    """The highest offered rate whose p99 stays under SERVE_LIMIT_MS with no
    growing backlog. Levels lie on the grid 1000 * 2^(k/8) req/s: step up
    (or down) by doublings until the limit is crossed, bisect to adjacent
    levels, then interpolate the crossing in log-log space between them."""
    levels = {}

    def level(k):
        load = offer(srv, 1000 * 2 ** (k / 8), SEARCH_LEVEL_S, seed + 1000 + k, "load-search.json")
        lat = [l for l, _ in check_load(load, tally, ref)]
        q = max(1, len(lat) // 4)
        growing = median(lat[-q:]) > 2 * median(lat[:q]) + 1.0
        held = len(lat) >= 100 and p99(lat) <= SERVE_LIMIT_MS and not growing and all(r[6] for r in load["requests"])
        levels[k] = (held, p99(lat) if lat else float("inf"))
        return held

    k, step = 0, 8 if level(0) else -8
    while -32 < k < 48 and levels[k][0] == (step > 0):
        k += step
        level(k)
    held = [j for j, (ok, _) in levels.items() if ok]
    if not held:
        return 1000 * 2 ** (min(levels) / 8), levels
    lo = max(held)
    hi = min((j for j in levels if j > lo), default=None)
    while hi is not None and hi - lo > 1:
        mid = (lo + hi) // 2
        if level(mid):
            lo = mid
        else:
            hi = mid
    if hi is None:
        return 1000 * 2 ** (lo / 8), levels
    t_lo, t_hi = max(levels[lo][1], 1e-3), levels[hi][1]
    x = min(1.0, max(0.0, math.log(SERVE_LIMIT_MS / t_lo) / math.log(t_hi / t_lo))) if t_hi > t_lo else 0.0
    return 1000 * 2 ** ((lo + x * (hi - lo)) / 8), levels


def warm_store(seed, seconds, tally, detail):
    ref = load_reference()
    setup = []
    for i in range(SETUPS):
        store = fresh_dir(f"warm-store-{i}")
        t0 = time.perf_counter()
        rc, out, _ = Proc.run([bin_path("lab"), "run", "all", "--dir", store], work=False)
        tally.check(rc == 0 and sha(lab_table(out)) == ref["lab_cold"], "lab run all (fill) output")
        with Server(store):
            setup.append(time.perf_counter() - t0)
    check_rows(store, tally, ref, "filled")
    # Warm reruns are read-only on the store; half run before the serve
    # phase and half after, so their median spans the whole run.
    reruns = []

    def rerun(budget):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < budget:
            rc, out, dt = Proc.run([bin_path("lab"), "run", "all", "--dir", store])
            tally.check(rc == 0 and sha(lab_table(out)) == ref["lab_warm"], "lab run all (warm) output")
            reruns.append(dt * 1e3)

    secs = 10.5  # at least 1000 samples at 100 req/s
    rerun(max(1.0, (seconds - secs) / 2))
    with Server(store, work=True) as srv:
        for attempt in range(2):
            lat = check_load(offer(srv, SERVE_RATE, secs, seed + attempt, "load.json"), tally, ref)
            valid = lag_ok(lat)
            if valid:
                break
            log("generator fell behind: load phase invalid" + ("" if attempt else ", repeating it"))
        peak_serve = srv.peak_kb()
    rerun(max(1.0, (seconds - secs) / 2))
    detail.update(reruns=len(reruns), request_ms=latency([l for l, _ in lat]), load_valid=valid,
                  gen_lag_tail_ms=tail([g for _, g in lat]), serve_peak_kb=peak_serve)
    return {"setup_s": median(setup), "wall_ms": median(reruns)}


# ---------------------------------------------------------------- traced run

def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def union_ns(intervals, lo, hi):
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def traced(seed, tally, detail):
    require_memory()
    ref = load_reference()
    layer_spans = os.path.join(WORK, "spans-layers.jsonl")
    engine_spans = os.path.join(WORK, "spans-engine.jsonl")
    lf = probe(["layers", "--seed", str(seed), "--bins", os.path.dirname(bin_path("lab")),
                "--work", WORK, "--secs", "10.5", "--conns", str(conns()), "--spans", layer_spans], "layers.json")
    ef = probe(["engine", "--seed", str(seed), "--seconds", "3", "--min-big", "1",
                "--spans", engine_spans], "engine-traced.json")

    # Correctness of the traced pass.
    tally.check(lf["cold_violations"] == 0 and lf["warm_violations"] == 0, "lower-bound audit")
    tally.check(lf["outside_failed"] == 0, "outside binaries exit status")
    for e in EXPS:
        tally.check(rows_digest(lf["cold_rows"][e]) == ref["rows"][e], f"{e} cold rows")
        tally.check(rows_digest(lf["warm_rows"][e]) == ref["rows"][e], f"{e} warm rows")
    for e in OUTSIDE:
        with open(os.path.join(WORK, f"layers-exp_{e}.stdout"), "rb") as f:
            tally.check(sha(f.read()) == ref["outside_stdout"][e], f"exp_{e} output")
    lat = check_load(lf["load"], tally, ref, warm_rows=lf["warm_rows"])
    check_engine(ef, tally)

    spans = load_spans(layer_spans)
    by_id = {s["id"]: s for s in spans}

    def root_of(s):
        while s["parent"]:
            s = by_id[s["parent"]]
        return s["name"]

    def dur(s):
        return (s["end_ns"] - s["start_ns"]) / 1e6

    cold = [s for s in spans if root_of(s) == "reproduce"]
    warm = [s for s in spans if root_of(s) == "warm"]
    m = {}
    m["scenario.compile_ms"] = (sum(dur(s) for s in cold if s["name"] == "scenario.compile"), "ms")
    m["scenario.audit_ms"] = (sum(dur(s) for s in cold if s["name"] == "scenario.audit"), "ms")
    grids = sorted((s for s in cold if s["name"] == "lab.run_grid"), key=lambda s: s["start_ns"])
    cells = [s for s in cold if s["name"].startswith("cell.")]
    # A grid's wall time is its self time plus the time its cell spans
    # cover; cell time over threads x wall is the sweep's efficiency.
    wall_ns, cover_ns, cell_ns, capacity = 0, 0, 0, 0
    for g, info in zip(grids, lf["cold_grids"]):
        kids = [(c["start_ns"], c["end_ns"]) for c in cells if c["parent"] == g["id"]]
        wall = g["end_ns"] - g["start_ns"]
        wall_ns += wall
        cover_ns += union_ns(kids, g["start_ns"], g["end_ns"])
        cell_ns += sum(e - s for s, e in kids)
        capacity += max(1, info[5]) * wall
    m["lab.run_grid_ms"] = (wall_ns / 1e6, "ms")
    m["lab.run_grid_self_ms"] = ((wall_ns - cover_ns) / 1e6, "ms")
    m["lab.store_bytes_written"] = (lf["store_bytes_written"], "bytes")
    m["lab.miss_frac"] = (lf["cold_misses"] / lf["cold_cells"], "share")
    m["lab.sweep_efficiency"] = (cell_ns / capacity, "share")
    m["lab.max_cell_ms"] = (max(dur(c) for c in cells), "ms")
    for k in CELL_KINDS:
        mine = [dur(c) for c in cells if c["name"] == f"cell.{k}"]
        m[f"cell.{k}_ms"] = (sum(mine), "ms")
        m[f"cell.{k}_count"] = (len(mine), "count")
    m["bench.render_ms"] = (sum(dur(s) for s in cold if s["name"] == "bench.render"), "ms")
    for e in OUTSIDE:
        m[f"exp.{e}_s"] = (sum(dur(s) for s in cold if s["name"] == f"exp.{e}") / 1e3, "s")

    espans = load_spans(engine_spans)
    ring = {s["label"]: s["id"] for s in espans if s["name"] == "engine.ring"}

    def engine_runs(name, label):
        return sorted((s for s in espans if s["name"] == name and s["label"] == label
                       and s["parent"] == ring.get(label)), key=lambda s: s["start_ns"])

    small = [dur(s) for s in engine_runs("logp.run", "p=10000")][1:]  # first run is warm-up
    big = [dur(s) for s in engine_runs("logp.run", "p=1000000")]
    m["logp.construct_ms"] = (median([dur(s) for s in espans if s["name"] == "logp.construct"
                                      and s["label"] == "p=1000000"]), "ms")
    m["logp.run_ms_p1e4"] = (median(small), "ms")
    m["logp.run_ms_p1e6"] = (median(big), "ms")
    m["logp.ns_per_msg_p1e4"] = (median(small) * 1e6 / ef["msgs_p1e4"], "ns")
    m["logp.ns_per_msg_p1e6"] = (median(big) * 1e6 / ef["msgs_p1e6"], "ns")
    m["logp.drop_ms"] = (median([dur(s) for s in engine_runs("logp.drop", "p=1000000")]), "ms")
    m["logp.bytes_per_proc"] = (ef["rss_delta_kb_p1e6"] * 1024 / 1e6, "bytes")
    m["logp.delivered"] = (ef["delivered_p1e6"], "count")
    m["logp.makespan"] = (ef["makespan_p1e6"], "steps")

    opens = sorted((s for s in warm if s["name"] == "lab.store_open"), key=lambda s: s["start_ns"])
    m["lab.store_open_ms"] = (dur(opens[0]) if opens else 0.0, "ms")
    for e in EXPS:
        m[f"lab.run_grid_hit_ms.{e}"] = (sum(dur(s) for s in warm if s["name"] == "lab.run_grid_hit"
                                             and s["label"] == e), "ms")
    m["lab.hit_frac"] = (lf["warm_hits"] / lf["warm_cells"], "share")
    m["lab.forced_cell_ms"] = (sum(dur(s) for s in warm if s["name"].startswith("cell.")), "ms")
    m["http.server_p50_us"] = (lf["server_p50_us"], "us")
    m["http.server_p99_us"] = (lf["server_p99_us"], "us")
    client_mean = statistics.mean(l for l, _ in lat)
    m["http.queue_ms"] = (client_mean - lf["server_mean_us"] / 1e3, "ms")
    m["http.client_p50_ms"] = (median([l for l, _ in lat]), "ms")
    m["http.client_p99_ms"] = (p99([l for l, _ in lat]), "ms")
    m["gen.lag_ms"] = (tail([g for _, g in lat]), "ms")
    detail.update(load_valid=lag_ok(lat))

    with Server(os.path.join(WORK, "layers-store")) as srv:
        max_rps, levels = rate_search(srv, seed, tally, ref)
    m["http.max_rps"] = (max_rps, "1/s")
    detail.update(search=sorted((round(1000 * 2 ** (k / 8)), ok, round(t, 2)) for k, (ok, t) in levels.items()))

    m["trace.cold_overhead_ms"] = (lf["cold_traced_ms"] - lf["cold_untraced_ms"], "ms")
    m["trace.warm_overhead_ms"] = (lf["warm_traced_ms"] - lf["warm_untraced_ms"], "ms")
    m["trace.engine_overhead_ms"] = (median(ef["run_ms_p1e4_traced"]) - median(ef["run_ms_p1e4_untraced"]), "ms")
    detail.update(spans=[layer_spans, engine_spans], span_count=len(spans) + len(espans))
    return {k: metric(v, u) for k, (v, u) in m.items()}


# ----------------------------------------------------------------------- main

UNITS = {"setup_s": "s", "ok_frac": "share", "peak_rss_mb": "MB", "wall_ms": "ms"}
WORKLOADS = {"reproduce_cold": reproduce_cold, "engine_bigp": engine_bigp, "warm_store": warm_store}


def declared_metrics(kind):
    """The metric names BENCHMARK.json declares, or None without the file."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return [m["name"] for m in json.load(f)[kind]]
    except OSError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    a = ap.parse_args()
    if a.write_reference:
        os.makedirs(WORK, exist_ok=True)
        write_reference()
        return
    if not a.workload:
        ap.error("--workload is required")
    build()
    os.makedirs(WORK, exist_ok=True)
    host = host_facts()
    tally, detail = Tally(), {}
    if a.trace:
        metrics = traced(a.seed, tally, detail)
    else:
        if a.workload == "engine_bigp":
            require_memory()
        values = WORKLOADS[a.workload](a.seed, a.seconds, tally, detail)
        values["ok_frac"] = 1 - tally.failed / max(1, tally.attempted)
        values["peak_rss_mb"] = Proc.peak_kb / 1024
        metrics = {k: metric(values[k], UNITS[k]) for k in UNITS}
    declared = declared_metrics("per_layer" if a.trace else "end_to_end")
    if declared is not None and set(declared) != set(metrics):
        die(f"metrics differ from BENCHMARK.json: {sorted(set(declared) ^ set(metrics))}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
              "host": host, "detail": detail, "result": result}
    with open(os.path.join(WORK, f"result-{a.workload}-{a.seed}-{a.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    if tally.failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
