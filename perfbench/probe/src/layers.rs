//! The traced pass over the lab: what `lab run all`, the eight binaries
//! outside the lab and `lab serve` do, rebuilt from the layers' public
//! functions so that each call can carry a span.
//!
//! * cold: an empty store; per experiment, parse and compile its shipped
//!   scenario (`scenario.compile`), run each grid (`lab.run_grid`, one
//!   `cell.<kind>` child span per computed cell), audit it
//!   (`scenario.audit`); then render the tables (`bench.render`). The
//!   eight outside binaries run as processes (`exp.<name>`), in a seeded
//!   order together with the lab sweep.
//! * warm: reopen the same store (`lab.store_open`), rerun every grid
//!   (`lab.run_grid_hit`: hits, plus the forced cells), then serve the
//!   store in-process and offer the warm_store request mix at 100 req/s.
//!
//! Each part is also run untraced, alternating with traced runs, so the
//! cost of recording spans can be reported as traced minus untraced.

use crate::load;
use crate::trace::Tracer;
use crate::{json_str, Facts, Rng, EXPS};
use bvl_bench::labexp::Lab;
use bvl_bench::{print_table, scn};
use bvl_lab::{run_grid, serve, Service};
use bvl_obs::{Hist, Registry};
use bvl_scenario::{compile, parse, Work};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// The binaries of the reproduction that run outside the lab.
const OUTSIDE: [&str; 8] = [
    "thm3",
    "cb",
    "stalling",
    "anomalies",
    "xover",
    "partition",
    "radix",
    "ablation",
];

fn kind_of(work: &Work) -> &'static str {
    match work {
        Work::Measure { .. } => "measure",
        Work::Host { .. } => "host",
        Work::Route { .. } => "route",
        Work::RouteBig { .. } => "route-big",
        Work::Superstep { .. } => "superstep",
        Work::Conformance { .. } => "conformance",
        Work::Stack { .. } => "stack",
        Work::Sort { .. } => "sort",
        Work::Stream { .. } => "stream",
        Work::Bsf { .. } => "bsf",
    }
}

/// What one pass over the eight lab experiments saw.
#[derive(Default)]
struct LabPass {
    cells: usize,
    hits: usize,
    misses: usize,
    forced: usize,
    violations: usize,
    /// (exp, cells, hits, misses, forced, threads, wall ms) per grid.
    grids: Vec<String>,
    /// Per experiment: the stored (non-forced) cells as
    /// `[domain, index, params, plan, rows]`.
    rows: Vec<(String, Vec<String>)>,
}

/// `lab run all` through the public functions, into `dir`. `grid_span`
/// names the span around each `run_grid` call.
fn lab_pass(tr: &Tracer, parent: u64, dir: &Path, grid_span: &str, render: bool) -> LabPass {
    let mut pass = LabPass::default();
    let s = tr.begin("lab.store_open", parent);
    let lab = Lab::from_dir(Some(dir.to_string_lossy()));
    tr.end(s);
    let mut summary = Vec::new();
    let mut tables = Vec::new();
    for exp in EXPS {
        let s = tr.begin_labeled("scenario.compile", exp, parent);
        let text = scn::shipped(exp).expect("every lab experiment ships a scenario");
        let compiled = parse(text)
            .map_err(|e| e.to_string())
            .and_then(|doc| compile(&doc, false).map_err(|e| e.to_string()));
        tr.end(s);
        let compiled = match compiled {
            Ok(c) => c,
            Err(e) => {
                eprintln!("layers: scenario {exp} does not compile: {e}");
                pass.violations += 1;
                continue;
            }
        };
        let mut exp_rows = Vec::new();
        let (mut cells, mut hits, mut misses, mut forced) = (0, 0, 0, 0);
        for grid in &compiled.grids {
            let g = tr.begin_labeled(grid_span, exp, parent);
            let gid = g.id();
            let t0 = Instant::now();
            let rep = run_grid(
                &grid.spec,
                lab.store.as_ref(),
                &lab.registry,
                |cell, job| {
                    let work = scn::work_for(grid, cell);
                    let c = tr.begin_labeled(&format!("cell.{}", kind_of(work)), &cell.params, gid);
                    let rows = scn::run_work(work, cell, job, None).0;
                    tr.end(c);
                    rows
                },
            );
            let wall = t0.elapsed().as_secs_f64() * 1e3;
            tr.end(g);
            let rep = match rep {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("layers: grid {exp} failed: {e}");
                    pass.violations += 1;
                    continue;
                }
            };
            let a = tr.begin_labeled("scenario.audit", exp, parent);
            let violations = scn::audit(grid, &rep.rows);
            tr.end(a);
            pass.violations += violations.len();
            pass.grids.push(format!(
                "[{},{},{},{},{},{},{wall}]",
                json_str(exp),
                rep.rows.len(),
                rep.hits,
                rep.misses,
                rep.forced,
                rep.threads
            ));
            cells += rep.rows.len();
            hits += rep.hits;
            misses += rep.misses;
            forced += rep.forced;
            for (cell, rows) in grid.spec.cells.iter().zip(&rep.rows) {
                tables.extend(rows.iter().cloned());
                if cell.force {
                    continue;
                }
                let rows: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        let r: Vec<String> = r.iter().map(|c| json_str(c)).collect();
                        format!("[{}]", r.join(","))
                    })
                    .collect();
                exp_rows.push(format!(
                    "[{},{},{},{},[{}]]",
                    json_str(&cell.domain),
                    cell.index,
                    json_str(&cell.params),
                    cell.plan.as_deref().map_or("null".into(), json_str),
                    rows.join(",")
                ));
            }
        }
        summary.push(vec![
            exp.to_string(),
            cells.to_string(),
            hits.to_string(),
            misses.to_string(),
            forced.to_string(),
        ]);
        pass.cells += cells;
        pass.hits += hits;
        pass.misses += misses;
        pass.forced += forced;
        pass.rows.push((exp.to_string(), exp_rows));
    }
    if render {
        let r = tr.begin("bench.render", parent);
        print_table(
            &["experiment", "cells", "hits", "misses", "forced"],
            &summary,
        );
        let width = tables.iter().map(Vec::len).max().unwrap_or(0);
        let headers: Vec<String> = (0..width).map(|i| format!("c{i}")).collect();
        let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
        print_table(&headers, &tables);
        tr.end(r);
    }
    pass
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

fn fresh(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

fn pass_facts(facts: &mut Facts, prefix: &str, pass: &LabPass) {
    facts.int(&format!("{prefix}_cells"), pass.cells as u64);
    facts.int(&format!("{prefix}_hits"), pass.hits as u64);
    facts.int(&format!("{prefix}_misses"), pass.misses as u64);
    facts.int(&format!("{prefix}_forced"), pass.forced as u64);
    facts.int(&format!("{prefix}_violations"), pass.violations as u64);
    facts.raw(
        &format!("{prefix}_grids"),
        format!("[{}]", pass.grids.join(",")),
    );
    let rows: Vec<String> = pass
        .rows
        .iter()
        .map(|(exp, rows)| format!("{}:[{}]", json_str(exp), rows.join(",")))
        .collect();
    facts.raw(&format!("{prefix}_rows"), format!("{{{}}}", rows.join(",")));
}

pub fn run(
    seed: u64,
    bins: &Path,
    work: &Path,
    secs: f64,
    conns: usize,
    tr: &Tracer,
    facts: &mut Facts,
) {
    let untraced = Tracer::new(false);
    let store = work.join("layers-store");
    let scratch = work.join("layers-scratch");

    // Cold: untraced and traced sweeps alternate into a scratch store (the
    // traced ones keep no spans) to price the recording; then the traced
    // reproduction, whose store the warm part reads.
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    for i in 0..6 {
        let quiet = Tracer::new(true);
        let (t, times) = if i % 2 == 0 {
            (&untraced, &mut untraced_ms)
        } else {
            (&quiet, &mut traced_ms)
        };
        fresh(&scratch);
        let t0 = Instant::now();
        lab_pass(t, 0, &scratch, "lab.run_grid", true);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    fresh(&scratch);

    fresh(&store);
    let mut order: Vec<&str> = std::iter::once("lab").chain(OUTSIDE).collect();
    let mut rng = Rng::new(seed ^ 0xc01d);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let root = tr.begin("reproduce", 0);
    let mut outside_failed = 0u64;
    let mut cold = LabPass::default();
    for unit in order {
        if unit == "lab" {
            let s = tr.begin("lab.run_all", root.id());
            cold = lab_pass(tr, s.id(), &store, "lab.run_grid", true);
            tr.end(s);
            continue;
        }
        let out = work.join(format!("layers-exp_{unit}.stdout"));
        let s = tr.begin(&format!("exp.{unit}"), root.id());
        let status = std::fs::File::create(&out).and_then(|f| {
            Command::new(bins.join(format!("exp_{unit}")))
                .stdout(f)
                .stderr(Stdio::null())
                .status()
        });
        tr.end(s);
        if !matches!(status, Ok(s) if s.success()) {
            eprintln!("layers: exp_{unit} failed: {status:?}");
            outside_failed += 1;
        }
    }
    tr.end(root);
    facts.int("store_bytes_written", dir_bytes(&store));
    facts.num("cold_untraced_ms", median(untraced_ms));
    facts.num("cold_traced_ms", median(traced_ms));
    facts.int("outside_failed", outside_failed);
    pass_facts(facts, "cold", &cold);

    // Warm: traced and untraced reruns alternate on the filled store.
    let root = tr.begin("warm", 0);
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut warm = LabPass::default();
    for i in 0..6 {
        let t0 = Instant::now();
        if i % 2 == 0 {
            lab_pass(&untraced, 0, &store, "lab.run_grid_hit", false);
            untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        } else {
            // Only the last traced rerun keeps its spans.
            let keep = i == 5;
            let quiet = Tracer::new(true);
            let (t, parent) = if keep { (tr, root.id()) } else { (&quiet, 0) };
            let pass = lab_pass(t, parent, &store, "lab.run_grid_hit", false);
            traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if keep {
                warm = pass;
            }
        }
    }
    facts.num("warm_traced_ms", median(traced_ms));
    facts.num("warm_untraced_ms", median(untraced_ms));
    pass_facts(facts, "warm", &warm);

    let s = tr.begin("lab.store_open", root.id());
    let lab = Lab::from_dir(Some(store.to_string_lossy()));
    tr.end(s);
    let Some(opened) = lab.store else {
        eprintln!("layers: cannot reopen the store for serving");
        std::process::exit(2);
    };
    let svc = Arc::new(
        Service::new(opened, Registry::enabled(1), scn::experiments())
            .with_scenario_runner(Box::new(scn::Runner)),
    );
    let server = serve("127.0.0.1:0", Arc::clone(&svc), conns).unwrap_or_else(|e| {
        eprintln!("layers: cannot serve: {e}");
        std::process::exit(2)
    });
    let s = tr.begin("http.load", root.id());
    let traffic = load::run(server.addr(), 100.0, secs, seed, conns);
    tr.end(s);
    server.stop();
    tr.end(root);
    let h = svc.registry.histogram(Hist::ServeLatency);
    facts.int("server_count", h.count);
    facts.num("server_mean_us", h.mean());
    facts.int("server_p50_us", h.quantile_bound(0.5).unwrap_or(0));
    facts.int("server_p99_us", h.quantile_bound(0.99).unwrap_or(0));
    facts.raw("load", traffic.to_json());
}
