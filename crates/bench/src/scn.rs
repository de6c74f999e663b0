//! The shipped scenario documents and their runner.
//!
//! The checked-in `scenarios/*.scn` files are the only definition of the
//! lab grids. This module bridges them to the row builders in
//! [`crate::labexp`]:
//!
//! * [`SHIPPED`] embeds the documents, and [`GOLDEN`] pins each compiled
//!   grid by its `grid_digest`. [`check_shipped`] (run by `lab validate`
//!   and a unit test) proves every document parses, round-trips, compiles
//!   in both modes and still lowers to its golden digests.
//! * [`run_work`] dispatches a compiled [`Work`] item to the row builder
//!   it describes.
//! * [`experiments`] packages every shipped scenario behind
//!   [`bvl_lab::Experiment`] (including the lower-bound `audit` hook), and
//!   [`Runner`] implements [`bvl_lab::ScenarioRunner`] so `POST /run` and
//!   `lab run --scenario` accept arbitrary scenario documents as data,
//!   rejecting any cell [`check_work`] refuses before one runs.
//!
//! Every completed grid is audited against the Bilardi–Scquizzato–
//! Silvestri-style communication lower bounds (`bvl_scenario::bounds`): a
//! measured cost below a proven bound is a simulator bug and fails the
//! run, on every front end.

use crate::labexp;
use bvl_core::{deterministic_routable, RoutingStrategy, SortScheme};
use bvl_fault::{Case, FaultPlan};
use bvl_lab::{
    run_grid, CellSpec, Experiment, GridReport, GridSpec, Job, ScenarioError, ScenarioRunner, Store,
};
use bvl_model::ModelError;
use bvl_obs::{CostReport, Registry, Tier};
use bvl_scenario::{
    compile, grid_digest, parse, CompiledGrid, CompiledScenario, HostWl, ScenarioDoc, Scheme,
    Strategy, View, Violation, Work,
};
use std::sync::Mutex;

/// The shipped scenario sources, embedded so every binary finds them
/// regardless of working directory.
pub const SHIPPED: [(&str, &str); 9] = [
    ("table1", include_str!("../../../scenarios/table1.scn")),
    ("thm1", include_str!("../../../scenarios/thm1.scn")),
    ("thm2", include_str!("../../../scenarios/thm2.scn")),
    ("faults", include_str!("../../../scenarios/faults.scn")),
    ("stack", include_str!("../../../scenarios/stack.scn")),
    ("scaling", include_str!("../../../scenarios/scaling.scn")),
    ("sort", include_str!("../../../scenarios/sort.scn")),
    ("stream", include_str!("../../../scenarios/stream.scn")),
    ("bsf", include_str!("../../../scenarios/bsf.scn")),
];

/// The embedded text of shipped scenario `name`, if it exists.
pub fn shipped(name: &str) -> Option<&'static str> {
    SHIPPED.iter().find(|(n, _)| *n == name).map(|(_, t)| *t)
}

/// The parsed form of shipped scenario `name`.
pub fn doc(name: &str) -> ScenarioDoc {
    let text = shipped(name).unwrap_or_else(|| panic!("unknown shipped scenario '{name}'"));
    parse(text).unwrap_or_else(|e| panic!("shipped scenario '{name}' does not parse: {e}"))
}

/// Shipped scenario `name`, lowered for a smoke or full run.
pub fn compiled(name: &str, smoke: bool) -> CompiledScenario {
    compile(&doc(name), smoke)
        .unwrap_or_else(|e| panic!("shipped scenario '{name}' does not compile: {e}"))
}

/// The committed [`grid_digest`] of every grid of every shipped scenario:
/// `(name, full-mode digests, smoke-mode digests)`, one per compiled grid in
/// declaration order. A digest folds in each cell's domain, index, params,
/// fault plan, options and force flag, so it pins cell counts, forced cells
/// and plan lines. Recompute a golden only for a deliberate `.scn` edit.
pub const GOLDEN: [(&str, &[&str], &[&str]); 9] = [
    (
        "table1",
        &[
            "706bb9236acaaea367cef0e80160e6c2",
            "b20e5f0047de8ff494cdaf9fe147e573",
            "b435b7c2869370f8ab989398e8cc36ec",
            "1a09e906cd978b877431da3b2f912664",
        ],
        &["086440b1bdfc3fbaf401636cb641cadc", "1a09e906cd978b877431da3b2f912664"],
    ),
    (
        "thm1",
        &["6b84ff060109cfeab00cc9e187bceece", "b1ec371d844e20a02ec7991e237da346"],
        &["7ebb253ac933dab213f910aeb9d671c4", "5a69d291811bcaf75e0684378666984b"],
    ),
    (
        "thm2",
        &[
            "6c70841a0394753978e97f9fa582f4b7",
            "812c1fb9c989d16b2bcd386abb29119d",
            "ec25a904401e8c8efb3f3de5010ec61e",
        ],
        &[
            "344704f44eac4b1ccb9d31c97e58d8ad",
            "d172f0a9843180b31fef4f20e0a335b5",
            "3e814b875ba10cf645a7f1d561a2d009",
        ],
    ),
    (
        "faults",
        &["bff0978a78ecc8ec5956791acfaf2eb8"],
        &["0053f640fdc254df86059f606210f72d"],
    ),
    (
        "stack",
        &["4a27b6d484185eb4ee42b214cfb6bdc8"],
        &["c71823d8f51f488ceaafdd68895d981f"],
    ),
    (
        "scaling",
        &["b20e5f0047de8ff494cdaf9fe147e573"],
        &["086440b1bdfc3fbaf401636cb641cadc"],
    ),
    (
        "sort",
        &["d85308f0648dc96fa6288be0f26f3f80"],
        &["85e5c0b805c9036b2591fae5bad5e4d8"],
    ),
    (
        "stream",
        &["f982571c726c9e04fe3d4033f7d104dc"],
        &["0abf00ffa05fa00df30d5869bbfe796e"],
    ),
    (
        "bsf",
        &["ebf82dbc810553f1055fdaad11498ec7"],
        &["e6794d16595e366b4fe15a2dcffc07f8"],
    ),
];

/// One line of [`check_shipped`]: a shipped scenario in one mode.
pub struct Check {
    /// Scenario name.
    pub name: &'static str,
    /// `full`, `smoke`, or `-` when the document itself is broken.
    pub mode: &'static str,
    /// Compiled grid count.
    pub grids: usize,
    /// Compiled cell count.
    pub cells: usize,
    /// What failed, if anything.
    pub problem: Option<String>,
}

/// Check every shipped scenario: it parses, round-trips through
/// `to_text()` and `repro()`, compiles in both modes, and each compiled
/// grid matches its [`GOLDEN`] digest. `lab validate` prints this; a unit
/// test requires it clean.
pub fn check_shipped() -> Vec<Check> {
    let mut out = Vec::new();
    for (name, text) in SHIPPED {
        let broken = |problem: String| Check {
            name,
            mode: "-",
            grids: 0,
            cells: 0,
            problem: Some(problem),
        };
        let Some((_, full, smoke)) = GOLDEN.iter().find(|(n, _, _)| *n == name) else {
            out.push(broken("no golden digests".into()));
            continue;
        };
        let doc = match parse(text) {
            Ok(doc) => doc,
            Err(e) => {
                out.push(broken(e.to_string()));
                continue;
            }
        };
        if parse(&doc.to_text()).as_ref() != Ok(&doc) {
            out.push(broken("to_text() does not round-trip".into()));
        }
        if parse(&doc.repro()).as_ref() != Ok(&doc) {
            out.push(broken("repro() does not round-trip".into()));
        }
        for (mode, golden) in [("full", full), ("smoke", smoke)] {
            let check = match compile(&doc, mode == "smoke") {
                Ok(c) => {
                    let digests: Vec<String> =
                        c.grids.iter().map(|g| grid_digest(&g.spec)).collect();
                    Check {
                        name,
                        mode,
                        grids: c.grids.len(),
                        cells: c.cells(),
                        problem: (digests != *golden).then(|| {
                            format!("digests {} differ from the golden", digests.join(" "))
                        }),
                    }
                }
                Err(e) => Check {
                    mode,
                    ..broken(e.to_string())
                },
            };
            out.push(check);
        }
    }
    out
}

/// Reject a cell its owning crate would refuse, before any cell runs. A
/// scenario document is untrusted input: a bad parameter must come back as
/// an error, not as a panic on a worker thread.
pub fn check_work(work: &Work, cell: &CellSpec) -> Result<(), String> {
    match work {
        Work::Route { logp, .. }
        | Work::RouteBig { logp, .. }
        | Work::Superstep {
            logp,
            strategy: Strategy::Deterministic,
            ..
        } => deterministic_routable(logp.p),
        Work::Conformance { .. } => match cell.plan.as_deref().map(str::parse::<FaultPlan>) {
            Some(Ok(_)) => Ok(()),
            Some(Err(e)) => Err(ModelError::InvalidParams(format!("bad fault plan: {e}"))),
            None => Err(ModelError::InvalidParams("a conformance cell needs plan=".into())),
        },
        Work::Sort { p, n, g, l, seed } | Work::Stream { p, n, g, l, seed, .. } => {
            bvl_workloads::SortConfig {
                p: *p,
                n: *n,
                g: *g,
                l: *l,
                seed: *seed,
            }
            .check()
        }
        Work::Bsf {
            workers,
            units,
            tt,
            tw,
            ts,
            iters,
        } => bvl_workloads::BsfParams::new(*workers, *units, *tt, *tw, *ts, *iters).map(drop),
        _ => Ok(()),
    }
    .map_err(|e| format!("cell {}[{}]: {e}", cell.domain, cell.index))
}

/// The work item behind `cell` in a compiled grid.
pub fn work_for<'a>(grid: &'a CompiledGrid, cell: &CellSpec) -> &'a Work {
    grid.spec
        .cells
        .iter()
        .position(|c| c.domain == cell.domain && c.index == cell.index)
        .map(|i| &grid.work[i])
        .unwrap_or_else(|| panic!("cell {}[{}] not in compiled grid", cell.domain, cell.index))
}

/// Compute one cell from its typed work description. `captured` attaches
/// to the options of forced cells only (the binaries pass their
/// span-export registry; the service passes `None` — forced cells still
/// run live, and their rows are registry-independent by the determinism
/// contract).
pub fn run_work(
    work: &Work,
    cell: &CellSpec,
    mut job: Job,
    captured: Option<&Registry>,
) -> (Vec<Vec<String>>, Option<CostReport>) {
    let cap = if cell.force { captured } else { None };
    // The stack tower manages its own registry attachment (grounded and
    // hosted legs only); every other kind observes the whole run.
    if !matches!(work, Work::Stack { .. }) {
        if let Some(reg) = cap {
            job.opts = job.opts.registry(reg);
        }
    }
    match work {
        Work::Measure {
            net,
            mode,
            seed,
            view,
        } => {
            let rows = match view {
                View::Main { family } => {
                    vec![labexp::table1::measure_row(*net, *family, *mode, *seed)]
                }
                View::Scaling { family, label } => {
                    vec![labexp::table1::scaling_row(*net, *family, label, *seed)]
                }
                View::Obs1 { label } => vec![labexp::table1::obs1_row(*net, label, *seed)],
                View::K6 { label } => labexp::table1::k6_rows(*net, label, *seed),
            };
            (rows, None)
        }
        Work::Host { logp, fg, fl, wl } => {
            let workload = match wl {
                HostWl::Ring { rounds } => labexp::thm1::Workload::Ring {
                    p: logp.p,
                    rounds: *rounds as usize,
                },
                HostWl::AllToAll => labexp::thm1::Workload::AllToAll { p: logp.p },
            };
            let case = labexp::thm1::Case {
                logp: *logp,
                factor_g: *fg,
                factor_l: *fl,
                workload,
            };
            let (row, att) = labexp::thm1::run_case(case, &job.opts);
            (vec![row], att)
        }
        Work::Route {
            logp,
            h,
            scheme,
            seed,
        } => {
            let scheme = match scheme {
                Scheme::Network => SortScheme::Network,
                Scheme::Columnsort => SortScheme::Columnsort,
            };
            (
                vec![labexp::thm2::route_row(*logp, *h, scheme, *seed, &mut job)],
                None,
            )
        }
        Work::RouteBig { logp, h, seed } => (
            labexp::thm2::route_big_rows(*logp, *h, *seed, &mut job),
            None,
        ),
        Work::Superstep { logp, strategy, .. } => {
            let (name, strategy) = match strategy {
                Strategy::Offline => ("offline", RoutingStrategy::Offline),
                Strategy::Randomized { slack } => (
                    "randomized",
                    RoutingStrategy::Randomized {
                        slack: *slack as f64,
                    },
                ),
                Strategy::Deterministic => (
                    "deterministic",
                    RoutingStrategy::Deterministic(SortScheme::Network),
                ),
            };
            let (row, att) = labexp::thm2::superstep_row(*logp, name, strategy, &job.opts);
            (vec![row], att)
        }
        Work::Conformance { sim, p, h, seed } => {
            let plan = cell
                .plan
                .as_deref()
                .and_then(|plan| plan.parse().ok())
                .expect("conformance cells carry a plan (check_work rejects any without)");
            let case = Case {
                sim: *sim,
                p: *p,
                h: *h,
                seed: *seed,
                plan,
            };
            (labexp::faults::case_rows(&case), None)
        }
        Work::Stack { net, rounds, seed } => (
            vec![labexp::stack::stack_row(*net, *rounds, *seed, &job.opts, cap)],
            None,
        ),
        Work::Sort { p, n, g, l, seed } => {
            let cfg = bvl_workloads::SortConfig {
                p: *p,
                n: *n,
                g: *g,
                l: *l,
                seed: *seed,
            };
            (vec![labexp::sort::sort_row(&cfg, &job.opts)], None)
        }
        Work::Stream {
            p,
            n,
            window,
            g,
            l,
            seed,
        } => {
            let cfg = bvl_workloads::StreamConfig {
                sort: bvl_workloads::SortConfig {
                    p: *p,
                    n: *n,
                    g: *g,
                    l: *l,
                    seed: *seed,
                },
                window: *window,
            };
            (vec![labexp::stream::stream_row(&cfg, &job.opts)], None)
        }
        Work::Bsf {
            workers,
            units,
            tt,
            tw,
            ts,
            iters,
        } => {
            let params = bvl_workloads::BsfParams::new(*workers, *units, *tt, *tw, *ts, *iters)
                .expect("bsf cell parameters valid");
            (vec![labexp::bsf::bsf_row(&params)], None)
        }
    }
}

/// Audit one completed grid's rows against the proven lower bounds.
pub fn audit(grid: &CompiledGrid, rows: &[Vec<Vec<String>>]) -> Vec<Violation> {
    bvl_scenario::audit_grid(&grid.spec, &grid.work, rows)
}

/// Run one compiled grid through a [`labexp::Lab`], collecting the flagged
/// cell's cost attribution and auditing the completed rows. Violations are
/// fatal: a measured cost below a proven bound is a simulator bug, not a
/// fast run, so the binaries exit rather than print a broken table.
pub fn run_in_lab(
    lab: &labexp::Lab,
    grid: &CompiledGrid,
    captured: Option<&Registry>,
) -> (GridReport, Option<CostReport>) {
    let att: Mutex<Option<CostReport>> = Mutex::new(None);
    let rep = lab.run(&grid.spec, |cell, job| {
        let (rows, a) = run_work(work_for(grid, cell), cell, job, captured);
        if let Some(a) = a {
            *att.lock().expect("attribution lock") = Some(a);
        }
        rows
    });
    let violations = audit(grid, &rep.rows);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("[audit] {v}");
        }
        eprintln!(
            "[audit] grid '{}': {} lower-bound violation(s) — a measured cost below a \
             proven bound is a simulator bug",
            grid.spec.exp,
            violations.len()
        );
        std::process::exit(2);
    }
    (rep, att.into_inner().expect("attribution lock"))
}

/// An [`Experiment`] compiled from a shipped scenario document. Both the
/// full and smoke lowerings are kept so cells of either mode dispatch.
struct ScenarioExperiment {
    name: String,
    full: CompiledScenario,
    smoke: CompiledScenario,
}

impl ScenarioExperiment {
    fn new(name: &str) -> ScenarioExperiment {
        ScenarioExperiment {
            name: name.to_string(),
            full: compiled(name, false),
            smoke: compiled(name, true),
        }
    }

    fn work_of(&self, cell: &CellSpec) -> &Work {
        for grid in self.full.grids.iter().chain(self.smoke.grids.iter()) {
            if let Some(i) = grid
                .spec
                .cells
                .iter()
                .position(|c| c.domain == cell.domain && c.index == cell.index)
            {
                return &grid.work[i];
            }
        }
        panic!("unknown {} cell {}[{}]", self.name, cell.domain, cell.index)
    }
}

impl Experiment for ScenarioExperiment {
    fn name(&self) -> &str {
        &self.name
    }
    fn grids(&self, smoke: bool) -> Vec<GridSpec> {
        let compiled = if smoke { &self.smoke } else { &self.full };
        compiled.grids.iter().map(|g| g.spec.clone()).collect()
    }
    fn cell_rows(&self, cell: &CellSpec, job: Job) -> Vec<Vec<String>> {
        run_work(self.work_of(cell), cell, job, None).0
    }
    fn audit(&self, grid: &GridSpec, rows: &[Vec<Vec<String>>]) -> Vec<String> {
        let work: Vec<Work> = grid.cells.iter().map(|c| self.work_of(c).clone()).collect();
        bvl_scenario::audit_grid(grid, &work, rows)
            .iter()
            .map(|v| v.to_string())
            .collect()
    }
}

/// Every experiment the `lab` CLI and HTTP service can run, compiled from
/// the checked-in scenario documents. (`scaling` is not listed: it aliases
/// a subset of `table1`'s cells and would collide with its experiment
/// name; run it as a document via `lab run --scenario`.)
pub fn experiments() -> Vec<Box<dyn Experiment>> {
    ["table1", "thm1", "thm2", "faults", "stack", "sort", "stream", "bsf"]
        .into_iter()
        .map(|name| Box::new(ScenarioExperiment::new(name)) as Box<dyn Experiment>)
        .collect()
}

/// The scenario runner behind `POST /run {"scenario": ...}` and `lab run
/// --scenario`: parse, compile, run every grid through the shared store,
/// audit each against the lower bounds, merge the reports.
pub struct Runner;

impl ScenarioRunner for Runner {
    fn run_scenario(
        &self,
        text: &str,
        store: &Store,
        registry: &Registry,
        smoke: bool,
        tier: Option<Tier>,
    ) -> Result<(String, GridReport), ScenarioError> {
        let doc = parse(text).map_err(|e| ScenarioError::Invalid(e.to_string()))?;
        let compiled = compile(&doc, smoke).map_err(|e| ScenarioError::Invalid(e.to_string()))?;
        for grid in &compiled.grids {
            for (cell, work) in grid.spec.cells.iter().zip(&grid.work) {
                check_work(work, cell).map_err(ScenarioError::Invalid)?;
            }
        }
        let mut merged = GridReport::empty();
        for grid in &compiled.grids {
            let mut spec = grid.spec.clone();
            if let Some(t) = tier {
                // Observability-only: the tier never moves cache keys.
                spec.opts = spec.opts.clone().obs(t);
            }
            let rep = run_grid(&spec, Some(store), registry, |cell, job| {
                run_work(work_for(grid, cell), cell, job, None).0
            })
            .map_err(|e| {
                ScenarioError::Failed(format!("grid '{}' failed: {e}", grid.spec.exp))
            })?;
            let violations = audit(grid, &rep.rows);
            if !violations.is_empty() {
                let lines: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
                return Err(ScenarioError::Failed(format!(
                    "bounds audit failed ({} violation{}): {}",
                    lines.len(),
                    if lines.len() == 1 { "" } else { "s" },
                    lines.join("; ")
                )));
            }
            merged.merge(rep);
        }
        Ok((compiled.name, merged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_scenarios_match_their_golden_digests() {
        let checks = check_shipped();
        assert_eq!(checks.len(), 2 * SHIPPED.len(), "one line per scenario and mode");
        for c in &checks {
            assert!(c.problem.is_none(), "{} {}: {:?}", c.name, c.mode, c.problem);
        }
    }

    #[test]
    fn smoke_grids_carry_no_forced_cells() {
        for exp in experiments() {
            for grid in exp.grids(true) {
                assert!(
                    grid.cells.iter().all(|c| !c.force),
                    "{}: smoke grid has a forced cell",
                    exp.name()
                );
                assert_eq!(grid.exp, exp.name());
            }
        }
    }

    #[test]
    fn a_cost_below_a_proven_bound_is_caught() {
        // Fabricate rows that undercut the (h-1)·G + L routing bound: the
        // audit must flag them (a simulator "this fast" is a bug).
        let scenario = compiled("thm2", true);
        let grid = &scenario.grids[0]; // thm2-cells, Route work
        let broken: Vec<Vec<Vec<String>>> = grid
            .spec
            .cells
            .iter()
            .map(|_| {
                vec![["16", "1", "0", "0", "0", "1", "1", "16.00", "0.06", "1.00"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect()]
            })
            .collect();
        let violations = audit(grid, &broken);
        assert!(
            violations.len() >= grid.spec.cells.len(),
            "broken costs must be flagged, got {violations:?}"
        );
        // And the Experiment-level hook reports them as strings.
        let exp = ScenarioExperiment::new("thm2");
        let flagged = Experiment::audit(&exp, &grid.spec, &broken);
        assert_eq!(flagged.len(), violations.len());
    }

    #[test]
    fn experiments_cover_every_legacy_front_end_name() {
        let names: Vec<String> = experiments().iter().map(|e| e.name().to_string()).collect();
        assert_eq!(
            names,
            ["table1", "thm1", "thm2", "faults", "stack", "sort", "stream", "bsf"]
        );
    }

    /// One-cell documents whose owning crate refuses the cell, each with a
    /// fragment of the refusal.
    const REFUSED: [(&str, &str); 4] = [
        (
            "cell bsf workers=0 units=256 tt=2 tw=4 ts=5 iters=3 params=w0 smoke",
            "at least one worker",
        ),
        ("cell sort p=3 n=256 g=2 l=16 seed=1 params=p3 smoke", "p = 2^k"),
        (
            "cell route logp=12:16:1:2 h=2 scheme=network seed=7 params=p12 smoke",
            "p = 2^k, got p = 12",
        ),
        (
            "cell conformance sim=route_det p=8 h=4 seed=100 params=noplan smoke",
            "needs plan=",
        ),
    ];

    fn refused_doc(cell: &str) -> String {
        format!("scenario refused; grid exp=refused master=1 domain=refused; {cell}")
    }

    fn tmp_store(tag: &str) -> (std::path::PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!("bvl-scn-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let code = bvl_lab::CodeFingerprint::from_parts("scn-test", "0");
        let store = Store::open(&dir, code, bvl_lab::OnStale::Error).expect("store opens");
        (dir, store)
    }

    fn runner_refuses(case: usize) {
        let (cell, why) = REFUSED[case];
        let (dir, store) = tmp_store(&format!("refuse{case}"));
        let text = refused_doc(cell);
        match Runner.run_scenario(&text, &store, &Registry::disabled(), true, None) {
            Err(ScenarioError::Invalid(e)) => assert!(e.contains(why), "{cell}: {e}"),
            other => panic!("{cell}: expected Invalid, got {:?}", other.map(|(n, _)| n)),
        }
        assert_eq!(store.len(), 0, "{cell}: a refused document ran a cell");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn runner_refuses_a_farm_without_workers() {
        runner_refuses(0);
    }

    #[test]
    fn runner_refuses_a_sort_on_three_processors() {
        runner_refuses(1);
    }

    #[test]
    fn runner_refuses_deterministic_routing_off_a_power_of_two() {
        runner_refuses(2);
    }

    #[test]
    fn runner_refuses_a_conformance_cell_without_a_plan() {
        runner_refuses(3);
    }

    #[test]
    fn live_post_run_answers_refused_documents_with_400() {
        use std::io::{Read, Write};
        let (dir, store) = tmp_store("http");
        let service = bvl_lab::Service::new(store, Registry::enabled(1), experiments())
            .with_scenario_runner(Box::new(Runner));
        let server = bvl_lab::serve("127.0.0.1:0", std::sync::Arc::new(service), 2).expect("binds");
        for (cell, why) in REFUSED {
            let body = format!("{{\"scenario\":\"{}\",\"smoke\":true}}", refused_doc(cell));
            let mut conn = std::net::TcpStream::connect(server.addr()).expect("connects");
            conn.set_read_timeout(Some(std::time::Duration::from_secs(30)))
                .expect("timeout");
            write!(
                conn,
                "POST /run HTTP/1.1\r\nHost: lab\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            )
            .expect("sends");
            let mut response = String::new();
            conn.read_to_string(&mut response).expect("answers");
            assert!(response.starts_with("HTTP/1.1 400"), "{cell}: {response}");
            assert!(response.contains(why), "{cell}: {response}");
        }
        server.stop();
        let _ = std::fs::remove_dir_all(dir);
    }
}
