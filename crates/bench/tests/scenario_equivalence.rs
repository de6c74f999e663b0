//! The shipped scenarios compute the rows they always have. `lab validate`
//! and the `scn` unit tests pin the static half: every document lowers to
//! its golden grid digests (cells, keys, force flags, plan lines). This
//! suite pins the dynamic half: the smoke grids of six scenarios run
//! through the scenario dispatch, pass the lower-bound audit, and hash to
//! committed row digests, and the rows do not move with the shard count.

use bvl_bench::scn;
use bvl_lab::{run_grid, Digest, GridReport};
use bvl_obs::Registry;
use bvl_scenario::CompiledGrid;

/// Per smoke grid, in declaration order: the digest of its rows.
/// Recompute only for a deliberate change to what a cell computes.
const GOLDEN_ROWS: [(&str, &[&str]); 6] = [
    ("table1", &["3387fe7ec97559b84bdcbabffc33ade9", "0e1db9b69547b52ef2153f81a2052ea6"]),
    ("thm1", &["d09207d8c19e18bba553588ecd0b3612", "231ad2ca7e5e16eae5e32439569c4655"]),
    (
        "thm2",
        &[
            "d5f4e3a795afb4f92c1a18a940b7c65c",
            "b96f0d2d13f08963d27a165041725544",
            "8fd74be89d3e55eef14235408c900471",
        ],
    ),
    ("faults", &["f2f7693e21d72d8a2e89b445590be83c"]),
    ("stack", &["fe22a0173f2b1f1a32a6e53cf203bfb2"]),
    ("scaling", &["3387fe7ec97559b84bdcbabffc33ade9"]),
];

/// A digest of a grid's rows: cell index, row index and every column.
fn rows_digest(rows: &[Vec<Vec<String>>]) -> String {
    let owned: Vec<(String, String)> = rows
        .iter()
        .enumerate()
        .flat_map(|(c, cell)| {
            cell.iter()
                .enumerate()
                .map(move |(r, row)| (format!("{c}.{r}"), row.join("\u{1f}")))
        })
        .collect();
    let pairs: Vec<(&str, &str)> = owned
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    Digest::of(&pairs).hex()
}

fn scenario_report(grid: &CompiledGrid) -> GridReport {
    let registry = Registry::disabled();
    run_grid(&grid.spec, None, &registry, |cell, job| {
        scn::run_work(scn::work_for(grid, cell), cell, job, None).0
    })
    .expect("scenario grid runs")
}

#[test]
fn scenario_smoke_rows_match_their_golden_digests() {
    for (name, golden) in GOLDEN_ROWS {
        let compiled = scn::compiled(name, true);
        let digests: Vec<String> = compiled
            .grids
            .iter()
            .map(|grid| {
                let rep = scenario_report(grid);
                let violations = scn::audit(grid, &rep.rows);
                assert!(violations.is_empty(), "{name}: audit fired: {violations:?}");
                rows_digest(&rep.rows)
            })
            .collect();
        assert_eq!(digests, golden, "{name}: smoke rows moved");
    }
}

#[test]
fn scenario_rows_are_invariant_under_shard_count() {
    let compiled = scn::compiled("thm1", true);
    for grid in &compiled.grids {
        let base = scenario_report(grid);
        let registry = Registry::disabled();
        let mut sharded = grid.spec.clone();
        sharded.opts = sharded.opts.clone().shards(4);
        let rep = run_grid(&sharded, None, &registry, |cell, job| {
            scn::run_work(scn::work_for(grid, cell), cell, job, None).0
        })
        .expect("sharded grid runs");
        assert_eq!(base.rows, rep.rows, "shards=4 moved grid '{}'", grid.spec.exp);
    }
}
