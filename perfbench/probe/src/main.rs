//! The benchmark's probe: the parts of the benchmark that must call the
//! repository's crates through their public APIs rather than through its
//! command lines.
//!
//! ```text
//! bvl-perfbench engine --seed N --seconds S --min-big K --out F [--spans F]
//! bvl-perfbench construct --seed N --out F
//! bvl-perfbench load   --addr A --rate R --secs T --seed N --conns C --out F
//! bvl-perfbench layers --seed N --bins DIR --work DIR --secs T --conns C --out F [--spans F]
//! ```
//!
//! `engine` runs `ring_x4` on `LogpMachine` and `construct` only builds
//! its p = 10⁶ machine; `load` offers open-loop Poisson traffic to a
//! running `lab serve`; `layers` is the traced reproduction and read path,
//! calling each layer's public functions with a span around each call. Passing `--spans` turns span recording on and
//! names the file the spans are written to at the end. Results go to the
//! `--out` file as one JSON object; `perfbench/run.py` turns them into
//! metrics.

mod engine;
mod layers;
mod load;
mod trace;

use std::net::ToSocketAddrs;
use std::process::exit;
use trace::Tracer;

/// The experiments `lab run all` runs, in its order.
pub const EXPS: [&str; 8] = [
    "table1", "thm1", "thm2", "faults", "stack", "sort", "stream", "bsf",
];

/// SplitMix64: a small seeded generator for the benchmark's own inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A field of this process's `/proc/self/status` in kB (0 if absent).
pub fn rss_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let rest = l.strip_prefix(field)?.strip_prefix(':')?;
                rest.split_whitespace().next()?.parse().ok()
            })
        })
        .unwrap_or(0)
}

/// The result object, built as `"key": <json value>` pairs.
#[derive(Default)]
pub struct Facts(Vec<(String, String)>);

impl Facts {
    pub fn raw(&mut self, key: &str, json: String) {
        self.0.push((key.to_string(), json));
    }

    pub fn num(&mut self, key: &str, v: f64) {
        self.raw(key, format!("{v}"));
    }

    pub fn int(&mut self, key: &str, v: u64) {
        self.raw(key, v.to_string());
    }

    pub fn num_list(&mut self, key: &str, vs: &[f64]) {
        let items: Vec<String> = vs.iter().map(|v| format!("{v}")).collect();
        self.raw(key, format!("[{}]", items.join(",")));
    }

    fn write(&self, path: &str) {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        let text = format!("{{{}}}\n", fields.join(",\n"));
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("probe: cannot write {path}: {e}");
            exit(2);
        }
    }
}

struct Args(Vec<String>);

impl Args {
    fn opt(&self, flag: &str) -> Option<String> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).cloned()
    }

    fn get(&self, flag: &str) -> String {
        self.opt(flag).unwrap_or_else(|| {
            eprintln!("probe: missing {flag}");
            exit(2)
        })
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> T {
        self.get(flag).parse().unwrap_or_else(|_| {
            eprintln!("probe: bad value for {flag}");
            exit(2)
        })
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        eprintln!("usage: bvl-perfbench <engine|construct|load|layers> [flags]");
        exit(2);
    };
    let args = Args(argv);
    let spans = args.opt("--spans");
    let tr = Tracer::new(spans.is_some());
    let mut facts = Facts::default();
    match cmd.as_str() {
        "engine" => engine::bench(
            args.num("--seed"),
            args.num("--seconds"),
            args.num("--min-big"),
            &tr,
            &mut facts,
        ),
        "construct" => engine::construct(args.num("--seed"), &mut facts),
        "load" => {
            let addr = args
                .get("--addr")
                .to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
                .unwrap_or_else(|| {
                    eprintln!("probe: bad --addr");
                    exit(2)
                });
            let load = load::run(
                addr,
                args.num("--rate"),
                args.num("--secs"),
                args.num("--seed"),
                args.num("--conns"),
            );
            facts.raw("load", load.to_json());
        }
        "layers" => layers::run(
            args.num("--seed"),
            std::path::Path::new(&args.get("--bins")),
            std::path::Path::new(&args.get("--work")),
            args.num("--secs"),
            args.num("--conns"),
            &tr,
            &mut facts,
        ),
        other => {
            eprintln!("probe: unknown command {other}");
            exit(2);
        }
    }
    facts.int("vm_hwm_kb", rss_kb("VmHWM"));
    if let Some(path) = spans {
        if let Err(e) = tr.write(&path) {
            eprintln!("probe: cannot write {path}: {e}");
            exit(2);
        }
    }
    facts.write(&args.get("--out"));
}
