//! The benchmark of record for chanos: four workloads on the modeled
//! 16-core machine, five end-to-end metrics, a per-layer ladder in
//! exact cycles, and a guarded real-threads leg. See `README.md`.
//!
//! ```text
//! chanos-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! chanos-benchmark manifest            # the text of BENCHMARK.json
//! chanos-benchmark check               # determinism and naming promises
//! chanos-benchmark repeat [--runs N] [--seconds S] [--seed N]
//! chanos-benchmark saturation          # re-measure the kv_open rate constant
//! ```

mod drive;
mod hist;
mod json;
mod ladder;
mod layers;
mod machine;
mod repeat;
mod run;
mod spec;
mod threads;
mod workloads;

use std::process::ExitCode;

use run::Plan;
use workloads::Kind;

/// `--name value` options after the mode word.
struct Opts(Vec<(String, String)>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(name) = it.next() {
            let key = name
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {name}"))?;
            let value = it.next().ok_or(format!("{name} needs a value"))?;
            out.push((key.to_string(), value.clone()));
        }
        Ok(Opts(out))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot read {v}")),
        }
    }

    fn need<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or(format!("--{key} is required"))
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }

    fn workload(&self) -> Result<Kind, String> {
        let name: String = self.need("workload")?;
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        Kind::parse(&name).ok_or(format!(
            "unknown workload {name}; one of {}",
            names.join(", ")
        ))
    }
}

fn seconds_in_range(seconds: f64) -> Result<f64, String> {
    if seconds.is_finite() && seconds > 0.0 && seconds <= 600.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds {seconds} is out of range"))
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m) if !m.starts_with("--") => (m, &args[1..]),
        _ => ("run", args),
    };
    let opts = Opts::parse(rest)?;
    match mode {
        "run" => {
            opts.only(&["workload", "seed", "seconds", "trace"])?;
            let kind = opts.workload()?;
            let seed: u64 = opts.need("seed")?;
            let seconds = seconds_in_range(opts.need("seconds")?)?;
            let result = match opts.need::<u8>("trace")? {
                0 => run::end_to_end(kind, seed, seconds, Plan::full()),
                1 => run::per_layer(kind, seed, seconds, Plan::full()),
                t => return Err(format!("--trace {t}: 0 or 1")),
            };
            result.print();
            Ok(true)
        }
        "threads-child" => {
            opts.only(&["workload", "seed", "seconds"])?;
            let seconds = seconds_in_range(opts.need("seconds")?)?;
            threads::child_main(opts.workload()?, opts.need("seed")?, seconds);
            Ok(true)
        }
        "manifest" => {
            opts.only(&[])?;
            print!("{}", spec::manifest_json());
            Ok(true)
        }
        "check" => {
            opts.only(&["seed", "seconds"])?;
            let seconds = seconds_in_range(opts.get("seconds")?.unwrap_or(2.0))?;
            match run::check(Plan::full(), opts.get("seed")?.unwrap_or(1), seconds) {
                Ok(lines) => {
                    lines.iter().for_each(|l| println!("ok: {l}"));
                    Ok(true)
                }
                Err(bad) => {
                    bad.iter().for_each(|l| println!("FAILED: {l}"));
                    Ok(false)
                }
            }
        }
        "repeat" => {
            opts.only(&["runs", "seconds", "seed"])?;
            let runs = opts.get("runs")?.unwrap_or(10);
            if runs < 2 {
                return Err("--runs: at least 2".into());
            }
            repeat::repeat(
                runs,
                opts.get("seconds")?.unwrap_or(spec::RUN_SECONDS),
                opts.get("seed")?.unwrap_or(1),
            )
        }
        "saturation" => {
            opts.only(&["seed", "seconds"])?;
            let seconds = seconds_in_range(opts.get("seconds")?.unwrap_or(5.0))?;
            let rate = run::saturation(opts.get("seed")?.unwrap_or(1), seconds);
            println!(
                "kv single-call saturation {} 1/s (frozen constant: {})",
                json::number(rate),
                json::number(workloads::KV_SINGLE_CALL_SATURATION)
            );
            Ok(true)
        }
        other => Err(format!("unknown mode {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("chanos-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
