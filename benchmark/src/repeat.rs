//! `repeat`: what the driver does to accept the benchmark, done here
//! first — two sets of N untraced runs per workload, each run with
//! another seed, through this same program as a child process. For
//! every end-to-end metric it prints the inter-quartile spread of each
//! set as a share of its median (Python's `statistics.quantiles(v,
//! n=4)`) and how far the second set's median is worse than the
//! first's, fails past a bound, and records the first set as
//! `benchmark/baseline.json`.

use std::process::Command;

use crate::json::{self, number, quote};
use crate::machine::median;
use crate::spec::{EndToEnd, END_TO_END, WORKLOADS};

/// `statistics.quantiles(values, n=4)` (the default, exclusive,
/// method): the quartile cut points of at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The inter-quartile spread as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
fn worse_by(m: &EndToEnd, first: f64, second: f64) -> f64 {
    match m.better {
        "higher" => (first - second) / first,
        _ => (second - first) / first,
    }
}

/// One untraced run as the driver makes it; the metric values in
/// `END_TO_END` order.
fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: exit {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("no result line")?;
    let v = json::parse(line)?;
    if v.get("correct") != Some(&json::Json::Bool(true))
        || v.get("failed").and_then(|f| f.num()) != Some(0.0)
    {
        return Err(format!(
            "{workload} seed {seed}: incorrect or failed: {line}"
        ));
    }
    END_TO_END
        .iter()
        .map(|m| {
            v.get("metrics")
                .and_then(|x| x.get(m.name))
                .and_then(|x| x.get("value"))
                .and_then(|x| x.num())
                .ok_or(format!("{workload}: {} missing", m.name))
        })
        .collect()
}

/// Runs the two sets; `Ok(true)` when every spread and shift is within
/// its bound.
pub fn repeat(runs: usize, seconds: u64, first_seed: u64) -> Result<bool, String> {
    let mut within = true;
    let mut baseline = Vec::new();
    for w in WORKLOADS {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for (s, set) in sets.iter_mut().enumerate() {
            for r in 0..runs {
                let seed = first_seed + (s * runs + r) as u64;
                let values = one_run(w.name, seed, seconds)?;
                eprintln!("{} set {} seed {seed}: {values:?}", w.name, s + 1);
                set.push(values);
            }
        }
        let mut rows = Vec::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            let col = |s: usize| -> Vec<f64> { sets[s].iter().map(|run| run[i]).collect() };
            let (a, b) = (col(0), col(1));
            let (sa, sb) = (spread(&a), spread(&b));
            let shift = worse_by(m, median(&a), median(&b));
            // The driver does not hold `setup_s` to a spread, only to
            // the shift between the sets' medians.
            let spread_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let third = m.name == "setup_s" || (sa <= m.bound / 3.0 && sb <= m.bound / 3.0);
            let ok = spread_ok && shift <= m.bound;
            within &= ok;
            println!(
                "{:<10} {:<12} median {:>16} | {:>16} {:<4} spread {:.4} | {:.4} shift {:+.4} bound {} {}{}",
                w.name,
                m.name,
                number(median(&a)),
                number(median(&b)),
                m.unit,
                sa,
                sb,
                shift,
                m.bound,
                if ok { "ok" } else { "PAST BOUND" },
                if third { "" } else { " (spread over a third of the bound)" },
            );
            let list = |v: &[f64]| v.iter().map(|x| number(*x)).collect::<Vec<_>>().join(", ");
            rows.push(format!(
                "      {}: {{\"unit\": {}, \"median\": {}, \"spread\": {}, \"values\": [{}]}}",
                quote(m.name),
                quote(m.unit),
                number(median(&a)),
                number(sa),
                list(&a)
            ));
        }
        baseline.push(format!(
            "    {}: {{\n{}\n    }}",
            quote(w.name),
            rows.join(",\n")
        ));
    }
    let text = format!(
        "{{\n  \"runs\": {runs},\n  \"run_seconds\": {seconds},\n  \"first_seed\": {first_seed},\n  \"host_cores\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        baseline.join(",\n")
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline.json");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("first set recorded in {}", path.display());
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
            [2.0, 8.0, 32.0]
        );
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), 5.5 / 5.5);
    }

    #[test]
    fn worse_follows_the_metrics_direction() {
        let up = &END_TO_END[0]; // ops_per_s, higher is better
        let down = &END_TO_END[1]; // p50_us, lower is better
        assert!(worse_by(up, 100.0, 90.0) > 0.0);
        assert!(worse_by(up, 100.0, 110.0) < 0.0);
        assert!(worse_by(down, 100.0, 110.0) > 0.0);
    }
}
