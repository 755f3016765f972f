//! A minimal std-only micro-benchmark harness (no external crates
//! are available in this build environment).
//!
//! Measures wall time per iteration with a warmup phase and adaptive
//! iteration counts, and prints one markdown table row per benchmark:
//!
//! ```text
//! | name | ns/iter | iters |
//! ```

use std::time::{Duration, Instant};

/// Result of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Mean nanoseconds per iteration over the measured window.
    pub ns_per_iter: f64,
    /// Iterations measured.
    pub iters: u64,
}

impl BenchResult {
    /// Formats the result as a markdown table row.
    pub fn row(&self) -> String {
        format!(
            "| {} | {:.1} | {} |",
            self.name, self.ns_per_iter, self.iters
        )
    }
}

/// Runs `f` repeatedly for roughly `budget`, after a 10% warmup, and
/// returns the mean time per call. `f`'s return value is black-boxed
/// so the work is not optimized away.
pub fn bench<T>(name: &str, budget: Duration, mut f: impl FnMut() -> T) -> BenchResult {
    // Warmup + calibration: find an iteration count that takes a
    // measurable slice of the budget.
    let mut calib_iters: u64 = 1;
    let calib_budget = budget / 10;
    let per_iter = loop {
        let t0 = Instant::now();
        for _ in 0..calib_iters {
            std::hint::black_box(f());
        }
        let dt = t0.elapsed();
        if dt >= calib_budget || calib_iters >= 1 << 30 {
            break dt.as_nanos() as f64 / calib_iters as f64;
        }
        calib_iters = calib_iters.saturating_mul(4);
    };
    let target = (budget.as_nanos() as f64 / per_iter.max(1.0)) as u64;
    let iters = target.clamp(1, 1 << 32);
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let dt = t0.elapsed();
    let r = BenchResult {
        name: name.to_string(),
        ns_per_iter: dt.as_nanos() as f64 / iters as f64,
        iters,
    };
    println!("{}", r.row());
    r
}

/// Prints the table header matching [`BenchResult::row`].
pub fn header(title: &str) {
    println!("\n## {title}\n");
    println!("| benchmark | ns/iter | iters |");
    println!("|---|---|---|");
}

/// Default measurement budget per benchmark; override with
/// `CHANOS_BENCH_MS` (milliseconds).
pub fn default_budget() -> Duration {
    let ms = std::env::var("CHANOS_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300u64);
    Duration::from_millis(ms)
}

/// Resolves a recorder's output path: the `env_var` override if set
/// (absolute, or relative to the workspace root — cargo runs benches
/// from the package dir, so bare relative paths would scatter), else
/// the committed `default_name` at the workspace root.
pub fn bench_out_path(env_var: &str, default_name: &str) -> std::path::PathBuf {
    let name = std::env::var(env_var).unwrap_or_else(|_| default_name.to_string());
    if std::path::Path::new(&name).is_absolute() {
        std::path::PathBuf::from(name)
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name)
    }
}

/// Writes a recorder's JSON to its env-resolved path, and nowhere
/// else: re-recording a committed `BENCH_*.json` is a deliberate run
/// without the override, never a side effect of a measurement.
pub fn write_bench_json(env_var: &str, default_name: &str, json: &str) {
    let out_path = bench_out_path(env_var, default_name);
    let shown = out_path.display().to_string();
    match std::fs::write(&out_path, json) {
        Ok(()) => println!("\nrecorded -> {shown}"),
        Err(e) => eprintln!("could not write {shown}: {e}"),
    }
}
