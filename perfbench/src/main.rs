//! The qhdcd benchmark: one command, three workloads, end-to-end metrics from
//! untraced runs and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ml-dense-facebook|ml-sparse-tvshow|stream-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the machine and the pinned settings. See `README.md` for the
//! workloads, the metrics and which layer should move which metric.

mod ml;
mod report;
mod stream;

use report::{Report, END_TO_END};

const WORKLOADS: &[&str] = &["ml-dense-facebook", "ml-sparse-tvshow", "stream-churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let seed = value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("bad --seconds: {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace: {other} (expected 0 or 1)")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn end_to_end_table() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|&(name, unit)| (name.to_string(), unit)).collect()
}

fn run(args: &Args) -> Result<Report, String> {
    let (seed, seconds) = (args.seed, args.seconds);
    let spec = match args.workload.as_str() {
        "ml-dense-facebook" => ml::MlSpec::table2(4_039, 88_234, 3),
        "ml-sparse-tvshow" => ml::MlSpec::table2(3_894, 17_240, 10),
        _ if args.trace => return stream::run_traced(&stream::CHURN, seed, seconds),
        _ => return stream::run(&stream::CHURN, seed, seconds),
    };
    if args.trace {
        ml::run_traced(&spec, seed, seconds)
    } else {
        ml::run(&spec, seed, seconds)
    }
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit under test, where the benchmark runs at the root of a git
/// checkout.
fn commit() -> Option<String> {
    if !std::path::Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git").args(["rev-parse", "HEAD"]).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the paths and contents of the library sources (`crates/` and
/// `src/`), which identifies the code under test in a tree without git.
fn source_fingerprint() -> String {
    let mut files = Vec::new();
    let mut dirs = vec![std::path::PathBuf::from("crates"), std::path::PathBuf::from("src")];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn machine_line(args: &Args) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |p| p.get());
    format!(
        "machine {{\"available_parallelism\": {parallelism}, \"cpu_model\": {}, \
         \"qhd_threads\": {}, \"portfolio_threads\": {}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"commit\": {}, \"source_fnv1a\": {}}}",
        json_str(&cpu_model()),
        ml::QHD_THREADS,
        stream::PORTFOLIO_THREADS,
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit().map_or("null".to_string(), |c| json_str(&c)),
        json_str(&source_fingerprint()),
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let line = run(&args).and_then(|report| {
        for failure in &report.failures {
            eprintln!("perfbench: check failed: {failure}");
        }
        let line = if args.trace {
            report.result_line(&report::per_layer(), Some(0.0))
        } else {
            report.result_line(&end_to_end_table(), None)
        }?;
        Ok((line, report.failed == 0))
    });
    match line {
        Ok((line, ok)) => {
            println!("{}", machine_line(&args));
            println!("{line}");
            if !ok {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let ok =
            parse_args(&argv("--workload stream-churn --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(
            parse_args(&argv("--workload stream-churn --seed x --seconds 10 --trace 0")).is_err()
        );
        assert!(
            parse_args(&argv("--workload stream-churn --seed 1 --seconds 10 --trace 2")).is_err()
        );
        assert!(parse_args(&argv("--workload stream-churn --seed 1 --trace 0")).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
