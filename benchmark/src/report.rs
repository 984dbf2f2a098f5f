//! `run`: every workload, repeated, summarised; `compare`: two such runs
//! held against the bounds in `BENCHMARK.json`.
//!
//! Each workload run is a child process of its own (this same program with
//! `--workload …`), exactly what the driver starts, so that peak memory
//! and set-up are per run and a wedged workload cannot take the rest down.

use crate::flag;
use crate::outcome::fmt_num;
use crate::spec::{self, Metric};
use crate::stats::{median, quartiles};
use crate::sys;
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    v.as_map()?
        .iter()
        .find(|(k, _)| k.as_str() == Some(name))
        .map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

/// The result line of one child run.
struct Line {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn parse_line(line: &str) -> Result<Line, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let metrics = field(&v, "metrics")
        .and_then(Value::as_map)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(k, m)| Some((k.as_str()?.to_string(), number(field(m, "value")?)?)))
        .collect();
    Ok(Line {
        correct: matches!(field(&v, "correct"), Some(Value::Bool(true))),
        metrics,
    })
}

fn run_child(workload: &str, seed: u64, seconds: &str, trace: bool) -> Result<Line, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            seconds,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The last line holds the declared metrics only; the one before it
    // everything the run produced.
    let everything = stdout.lines().rev().nth(1).ok_or_else(|| {
        format!(
            "{workload} printed no result (exit {:?})",
            out.status.code()
        )
    })?;
    parse_line(everything)
}

/// Values of every metric of one workload over the repeats.
type Series = BTreeMap<String, Vec<f64>>;

fn summary_row(name: &str, unit: &str, values: &[f64]) -> String {
    let med = median(values).map_or_else(|| "-".into(), fmt_num);
    match quartiles(values) {
        Some((q1, q3)) => format!(
            "  {name:<38} {med:>18} {unit:<6} q1 {} q3 {} (n={})",
            fmt_num(q1),
            fmt_num(q3),
            values.len()
        ),
        None => format!("  {name:<38} {med:>18} {unit}"),
    }
}

fn series_json(series: &Series) -> String {
    let fields: Vec<String> = series
        .iter()
        .map(|(k, v)| {
            let vals: Vec<String> = v.iter().map(|x| fmt_num(*x)).collect();
            format!("\"{k}\": [{}]", vals.join(", "))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// `benchmark run …`
pub fn run_all(args: &[String]) -> Result<(), String> {
    let seed: u64 = flag(args, "--seed")
        .map_or(Ok(1), str::parse)
        .map_err(|_| "--seed: not a number")?;
    let repeat: usize = flag(args, "--repeat")
        .map_or(Ok(1), str::parse)
        .map_err(|_| "--repeat: not a number")?;
    let seconds = flag(args, "--seconds").unwrap_or("10");
    let traced = args.iter().any(|a| a == "--trace");
    let only: Vec<&str> = args
        .windows(2)
        .filter(|w| w[0] == "--workload")
        .map(|w| w[1].as_str())
        .collect();
    let workloads: Vec<&str> = spec::WORKLOADS
        .iter()
        .copied()
        .filter(|w| only.is_empty() || only.contains(w))
        .collect();
    let host = sys::host_line();
    let commit = sys::commit();
    println!(
        "dpr-rs benchmark: {host} commit={commit} seed={seed} seconds={seconds} repeat={repeat}"
    );
    println!(
        "injected delays: commit_dep LocalSsd flush 2 ms + 0.8 ms/MiB and metadata 500 us per \
         statement; crash network 100 us one way; everything else Null storage, no delay. TCP \
         workloads cross loopback, not a link."
    );

    let mut untraced: BTreeMap<&str, Series> = BTreeMap::new();
    let mut with_trace: BTreeMap<&str, Series> = BTreeMap::new();
    let mut incorrect = Vec::new();
    for r in 0..repeat {
        // Alternate the order so that no workload always runs after the
        // same neighbour.
        let mut order = workloads.clone();
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            for trace in [false, true] {
                if trace && !traced {
                    continue;
                }
                println!(
                    "== repeat {} of {repeat}: {w}{}",
                    r + 1,
                    if trace { " (traced)" } else { "" }
                );
                let line = run_child(w, seed, seconds, trace)?;
                if !line.correct {
                    incorrect.push(format!(
                        "{w} repeat {}{}",
                        r + 1,
                        if trace { " traced" } else { "" }
                    ));
                }
                let into = if trace {
                    &mut with_trace
                } else {
                    &mut untraced
                };
                let series = into.entry(w).or_default();
                for (k, v) in line.metrics {
                    series.entry(k).or_default().push(v);
                }
            }
        }
    }

    let print = |title: &str, declared: &[Metric], all: &BTreeMap<&str, Series>| {
        for (w, series) in all {
            println!("\n{w} - {title} (median over {repeat} runs)");
            for m in declared {
                if let Some(v) = series.get(m.name) {
                    println!("{}", summary_row(m.name, m.unit, v));
                }
            }
        }
    };
    let e2e: Vec<Metric> = spec::END_TO_END
        .iter()
        .chain(
            spec::PER_LAYER
                .iter()
                .filter(|m| m.name.starts_with("e2e.")),
        )
        .copied()
        .collect();
    print("end to end, tracing off", &e2e, &untraced);
    if traced {
        print("per layer, traced", spec::PER_LAYER, &with_trace);
    }

    let side = |all: &BTreeMap<&str, Series>| {
        let f: Vec<String> = all
            .iter()
            .map(|(w, s)| format!("\"{w}\": {}", series_json(s)))
            .collect();
        format!("{{{}}}", f.join(", "))
    };
    let json = format!(
        "{{\"host\": \"{}\", \"commit\": \"{commit}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"repeat\": {repeat}, \"end_to_end\": {}, \"per_layer\": {}}}\n",
        host.replace('"', "'"),
        side(&untraced),
        side(&with_trace)
    );
    let default_out = {
        let root = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        std::path::Path::new(&root)
            .join("benchmark")
            .join(format!("run-seed{seed}.json"))
    };
    let path = flag(args, "--out").map_or(default_out, std::path::PathBuf::from);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    if incorrect.is_empty() {
        Ok(())
    } else {
        Err(format!("output check failed in: {}", incorrect.join(", ")))
    }
}

/// `benchmark compare A.json B.json [--bounds BENCHMARK.json]`
pub fn compare(args: &[String]) -> Result<(), String> {
    let files: Vec<&String> = args.iter().filter(|a| a.ends_with(".json")).collect();
    let bounds_path = flag(args, "--bounds").unwrap_or("BENCHMARK.json");
    let [a_path, b_path] = files
        .iter()
        .filter(|f| f.as_str() != bounds_path)
        .collect::<Vec<_>>()[..]
    else {
        return Err("compare needs two result files".into());
    };
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {p}: {e}"))
    };
    let (a, b, decl) = (load(a_path)?, load(b_path)?, load(bounds_path)?);
    let values = |run: &Value, workload: &str, metric: &str| -> Vec<f64> {
        field(run, "end_to_end")
            .and_then(|e| field(e, workload))
            .and_then(|w| field(w, metric))
            .and_then(Value::as_seq)
            .map(|s| s.iter().filter_map(number).collect())
            .unwrap_or_default()
    };
    println!("A = {a_path}\nB = {b_path}\nbounds from {bounds_path}");
    println!(
        "{:<11} {:<20} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "spread A", "bound"
    );
    let mut worse = 0;
    // The gated metrics with the bounds of `BENCHMARK.json`, then the
    // ungated end-to-end ones with the bounds the issue set for them.
    let mut metrics: Vec<(String, f64, bool)> = Vec::new();
    for m in field(&decl, "end_to_end")
        .and_then(Value::as_seq)
        .ok_or("no end_to_end in bounds file")?
    {
        metrics.push((
            field(m, "name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?
                .to_string(),
            field(m, "bound")
                .and_then(number)
                .ok_or("metric without bound")?,
            field(m, "better").and_then(Value::as_str) == Some("higher"),
        ));
    }
    for (name, bound) in spec::E2E_BOUNDS {
        let higher = spec::PER_LAYER
            .iter()
            .any(|m| m.name == *name && m.better == "higher");
        metrics.push((name.to_string(), *bound, higher));
    }
    for w in spec::WORKLOADS {
        for (name, bound, higher) in &metrics {
            let (name, bound, higher) = (name.as_str(), *bound, *higher);
            let (va, vb) = (values(&a, w, name), values(&b, w, name));
            let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                continue;
            };
            // By how much of A's median B is worse (negative: better).
            let change = if higher { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
            let spread = quartiles(&va).map(|(q1, q3)| (q3 - q1) / ma.abs().max(f64::MIN_POSITIVE));
            // A spread wider than the bound cannot resolve a change of the
            // bound's size: say so instead of calling it unchanged.
            let verdict = match spread {
                Some(s) if s > bound => "unresolved",
                _ if change > bound => {
                    worse += 1;
                    "worse"
                }
                _ => "ok",
            };
            println!(
                "{w:<11} {name:<20} {:>14} {:>14} {:>8.2}% {:>8} {:>6.1}%  {verdict}",
                format!("{ma:.4}"),
                format!("{mb:.4}"),
                change * 100.0,
                spread.map_or_else(|| "-".into(), |s| format!("{:.2}%", s * 100.0)),
                bound * 100.0,
            );
        }
    }
    if worse == 0 {
        Ok(())
    } else {
        Err(format!("{worse} metric(s) worse than the bound allows"))
    }
}
