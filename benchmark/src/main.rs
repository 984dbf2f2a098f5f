//! The dpr-rs benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line
//! benchmark run [--seed n] [--seconds s] [--repeat n] [--trace] [--out file]
//! benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! ```

mod colo;
mod crash;
mod gen;
mod outcome;
mod probes;
mod report;
mod segment;
mod serve;
mod spec;
mod stats;
mod sys;
mod tcp;
mod trace;

use outcome::{Outcome, RunOpts};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Heap allocations of this process. Generator and server child both run
/// under the counting wrapper, so allocations per operation are counted,
/// not inferred.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every operation is delegated to `System` unchanged; the only
// addition is a relaxed counter increment on the allocating entry points.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Run one workload once. Untraced runs fill the end-to-end metrics,
/// traced runs the per-layer ones.
pub fn run_workload(workload: &str, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let tcp_trace = if let Some(spec) = spec::tcp_spec(workload, opts.scale) {
        let t = tcp::run(workload, &spec, opts, &mut out);
        if opts.trace {
            probes::run(workload, opts, Some(&spec), &mut out);
        }
        t
    } else {
        match workload {
            "colo_store" => colo::run(opts, &mut out),
            "crash" => crash::run(opts, &mut out),
            other => out.error(format!("unknown workload {other}")),
        }
        if opts.trace {
            probes::run(workload, opts, None, &mut out);
        }
        None
    };
    if let Some(t) = &tcp_trace {
        probes::residual(t, &mut out);
    }
    out
}

/// The value following `name` on the command line.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The driver's entry: one workload, one result line on stdout.
fn single(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload").ok_or("--workload missing")?;
    if !spec::WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload}; have {:?}",
            spec::WORKLOADS
        ));
    }
    let num = |name: &str, default: f64| -> Result<f64, String> {
        flag(args, name).map_or(Ok(default), |s| {
            s.parse().map_err(|_| format!("{name}: not a number: {s}"))
        })
    };
    let opts = RunOpts {
        seed: num("--seed", 1.0)? as u64,
        window: Duration::from_secs_f64(num("--seconds", 10.0)?.max(0.2)),
        trace: num("--trace", 0.0)? != 0.0,
        scale: spec::Scale((num("--scale", 1.0)? as u64).max(1)),
    };
    eprintln!("# {} seed={} {}", workload, opts.seed, sys::host_line());
    let started = std::time::Instant::now();
    let mut out = run_workload(workload, &opts);
    out.note(format!(
        "whole run took {:.3} s",
        started.elapsed().as_secs_f64()
    ));
    // The last line is the driver's: exactly the declared metrics. The line
    // before it holds every metric the run produced, ungated end-to-end ones
    // of an untraced run included; `run` reads that one, so that `compare`
    // can judge them in pairs.
    let declared: Vec<&spec::Metric> = if opts.trace {
        spec::PER_LAYER.iter().collect()
    } else {
        spec::END_TO_END.iter().collect()
    };
    let line = out.result_line(&declared, spec::not_applicable(workload));
    let produced: Vec<&spec::Metric> = spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .filter(|m| out.metrics.contains_key(m.name))
        .collect();
    let everything = out.result_line(&produced, &[]);
    for n in &out.notes {
        eprintln!("# {n}");
    }
    for m in &produced {
        eprintln!(
            "{:<40} {:>16} {}",
            m.name,
            outcome::fmt_num(out.metrics[m.name]),
            m.unit
        );
    }
    eprintln!(
        "fail_ratio {} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for e in &out.errors {
        eprintln!("ERROR {e}");
    }
    println!("{everything}\n{line}");
    if !out.errors.is_empty() {
        // The result line says `"correct": false`; the exit code says so too.
        std::process::exit(1);
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--serve") => serve::serve(&args[1..]),
        Some("run") => report::run_all(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        Some(_) if flag(&args, "--workload").is_some() => single(&args),
        _ => Err(
            "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  | run [--seed n] [--seconds s] [--repeat n] [--trace] [--out file] \
                  | compare A.json B.json [--bounds BENCHMARK.json]"
                .into(),
        ),
    };
    if let Err(e) = result {
        eprintln!("benchmark: {e}");
        std::process::exit(2);
    }
}
