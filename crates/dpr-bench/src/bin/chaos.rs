//! Chaos campaign — deterministic fault injection with the online DPR
//! invariant checker (ISSUE: chaos harness; protocol §3/§4 invariants).
//!
//! Runs one or more rounds of [`dpr_chaos::run`]: a live D-FASTER cluster
//! under YCSB load while a seed-derived schedule injects worker crashes,
//! partitioned / slow / lossy links, checkpoint stalls, and membership
//! churn with key migration. Every round must finish with **zero**
//! invariant violations; the process exits nonzero otherwise.
//!
//! Flags:
//!
//! | flag         | default           |
//! |--------------|-------------------|
//! | `--seed N`   | 0xD15EA5E         |
//! | `--secs S`   | 4                 |
//! | `--events N` | 8                 |
//! | `--shards N` | 3                 |
//! | `--clients N`| 2                 |
//! | `--rounds N` | 3                 |
//! | `--out PATH` | `BENCH_chaos.json`|
//!
//! Round `i` uses seed `seed + i`, so a campaign covers several distinct
//! schedules while staying fully reproducible.

use dpr_chaos::{ChaosConfig, ChaosReport};
use std::time::Duration;

const USAGE: &str = "usage: chaos [--seed N] [--secs S] [--events N] [--shards N] \
                     [--clients N] [--rounds N] [--out PATH]";

/// The campaign a command line asks for: round `i` runs `config` under seed
/// `config.seed + i`.
struct Campaign {
    config: ChaosConfig,
    rounds: usize,
    out: String,
}

/// An unknown flag, a flag without a value and a value that is not a number
/// are refused, not defaulted.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Campaign, String> {
    let mut c = Campaign {
        config: ChaosConfig::default(),
        rounds: 3,
        out: "BENCH_chaos.json".to_string(),
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let mut num = || {
            let value = value()?;
            let parsed = match value.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => value.parse(),
            };
            parsed.map_err(|_| format!("{flag} takes a number, not `{value}`"))
        };
        match flag.as_str() {
            "--seed" => c.config.seed = num()?,
            "--secs" => c.config.duration = Duration::from_secs(num()?),
            "--events" => c.config.events = num()? as usize,
            "--shards" => c.config.shards = num()? as usize,
            "--clients" => c.config.clients = num()? as usize,
            "--rounds" => c.rounds = num()? as usize,
            "--out" => c.out = value()?,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(c)
}

fn main() {
    let Campaign {
        config: first,
        rounds,
        out,
    } = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("chaos: {e}\n{USAGE}");
        std::process::exit(2);
    });

    let mut reports: Vec<ChaosReport> = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let config = ChaosConfig {
            seed: first.seed + round as u64,
            ..first.clone()
        };
        println!(
            "chaos round {}/{}: seed {:#x}, {}s, {} events, {} shards, {} clients",
            round + 1,
            rounds,
            config.seed,
            config.duration.as_secs(),
            config.events,
            config.shards,
            config.clients,
        );
        let report = match dpr_chaos::run(&config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("chaos round {} failed to run: {e}", round + 1);
                std::process::exit(2);
            }
        };
        println!(
            "  {} faults | {} recoveries (p50 {}ms) | availability {:.1}% | \
             {} ops completed | {} checks | {} violations",
            report.fault_log.len(),
            report.recovery_ms.len(),
            {
                let mut r = report.recovery_ms.clone();
                r.sort_unstable();
                r.get(r.len() / 2).copied().unwrap_or(0)
            },
            report.availability_pct(),
            report.completed,
            report.checks,
            report.violation_count,
        );
        for v in &report.violations {
            eprintln!("  VIOLATION: {v}");
        }
        reports.push(report);
    }

    // Campaign document: per-round reports plus a rollup.
    let total_violations: u64 = reports.iter().map(|r| r.violation_count).sum();
    let mut doc = String::with_capacity(4096);
    doc.push_str("{\n\"bench\": \"chaos_campaign\",\n");
    doc.push_str(&format!(
        "\"summary\": {{\"rounds\": {}, \"total_faults\": {}, \"total_recoveries\": {}, \
         \"total_completed_ops\": {}, \"total_checks\": {}, \"total_violations\": {}}},\n",
        reports.len(),
        reports.iter().map(|r| r.fault_log.len()).sum::<usize>(),
        reports.iter().map(|r| r.recovery_ms.len()).sum::<usize>(),
        reports.iter().map(|r| r.completed).sum::<u64>(),
        reports.iter().map(|r| r.checks).sum::<u64>(),
        total_violations,
    ));
    doc.push_str("\"rounds\": [\n");
    for (i, r) in reports.iter().enumerate() {
        doc.push_str(&r.to_json());
        if i + 1 < reports.len() {
            doc.push_str(",\n");
        }
    }
    doc.push_str("]\n}\n");
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out}");
    if total_violations > 0 {
        eprintln!("chaos campaign FAILED: {total_violations} invariant violations");
        std::process::exit(1);
    }
    println!("chaos campaign passed: zero invariant violations");
}
