//! Small helpers of the `figures` binary: the row format and its units.

use std::time::Duration;

/// Print one result row in the harness's stable key=value format.
pub fn row(figure: &str, fields: &[(&str, String)]) {
    let mut line = String::from(figure);
    for (k, v) in fields {
        line.push('\t');
        line.push_str(k);
        line.push('=');
        line.push_str(v);
    }
    println!("{line}");
}

/// Format a duration as fractional milliseconds.
#[must_use]
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Standard percentile set reported for latency distributions, each with
/// its field key.
pub const PERCENTILES: &[(f64, &str)] = &[
    (10.0, "p10_ms"),
    (25.0, "p25_ms"),
    (50.0, "p50_ms"),
    (75.0, "p75_ms"),
    (90.0, "p90_ms"),
    (99.0, "p99_ms"),
    (99.9, "p999_ms"),
];
