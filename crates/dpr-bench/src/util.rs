//! Small helpers of the `figures` binary: the row format and its units.

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

/// Format nanoseconds as fractional milliseconds.
#[must_use]
pub fn ms(nanos: f64) -> String {
    format!("{:.3}", nanos / 1e6)
}

/// Standard quantile set reported for latency distributions, each with
/// its field key.
pub const QUANTILES: &[(f64, &str)] = &[
    (0.10, "p10_ms"),
    (0.25, "p25_ms"),
    (0.50, "p50_ms"),
    (0.75, "p75_ms"),
    (0.90, "p90_ms"),
    (0.99, "p99_ms"),
    (0.999, "p999_ms"),
];
