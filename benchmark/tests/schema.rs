//! Schema smoke test: every workload, for one second at a hundredth of its
//! size, emits exactly the metric names `BENCHMARK.json` declares and
//! passes its output check. `correct` covers the trace too: a traced run
//! reports itself incorrect when a declared metric is missing that the
//! workload should have, when its commit stages do not tile the commit
//! latency (their means, every workload) or when the three stage p50s miss
//! the commit p50 by more than 10 % (the TCP workloads; on `colo_store`
//! medians of skewed stages need not add up, see the README).

use serde::Value;

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k.as_str() == Some(name)))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no field {name}"))
}

fn names(list: &Value) -> Vec<String> {
    list.as_seq()
        .expect("a list")
        .iter()
        .map(|m| field(m, "name").as_str().expect("a name").to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_emits_the_declared_metrics() {
    let decl_text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let decl: Value = serde_json::from_str(&decl_text).expect("BENCHMARK.json parses");
    let end_to_end = names(field(&decl, "end_to_end"));
    let per_layer = names(field(&decl, "per_layer"));
    let workloads = names(field(&decl, "workloads"));
    assert_eq!(workloads.len(), 5);
    for n in end_to_end.iter().chain(&per_layer).chain(&workloads) {
        assert!(well_formed(n), "bad name {n}");
    }
    assert!(end_to_end.contains(&"setup_s".to_string()));

    for workload in &workloads {
        for (trace, declared) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_benchmark"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
                .args(["--scale", "100", "--trace", trace])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed:\n{stderr}"
            );
            let mut lines = stdout.lines().rev();
            let line = lines.next().expect("a result line");
            let result: Value = serde_json::from_str(line).expect("result line parses");
            // The line before: everything the run produced, which is where
            // `run` and `compare` find the ungated end-to-end metrics.
            let everything: Value =
                serde_json::from_str(lines.next().expect("two lines")).expect("line parses");
            let produced = names_of_map(field(&everything, "metrics"));
            let mut ungated = vec!["e2e.goodput_ops_s", "e2e.op_p50_us", "e2e.commit_p50_ms"];
            if workload == "crash" {
                ungated.extend(["e2e.unavail_p50_ms", "e2e.recommit_p50_ms"]);
            }
            for name in ungated {
                assert!(
                    produced.iter().any(|p| p == name),
                    "{workload} trace={trace} did not produce {name}"
                );
            }
            assert_eq!(
                field(&result, "correct"),
                &Value::Bool(true),
                "{workload} trace={trace} output check failed:\n{stderr}"
            );
            let mut emitted = names_of_map(field(&result, "metrics"));
            let mut wanted = declared.clone();
            emitted.sort();
            wanted.sort();
            assert_eq!(emitted, wanted, "{workload} trace={trace}");
        }
    }
}

fn names_of_map(v: &Value) -> Vec<String> {
    v.as_map()
        .expect("a map")
        .iter()
        .map(|(k, _)| k.as_str().expect("a name").to_string())
        .collect()
}
