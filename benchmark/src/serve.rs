//! The server role (`benchmark --serve …`) and the generator's handle on
//! it. The TCP workloads run the whole cluster in a child process behind
//! one `NetServer` listener, so requests cross a real socket and a real
//! process boundary (loopback, not a link). Parent and child talk over the
//! child's stdio: `MARK`, `TRACE`, `DUMP`, `STOP`.

use crate::alloc_count;
use crate::outcome::Outcome;
use crate::spec::{Finder, Scale, Storage, TcpSpec};
use crate::trace::{AuditEvents, Clock, LiveTrace};
use dpr_chaos::InvariantChecker;
use dpr_cluster::{Cluster, ClusterConfig, NetServer, NetServerConfig};
use dpr_core::DprFinderMode;
use dpr_storage::StorageProfile;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

pub fn cluster_config(spec: &TcpSpec) -> ClusterConfig {
    ClusterConfig {
        shards: spec.shards,
        storage: match spec.storage {
            Storage::Null => StorageProfile::Null,
            Storage::LocalSsd => StorageProfile::LocalSsd,
        },
        finder_mode: match spec.finder {
            Finder::Approximate => DprFinderMode::Approximate,
            Finder::Exact => DprFinderMode::Exact,
        },
        checkpoint_interval: Some(Duration::from_millis(spec.checkpoint_ms)),
        finder_interval: Duration::from_millis(5),
        metadata_latency: Duration::from_micros(spec.metadata_us),
        // An external generator has no ownership table; it partitions keys
        // itself (docs/NETWORK.md §7).
        validate_ownership: false,
        dedupe_window: 4096,
        ..ClusterConfig::default()
    }
}

/// Entry point of the child process. `args` are what follows `--serve`.
pub fn serve(args: &[String]) -> Result<(), String> {
    // The child is told which workload it serves and looks its
    // configuration up in the same table as the generator.
    let (spec, lag_bound) = match args {
        [workload, scale] => scale
            .parse()
            .ok()
            .and_then(|div| crate::spec::tcp_spec(workload, Scale(div)))
            .map(|spec| (spec, crate::spec::lag_bound(workload))),
        _ => None,
    }
    .ok_or("usage: --serve <tcp workload> <scale>")?;
    let clock = Clock::start();
    let cluster =
        Cluster::start(cluster_config(&spec)).map_err(|e| format!("start cluster: {e}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let server = NetServer::start(
        cluster.workers().to_vec(),
        listener,
        NetServerConfig::default(),
    )
    .map_err(|e| format!("start net server: {e}"))?;

    let mut out = std::io::stdout().lock();
    let mut say = |line: String| {
        // The parent closing the pipe ends the loop below; nothing to do
        // about a failed write here.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    };
    say(format!(
        "LISTEN {} {}",
        server.local_addr(),
        std::process::id()
    ));

    let mut trace: Option<LiveTrace> = None;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "STOP" => break,
            "MARK" => {
                let ops: u64 = cluster.workers().iter().map(|w| w.executed_ops()).sum();
                say(format!("MARK {} {ops}", alloc_count()));
            }
            "TRACE" => {
                if trace.is_none() {
                    trace = Some(LiveTrace::start(
                        clock,
                        cluster.metadata().clone(),
                        lag_bound,
                    ));
                }
                say("OK".into());
            }
            "DUMP" => {
                if let Some(t) = trace.take() {
                    let (ev, checker) = t.finish();
                    for (at, shard, version, deps) in ev.reports {
                        say(format!("R {at} {shard} {version} {deps}"));
                    }
                    for (at, cut) in ev.cuts {
                        let flat: Vec<String> =
                            cut.iter().map(|(s, v)| format!("{s}:{v}")).collect();
                        say(format!("C {at} {}", flat.join(" ")));
                    }
                    say(format!(
                        "V {} {}",
                        checker.violation_count(),
                        checker.max_lag()
                    ));
                    for v in checker.violations() {
                        say(format!("W {}", v.replace('\n', " ")));
                    }
                }
                for l in dpr_telemetry::global().render_prometheus().lines() {
                    if !l.starts_with('#') {
                        say(format!("M {l}"));
                    }
                }
                say("END".into());
            }
            _ => {}
        }
    }
    server.shutdown();
    cluster.shutdown();
    Ok(())
}

/// What the child reported on `DUMP`.
#[derive(Default)]
pub struct ServerDump {
    pub audit: AuditEvents,
    /// Exported telemetry: sample name (`x_total`, `y_sum`, `y_count`, …) →
    /// value. Histogram buckets are left out.
    pub telemetry: BTreeMap<String, f64>,
    pub violations: u64,
    pub violation_text: Vec<String>,
    /// Largest cut lag the checker saw, in versions.
    pub max_lag: u64,
}

impl ServerDump {
    /// The same record for a cluster running inside this process.
    pub fn local(audit: AuditEvents, checker: &InvariantChecker) -> ServerDump {
        let mut telemetry = BTreeMap::new();
        parse_telemetry(
            dpr_telemetry::global().render_prometheus().lines(),
            &mut telemetry,
        );
        ServerDump {
            audit,
            telemetry,
            violations: checker.violation_count(),
            violation_text: checker.violations(),
            max_lag: checker.max_lag(),
        }
    }

    /// Per-layer numbers read from what the program exports: telemetry
    /// samples, audit events and the invariant checker's verdict. On the TCP
    /// workloads (`over_tcp`) this is the server child's record, with the
    /// network layer's samples in it, and the generator's own buffer pool is
    /// counted in; in process nothing uses the wire or the pool.
    pub fn report(&self, over_tcp: bool, secs: f64, out: &mut Outcome) {
        let get = |name: &str| self.telemetry.get(name).copied().unwrap_or(0.0);
        out.set(
            "store.append_stalls",
            get("dpr_faster_log_backpressure_stalls_total"),
        );
        if over_tcp {
            let mut own = BTreeMap::new();
            parse_telemetry(
                dpr_telemetry::global().render_prometheus().lines(),
                &mut own,
            );
            let both = |name: &str| get(name) + own.get(name).copied().unwrap_or(0.0);
            let frames = get("dpr_net_frame_bytes_count");
            if frames > 0.0 {
                out.set(
                    "net.frame_bytes_mean",
                    get("dpr_net_frame_bytes_sum") / frames,
                );
            }
            out.set("net.frame_rejects", get("dpr_net_frame_rejects_total"));
            let (hits, misses) = (both("dpr_pool_hits_total"), both("dpr_pool_misses_total"));
            if hits + misses > 0.0 {
                out.set("pool.hit_ratio", hits / (hits + misses));
            }
        }
        let a = &self.audit;
        out.set("finder.cuts_per_s", a.cuts.len() as f64 / secs);
        out.set("finder.reports_per_s", a.reports.len() as f64 / secs);
        out.set(
            "finder.deps_per_report",
            a.reports.iter().map(|r| f64::from(r.3)).sum::<f64>() / a.reports.len().max(1) as f64,
        );
        out.note(format!(
            "invariant checker: {} violations, largest cut lag {} versions",
            self.violations, self.max_lag
        ));
        if self.violations > 0 {
            out.error(format!(
                "invariant checker: {} violations: {:?}",
                self.violations, self.violation_text
            ));
        }
    }
}

/// Parse the sample lines of `render_prometheus` into a map.
pub fn parse_telemetry<'a>(lines: impl Iterator<Item = &'a str>, into: &mut BTreeMap<String, f64>) {
    for l in lines.filter(|l| !l.starts_with('#')) {
        if let Some((name, value)) = l.rsplit_once(' ') {
            if !name.contains('{') {
                if let Ok(v) = value.parse::<f64>() {
                    into.insert(name.to_string(), v);
                }
            }
        }
    }
}

/// The generator's handle on the server child.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    pub pid: u32,
    lines: Lines<BufReader<ChildStdout>>,
}

impl ServerProc {
    pub fn spawn(workload: &str, scale: Scale) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--serve", workload, &scale.0.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdout = child.stdout.take().ok_or("child stdout missing")?;
        let mut proc = ServerProc {
            child,
            addr: "0.0.0.0:0".parse().expect("literal address"),
            pid: 0,
            lines: BufReader::new(stdout).lines(),
        };
        let line = proc.expect_line("LISTEN ")?;
        let mut it = line.split_whitespace();
        proc.addr = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("bad LISTEN address")?;
        proc.pid = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or("bad LISTEN pid")?;
        Ok(proc)
    }

    fn send(&mut self, cmd: &str) -> Result<(), String> {
        let stdin = self.child.stdin.as_mut().ok_or("child stdin closed")?;
        writeln!(stdin, "{cmd}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write {cmd} to server child: {e}"))
    }

    fn next_line(&mut self) -> Result<String, String> {
        match self.lines.next() {
            Some(Ok(l)) => Ok(l),
            Some(Err(e)) => Err(format!("read server child: {e}")),
            None => Err("server child exited".into()),
        }
    }

    /// Read lines until one starts with `prefix`; return its remainder.
    fn expect_line(&mut self, prefix: &str) -> Result<String, String> {
        loop {
            let l = self.next_line()?;
            if let Some(rest) = l.strip_prefix(prefix) {
                return Ok(rest.to_string());
            }
        }
    }

    /// The child's `(heap allocations, operations executed)` so far.
    pub fn mark(&mut self) -> Result<(u64, u64), String> {
        self.send("MARK")?;
        let rest = self.expect_line("MARK ")?;
        let mut it = rest.split_whitespace().map(str::parse::<u64>);
        match (it.next(), it.next()) {
            (Some(Ok(a)), Some(Ok(o))) => Ok((a, o)),
            _ => Err(format!("bad MARK reply: {rest}")),
        }
    }

    /// Turn on telemetry, the audit log and the invariant checker.
    pub fn trace_on(&mut self) -> Result<(), String> {
        self.send("TRACE")?;
        self.expect_line("OK").map(|_| ())
    }

    /// Stop tracing (if on) and collect what the child recorded.
    pub fn dump(&mut self) -> Result<ServerDump, String> {
        self.send("DUMP")?;
        let mut dump = ServerDump::default();
        let mut telemetry = Vec::new();
        loop {
            let l = self.next_line()?;
            let (tag, rest) = l.split_once(' ').unwrap_or((l.as_str(), ""));
            let mut nums = rest.split_whitespace().map(str::parse::<u64>);
            match tag {
                "END" => break,
                "R" => {
                    if let (Some(Ok(t)), Some(Ok(s)), Some(Ok(v)), Some(Ok(d))) =
                        (nums.next(), nums.next(), nums.next(), nums.next())
                    {
                        dump.audit.reports.push((t, s as u32, v, d as u32));
                    }
                }
                "C" => {
                    let mut parts = rest.split_whitespace();
                    let t = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                    let cut = parts
                        .filter_map(|p| p.split_once(':'))
                        .filter_map(|(s, v)| Some((s.parse().ok()?, v.parse().ok()?)))
                        .collect();
                    dump.audit.cuts.push((t, cut));
                }
                "V" => {
                    dump.violations = nums.next().and_then(Result::ok).unwrap_or(0);
                    dump.max_lag = nums.next().and_then(Result::ok).unwrap_or(0);
                }
                "W" => dump.violation_text.push(rest.to_string()),
                "M" => telemetry.push(rest.to_string()),
                _ => {}
            }
        }
        parse_telemetry(telemetry.iter().map(String::as_str), &mut dump.telemetry);
        Ok(dump)
    }

    /// Ask the child to stop and wait until it has ended.
    pub fn stop(mut self) {
        let _ = self.send("STOP");
        drop(self.child.stdin.take());
        for _ in 0..500 {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => break,
            }
        }
        // Only reached if the child wedged on shutdown.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Covers error paths that never reached `stop`: no child outlives
        // the benchmark.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
