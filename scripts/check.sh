#!/usr/bin/env bash
# Pre-PR gate: everything a change must pass before it ships.
#
#   scripts/check.sh --quick   build + tier-1 tests + the fixed-wait
#                              allow-list + no yield_now spin + one
#                              generator + one lock library + the workspace
#                              size ratchet + the record-budget and
#                              membership tests (fast inner loop)
#   scripts/check.sh           the full gate: workspace tests, the lossy-link
#                              exactly-once, session-order, outgrowing-RMW
#                              race, writers-against-passes, prompt-truncation,
#                              gate-fence, lost-publish, co-located-refusal,
#                              idle-cluster and batch-guard guards, manifest,
#                              third_party, dpr-bench size, forbid-unsafe and
#                              unsafe-comment lints, docs,
#                              chaos (with an availability floor) and
#                              figures smokes, and the benchmark's
#                              schema smoke
#
# Fully offline — dependencies are vendored as stubs under third_party/
# (see third_party/README.md), so no registry or network access is needed.
# rustfmt and clippy are optional in minimal toolchains; their steps are
# skipped with a notice when absent rather than failing the gate.

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"

# What the gate costs (ROADMAP item 10): each `==>` section prints its wall
# time when it ends, and the last line the total.
gate_started=$EPOCHREALTIME
section_name=""
seconds_since() { awk -v a="$1" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.1f", b - a }'; }
end_section() {
    if [[ -n "$section_name" ]]; then
        echo "    $(seconds_since "$section_started") s: $section_name"
    fi
    section_name=""
}
section() {
    end_section
    echo
    echo "==> $*"
    section_name="$*"
    section_started=$EPOCHREALTIME
}

step() {
    section "$@"
    "$@"
}

step cargo build --release

# Tier-1: the root package's unit/integration/property/doc tests.
step cargo test -q

# Background work waits on due times, not on fixed sleeps (docs/PROTOCOL.md
# §12): every non-test `thread::sleep(` and `recv_timeout(` under the
# sources of dpr-cluster and dpr-faster, counted by its text, must be on this
# list, so a new polling loop is a reviewed decision. ROADMAP item 9 says
# which of these are still to go. The simulated bus's pump thread, whose
# condvar poll (200 µs ahead, 5 ms idle) this check could not see, is gone:
# the bus's waits are its inbox's, listed below.
section "no fixed wait under dpr-cluster/src and dpr-faster/src off the allow-list"
allowed_waits=$(grep -v '^#' <<'ALLOWED'
# The client's wait for replies.
1 crates/dpr-cluster/src/client.rs: for frame in self.inbox.recv_timeout(wait).ok().into_iter().chain(rest) {
# The crate's one bounded poll (lib.rs), through which the client waits for
# owners, commits and a recovery, and the manager for a recovery.
1 crates/dpr-cluster/src/lib.rs: std::thread::sleep(every);
# The bus inbox (transport.rs), injected one-way latency like the device
# read's: the definition of its bounded wait, its channel wait to the
# caller's deadline, and its sleep to a frame's due time.
1 crates/dpr-cluster/src/transport.rs: pub fn recv_timeout(&self, timeout: Duration) -> Result<BusFrame, RecvTimeoutError> {
1 crates/dpr-cluster/src/transport.rs: let (due, frame) = next.map_or_else(|| self.lane.recv_timeout(timeout), Ok)?;
1 crates/dpr-cluster/src/transport.rs: std::thread::sleep(at.saturating_duration_since(Instant::now()));
# The acceptor's back-off after a transient accept error (EMFILE and the like).
1 crates/dpr-cluster/src/net.rs: Some(wait) => std::thread::sleep(wait),
# Injected device read latency.
1 crates/dpr-faster/src/store.rs: std::thread::sleep(d);
ALLOWED
)
waits=$(for f in $(find crates/dpr-cluster/src crates/dpr-faster/src -name '*.rs'); do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
                   /thread::sleep\(|recv_timeout\(/ { sub(/^[ \t]+/, ""); print f ": " $0 }' "$f"
done | sort | uniq -c | sed 's/^ *//')
unlisted=$(comm -23 <(sort <<<"$waits") <(sort <<<"$allowed_waits"))
if [[ -n "$unlisted" ]]; then
    echo "fixed waits off the allow-list (count, file: line):" >&2
    echo "$unlisted" >&2
    exit 1
fi

# A wait blocks or sleeps; it does not spin (docs/PROTOCOL.md §12): a
# non-test `yield_now(` under crates/*/src burns a core for as long as it
# waits, so it is allowed only in dpr-core's `Backoff` and in
# `FasterKv::tick_until`, which runs the checkpoint state machine between its
# yields. Each is named by file and enclosing function.
section "no yield_now spin under crates/*/src outside Backoff and tick_until"
spins=$(for f in $(find crates/*/src -name '*.rs'); do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
                   /^[ \t]*(pub(\([a-z]+\))? )?((const|async|unsafe) )*fn / {
                       name = $0; sub(/^.*fn /, "", name); sub(/[^A-Za-z0-9_].*/, "", name) }
                   /yield_now\(/ { print f ": fn " name ": line " FNR }' "$f"
done | grep -vE '^crates/dpr-core/src/backoff\.rs: |^crates/dpr-faster/src/store\.rs: fn tick_until: ' || true)
if [[ -n "$spins" ]]; then
    echo "a yield_now spin outside Backoff and tick_until (file: function: line):" >&2
    echo "$spins" >&2
    exit 1
fi

# One generator (ROADMAP item 8): every draw by chance comes from
# `dpr_core::Rng`, seeded by its caller, so a run replays from its seed. A
# second generator under the sources fails here: a `rand::` path or
# `ChaosRng`, the xorshift shift triple (13, 7, 17), or a SplitMix64,
# xorshift* or LCG constant, with or without `_` separators. The key hash's
# SplitMix64 finalizer in dpr-core/src/kv.rs is allowed, by line text.
section "no pseudo-random generator outside crates/dpr-core/src/rng.rs"
allowed_generators=$(grep -v '^#' <<'ALLOWED'
# Key::hash_bytes: the finalizer of a hash, not a stream.
crates/dpr-core/src/kv.rs: let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
crates/dpr-core/src/kv.rs: h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
crates/dpr-core/src/kv.rs: z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
crates/dpr-core/src/kv.rs: z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
ALLOWED
)
# SplitMix64's increment and multipliers, xorshift*'s multiplier, and the
# PCG/MMIX LCG's multiplier (hex and decimal) and increment.
constants=""
for c in 9E3779B97F4A7C15 BF58476D1CE4E5B9 94D049BB133111EB 2545F4914F6CDD1D \
    5851F42D4C957F2D 6364136223846793005 1442695040888963407; do
    constants+="${constants:+|}$(sed 's/./&_*/g; s/_\*$//' <<<"$c")"
done
sources=(crates src tests examples third_party/proptest)
generators=$({
    grep -rnE --include='*.rs' '(^|[^[:alnum:]_])rand::|ChaosRng' "${sources[@]}" || true
    grep -rniE --include='*.rs' "$constants" "${sources[@]}" || true
} | sed -E 's/^([^:]*):[0-9]+:[[:space:]]*/\1: /'
{ grep -rlzP --include='*.rs' '<<\s*13\b[\s\S]{0,200}?>>\s*7\b[\s\S]{0,200}?<<\s*17\b' \
    "${sources[@]}" || true; } | sed 's/$/: the xorshift shift triple (13, 7, 17)/')
unlisted=$({ grep -v '^crates/dpr-core/src/rng.rs: ' <<<"$generators" || true; } |
    sort | comm -23 - <(sort <<<"$allowed_generators"))
if [[ -n "$unlisted" ]]; then
    echo "a generator outside dpr-core/src/rng.rs (file: line):" >&2
    echo "$unlisted" >&2
    exit 1
fi

# One lock library: every crate locks through `std::sync`, whose data locks
# panic on poison (docs/PROTOCOL.md §12). `parking_lot`, or a stand-in of
# that name, in a manifest or a source is a second lock API for the same
# primitive.
section "no parking_lot in the manifests or under crates, src, tests and examples"
locks=$({
    grep -rn parking_lot Cargo.toml crates/*/Cargo.toml
    grep -rn --include='*.rs' parking_lot crates src tests examples
} || true)
if [[ -n "$locks" ]]; then
    echo "parking_lot is back (file:line); lock through std::sync:" >&2
    echo "$locks" >&2
    exit 1
fi

# The workspace shrinks towards ROADMAP item 15's target (33,500 lines) and
# does not grow back unseen: a change that needs more lines raises this bound
# in its own diff, where a reviewer sees it, and one that deletes lowers it.
section "workspace Rust is at most 34,736 lines"
rust_lines=$(find crates src tests examples -name '*.rs' | xargs cat | wc -l)
if (( rust_lines > 34736 )); then
    echo "workspace Rust is $rust_lines lines, above the bound of 34,736" >&2
    exit 1
fi

# A record budget holds the records it names and an unflushed bound is held
# to it, the latter by the writes alone, with no owner that maintains the
# store (docs/PROTOCOL.md §5); a stall scan whose resend fails hands back the
# batches it took for a departed shard, and a removed worker's proxy hop
# leaves the bus with it. One run each.
step cargo test --release -q -p dpr-faster --test store_tests -- \
    a_record_budget_keeps_the_records_it_names_resident \
    an_unflushed_bound_above_the_budget_keeps_the_budget
step cargo test --release -q -p dpr-cluster --lib -- \
    session::tests::a_failed_resend_hands_back_the_departed_batches
step cargo test --release -q -p dpr-cluster --test membership_tests \
    a_removed_workers_proxy_leaves_the_bus

if [[ "$MODE" == "--quick" ]]; then
    end_section
    echo
    echo "Quick checks passed (tier-1, the fixed-wait allow-list, one generator, one lock library,"
    echo "the size ratchet and the record-budget and membership tests;"
    echo "run scripts/check.sh for the full gate)."
    echo "Total: $(seconds_since "$gate_started") s."
    exit 0
fi

# The full workspace: every crate's suites.
step cargo test --workspace -q

# A guarantee is guarded, not sampled: its test runs 20 times in release and
# the first failure stops the gate.
guard() { # label, package, test target, test name
    section "$1 guard (20 runs, release)"
    for run in $(seq 20); do
        cargo test --release -q -p "$2" --test "$3" "$4" >/dev/null || {
            echo "$1 run $run of 20 failed" >&2
            exit 1
        }
    done
}
# Exactly-once under loss (docs/NETWORK.md §6): 30 % loss each way,
# non-idempotent ops.
guard lossy-link-exactly-once dpr-cluster cluster_tests \
    lossy_links_with_dedupe_apply_increments_exactly_once
# The ordering rule that guarantee rests on (docs/NETWORK.md §6): a sender's
# frames are served by one thread, in the order sent; a write and, right
# behind it, a read of the same key, at a worker with two executors.
guard session-order dpr-cluster cluster_tests \
    a_sessions_batches_are_served_in_the_order_sent
# An RMW whose result outgrows its record must not lose the in-place RMWs
# that race its copy (docs/PROTOCOL.md §5, the sealed record): exact counter
# and exact length.
guard outgrowing-RMW-race dpr-faster concurrency_tests \
    an_rmw_that_outgrows_its_record_loses_no_concurrent_in_place_rmw
# A copy-forward pass and the truncation behind it lose no write that races
# them (docs/PROTOCOL.md §5, A log with a beginning): four writers on a
# larger-than-memory store, every read and every final value exact.
guard writers-against-passes dpr-faster compaction \
    writers_racing_passes_and_truncations_keep_every_key_exact
# A covered prefix is freed promptly (docs/PROTOCOL.md §5, A log with a
# beginning): the worker collects as soon as the cut covers a finished pass,
# so the log's beginning moves within 50 ms of it, five passes in a row.
guard prompt-truncation dpr-cluster cluster_tests \
    a_pass_is_freed_within_50_ms_of_the_cut_covering_it
# The gate's fence (docs/PROTOCOL.md §4): a drain quiesces the epoch before
# it takes the table lock, so no version is reported between a batch's
# execution in it and the recording of that batch's dependencies. Both fail
# every run with the drain's `quiesce()` removed.
guard gate-fence libdpr gate_stress \
    stalled_writer_is_not_overtaken_by_its_versions_report
guard gate-fence libdpr gate_stress \
    concurrent_record_and_pump_lose_nothing
# A publish that loses its CAS appends its record again instead of relinking
# one a flush may have copied (docs/PROTOCOL.md §5, the hash index): eight
# writers on one chain, the flusher two records behind the tail, every key
# exact after a crash. 6 of 20 runs lose a key with the relink.
guard lost-publish dpr-faster concurrency_tests \
    a_lost_publish_race_leaves_no_stale_link_on_the_device
# A batch the co-located worker refuses for ownership is re-routed under the
# serials it was given (docs/PROTOCOL.md §7), so the session's committed
# prefix passes them: 256-op batches against a partition that moves away and
# back 400 times. Fails every run with the refusal handed to the caller.
guard co-located-refusal dpr-cluster cluster_tests \
    a_colocated_batch_refused_mid_migration_keeps_its_serials
# A cluster shard has one background loop, parked between due times
# (docs/PROTOCOL.md §12): two idle shard loops wake fewer than 400 times in
# 300 ms.
guard idle-cluster dpr-cluster cluster_tests \
    an_idle_cluster_parks_its_background_loops
# A batch runs under one epoch guard, which an append refreshes while it
# waits for the flusher (docs/PROTOCOL.md §5), so an eviction in another
# session waits for one flush, not for the batch's next refresh 64 operations
# on: each wait is a 10 ms flush, and the longest eviction must stay under
# 200 ms. Fails every run (~650 ms) with that refresh removed.
guard batch-guard dpr-faster concurrency_tests \
    a_batch_that_waits_for_the_flusher_does_not_hold_off_eviction

# No crate serializes through serde: every byte format has one hand-written
# codec. The stand-ins under third_party/ are for benchmark/ only.
section "no serde in the crates' manifests"
if grep -l serde crates/*/Cargo.toml Cargo.toml; then
    echo "serde is back in the manifests listed above" >&2
    exit 1
fi

# A manifest names what its crate uses: every name under [dependencies] or
# [dev-dependencies] must occur, as a word, somewhere in the crate's sources.
section "no declared dependency that its crate never names"
unused=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    for dep in $(awk '/^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]") }
                      on && /^[a-z]/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
        if ! grep -rqsw "${dep//-/_}" "$dir"/{src,tests,examples}; then
            echo "$manifest declares $dep and never names it" >&2
            unused=1
        fi
    done
done
# And a stand-in is there for someone: a directory under third_party/ that no
# manifest takes (a crate's or the root package's `name.workspace = true`, or
# a path from benchmark/) is dead code with a workspace member's standing.
for dir in third_party/*/; do
    name=$(basename "$dir")
    if ! grep -qsE "^$name\.workspace *= *true" Cargo.toml crates/*/Cargo.toml &&
        ! grep -qs "third_party/$name\"" crates/*/Cargo.toml benchmark/Cargo.toml; then
        echo "third_party/$name: no manifest depends on it" >&2
        unused=1
    fi
done
[[ "$unused" == 0 ]] || exit 1

# dpr-bench is a harness, not a second code base (ROADMAP item 7).
section "crates/dpr-bench is at most 2,100 lines of Rust"
bench_lines=$(find crates/dpr-bench -name '*.rs' -print0 | xargs -0 cat | wc -l)
if (( bench_lines > 2100 )); then
    echo "crates/dpr-bench has $bench_lines lines of Rust" >&2
    exit 1
fi

# The compiler confines `unsafe` to dpr-faster: every other library crate,
# and the facade, forbids it. (Integration tests and the `allocstacks`
# binary are crates of their own and keep their `GlobalAlloc` impls.)
section "#![forbid(unsafe_code)] in every lib.rs but dpr-faster's"
for lib in src/lib.rs crates/*/src/lib.rs; do
    if [[ "$lib" != crates/dpr-faster/src/lib.rs ]] &&
        ! grep -q '^#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "$lib does not forbid unsafe code" >&2
        exit 1
    fi
done

# One figure harness, steered by flags: no environment knobs in dpr-bench.
section "no env::var under crates/dpr-bench/src"
if grep -rn 'env::var' crates/dpr-bench/src; then
    echo "an environment knob is back in dpr-bench (lines above)" >&2
    exit 1
fi

if cargo fmt --version >/dev/null 2>&1; then
    step cargo fmt --check
else
    section "cargo fmt --check SKIPPED (rustfmt not installed)"
fi

if cargo clippy --version >/dev/null 2>&1; then
    section "cargo clippy --workspace --all-targets (warnings and unexplained unsafe denied)"
    cargo clippy --workspace --all-targets -- -D warnings \
        -D clippy::undocumented_unsafe_blocks
else
    section "cargo clippy SKIPPED (clippy not installed)"
fi

section "cargo doc --no-deps --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Chaos smoke: one short fixed-seed round of the fault-injection campaign
# with the online invariant checker (crates/dpr-chaos; docs/PROTOCOL.md
# §10). Exits nonzero on any invariant violation. The checked-in
# BENCH_chaos.json comes from a full default-length campaign; the smoke
# writes to the target directory instead. A mistyped flag must be refused,
# not run as the default campaign. The round must also make progress: seed
# 42 adds a worker after a crash, and a joiner left on the initial
# world-line stalls every session. Availability reads 51.9-55.8 % with the
# joiner on world-line 0, and 77.9-85.2 % over 100 runs with it on the
# cluster's (docs/PROTOCOL.md §6).
section "chaos smoke (1 round, seed 42, 2s; availability at least 75%)"
cargo run --release -q -p dpr-bench --bin chaos -- \
    --seed 42 --rounds 1 --secs 2 --out target/BENCH_chaos.smoke.json
availability=$(grep -o '"availability_pct": [0-9.]*' target/BENCH_chaos.smoke.json | cut -d' ' -f2)
if ! awk -v a="$availability" 'BEGIN { exit !(a != "" && a >= 75) }'; then
    echo "chaos smoke: availability ${availability:-missing}% is below the floor of 75%" >&2
    exit 1
fi
if cargo run --release -q -p dpr-bench --bin chaos -- --sed 42 2>/dev/null; then
    echo "chaos accepted the unknown flag --sed" >&2
    exit 1
fi

# Figures smoke: the one step that executes figure code. A table-driven
# figure and an ablation at a tenth of the default window (Fig. 12 keeps its
# 2 s floor), the row counts checked against the table, and each Fig. 12
# row's percentile columns (p10_ms .. p999_ms, read off the histogram)
# positive and non-decreasing; an unknown name must be refused.
section "figures smoke (fig12 + ablation-finder, 0.2 s a point, 2000 keys)"
cargo run --release -q -p dpr-bench --bin figures -- \
    fig12 ablation-finder --secs 0.2 --keys 2000 > target/figures.smoke.txt
rows() { grep -c "^$1"$'\t' target/figures.smoke.txt || true; }
if [[ "$(rows figures-meta) $(rows fig12) $(rows ablation-finder)" != "1 4 3" ]]; then
    echo "figures smoke: want 1 figures-meta, 4 fig12, 3 ablation-finder rows" >&2
    exit 1
fi
if ! awk -F'\t' '/^fig12\t/ {
        last = 0
        for (i = 2; i <= NF; i++) {
            if (split($i, kv, "=") != 2 || kv[1] !~ /^p[0-9]+_ms$/) continue
            if (kv[2] + 0 <= 0 || kv[2] + 0 < last) { print "figures smoke: " $0; bad = 1 }
            last = kv[2] + 0
        }
    } END { exit bad }' target/figures.smoke.txt >&2; then
    echo "figures smoke: a fig12 percentile is zero or below the one before it" >&2
    exit 1
fi
if cargo run --release -q -p dpr-bench --bin figures -- fig20 2>/dev/null; then
    echo "figures accepted the unknown name fig20" >&2
    exit 1
fi

# The benchmark (benchmark/, BENCHMARK.json) is a package of its own outside
# the workspace, so nothing above compiles it: this step is what catches a
# crate API change that breaks it. Its tests run every workload for 1 s at
# 1/100 size and check the output on all three planes. Performance is
# measured with its `run` and `compare` commands (benchmark/README.md), not
# here.
section "benchmark schema smoke (every workload, 1 s, 1/100 size)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml
end_section

echo
echo "All checks passed."
echo "Total: $(seconds_since "$gate_started") s."
