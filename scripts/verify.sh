#!/usr/bin/env bash
# Tier-1 verification: hermetic offline build, full test suite, a repro
# smoke run, and a guard that no external registry dependency has crept
# back into any manifest or the lockfile.
#
# The workspace builds with zero external crates by design (see
# DESIGN.md §3); everything lives in crates/substrate. Run this from the
# repo root before merging.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test -q --workspace --offline"
cargo test -q --workspace --offline

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== repro smoke (T1)"
out=$(cargo run --release --offline -q -p fcm-bench --bin repro -- t1)
echo "$out" | grep -q "Table 1" || {
    echo "FAIL: repro t1 did not render Table 1" >&2
    exit 1
}

echo "== repro smoke (E14 recovery policy sweep)"
e14_a=$(cargo run --release --offline -q -p fcm-bench --bin repro -- --quick e14)
echo "$e14_a" | grep -q "E14 node-failure recovery policy sweep" || {
    echo "FAIL: repro e14 did not render the policy sweep" >&2
    exit 1
}
echo "$e14_a" | grep -q "failover+shedding" || {
    echo "FAIL: repro e14 is missing the shedding policy rows" >&2
    exit 1
}
# Determinism: two same-seed runs must be byte-identical. The `# `
# lines are wall-clock telemetry — the one intentionally
# non-deterministic part of the output — so strip them first.
e14_b=$(cargo run --release --offline -q -p fcm-bench --bin repro -- --quick e14)
if [ "$(echo "$e14_a" | grep -v '^# ')" != "$(echo "$e14_b" | grep -v '^# ')" ]; then
    echo "FAIL: repro e14 is not deterministic across same-seed runs" >&2
    exit 1
fi

echo "== parallel sweep determinism (E1 + E14, 1 thread vs 4)"
# The SweepDriver contract: cell RNG streams are split per cell, so the
# experiment tables must be byte-identical whatever FCM_SWEEP_THREADS is.
sweep_seq=$(FCM_SWEEP_THREADS=1 cargo run --release --offline -q -p fcm-bench --bin repro -- --quick e1 e14 | grep -v '^# ')
sweep_par=$(FCM_SWEEP_THREADS=4 cargo run --release --offline -q -p fcm-bench --bin repro -- --quick e1 e14 | grep -v '^# ')
if [ "$sweep_seq" != "$sweep_par" ]; then
    echo "FAIL: parallel sweep output differs from sequential" >&2
    exit 1
fi

echo "== sparse engine determinism + oracle (E15, 1 thread vs 4)"
# The sparse sweep prints only deterministic quantities, so the table
# must be byte-identical whatever FCM_SWEEP_THREADS is; and every
# n <= 512 cell must carry the sparse-vs-dense bitwise oracle verdict.
e15_seq=$(FCM_SWEEP_THREADS=1 cargo run --release --offline -q -p fcm-bench --bin repro -- --quick e15 | grep -v '^# ')
e15_par=$(FCM_SWEEP_THREADS=4 cargo run --release --offline -q -p fcm-bench --bin repro -- --quick e15 | grep -v '^# ')
if [ "$e15_seq" != "$e15_par" ]; then
    echo "FAIL: parallel e15 sweep output differs from sequential" >&2
    exit 1
fi
if ! printf '%s\n' "$e15_seq" | grep -q 'bitwise-equal'; then
    echo "FAIL: e15 ran no sparse-vs-dense oracle cell" >&2
    exit 1
fi

echo "== repro rejects unknown experiment ids"
if cargo run --release --offline -q -p fcm-bench --bin repro -- e99 2>/dev/null; then
    echo "FAIL: repro accepted an unknown experiment id" >&2
    exit 1
fi

echo "== repro rejects unknown flags"
if cargo run --release --offline -q -p fcm-bench --bin repro -- --obsout x 2>/dev/null; then
    echo "FAIL: repro accepted an unknown flag" >&2
    exit 1
fi

echo "== observability: tables byte-identical obs on vs off (E1)"
# The observation contract (DESIGN.md §Observability): enabling span
# tracing and metrics must not change a single table byte. The obs log
# itself goes to a repo-internal scratch path.
mkdir -p target/verify
obs_off=$(cargo run --release --offline -q -p fcm-bench --bin repro -- --quick e1 | grep -v '^# ')
obs_on=$(cargo run --release --offline -q -p fcm-bench --bin repro -- --quick e1 --obs-out target/verify/obs_e1.jsonl | grep -v '^# ')
if [ "$obs_off" != "$obs_on" ]; then
    echo "FAIL: E1 output differs with observability enabled" >&2
    exit 1
fi

echo "== observability: obsview renders the event log"
view=$(cargo run --release --offline -q -p fcm-bench --bin obsview -- target/verify/obs_e1.jsonl)
echo "$view" | grep -q "span tree" || {
    echo "FAIL: obsview did not render a span tree" >&2
    exit 1
}
echo "$view" | grep -q "eval.sweep.cell" || {
    echo "FAIL: obsview is missing the sweep cell spans" >&2
    exit 1
}
if cargo run --release --offline -q -p fcm-bench --bin obsview -- scripts/verify.sh 2>/dev/null; then
    echo "FAIL: obsview accepted a non-JSONL file" >&2
    exit 1
fi

echo "== static analysis: repro --check over every experiment id"
# The pre-flight gate: every committed workload model must be clean of
# error diagnostics before any experiment driver will touch it.
cargo run --release --offline -q -p fcm-bench --bin repro -- --check > target/verify/check_all.txt
grep -q "paper: 0 error" target/verify/check_all.txt || {
    echo "FAIL: repro --check did not report a clean paper model" >&2
    exit 1
}
grep -q "avionics: 0 error" target/verify/check_all.txt || {
    echo "FAIL: repro --check did not report a clean avionics model" >&2
    exit 1
}

echo "== static analysis: checktool JSON schema + determinism"
set +e
FCM_SWEEP_THREADS=1 cargo run --release --offline -q -p fcm-bench --bin checktool -- --json > target/verify/check_seq.json
seq_rc=$?
FCM_SWEEP_THREADS=4 cargo run --release --offline -q -p fcm-bench --bin checktool -- --json > target/verify/check_par.json
par_rc=$?
set -e
if [ "$seq_rc" -ne 0 ] || [ "$par_rc" -ne 0 ]; then
    echo "FAIL: checktool found errors in a committed workload model" >&2
    exit 1
fi
grep -q '"schema": "fcm-check/v1"' target/verify/check_seq.json || {
    echo "FAIL: checktool JSON is missing the schema tag" >&2
    exit 1
}
if ! cmp -s target/verify/check_seq.json target/verify/check_par.json; then
    echo "FAIL: checktool output differs across FCM_SWEEP_THREADS" >&2
    exit 1
fi

echo "== contracts: emit -> check round trip is clean + thread-count determinism"
# The synthesized set is the tightest passing one, so re-checking the
# model against its own emitted contracts must be clean (C017–C022
# armed); and the contract-bearing report must be byte-identical
# whatever FCM_SWEEP_THREADS says.
cargo run --release --offline -q -p fcm-bench --bin checktool -- avionics --emit-contracts \
    > target/verify/avionics.contracts.json
grep -q '"schema": "fcm-contracts/v1"' target/verify/avionics.contracts.json || {
    echo "FAIL: --emit-contracts did not print an fcm-contracts/v1 document" >&2
    exit 1
}
FCM_SWEEP_THREADS=1 cargo run --release --offline -q -p fcm-bench --bin checktool -- \
    avionics --contracts target/verify/avionics.contracts.json --json \
    > target/verify/contracts_seq.json
FCM_SWEEP_THREADS=4 cargo run --release --offline -q -p fcm-bench --bin checktool -- \
    avionics --contracts target/verify/avionics.contracts.json --json \
    > target/verify/contracts_par.json
if ! cmp -s target/verify/contracts_seq.json target/verify/contracts_par.json; then
    echo "FAIL: contract-bearing report differs across FCM_SWEEP_THREADS" >&2
    exit 1
fi

echo "== contracts: a violated guarantee is caught (exit 1, C017)"
# Zero out every guarantee: each FCM's actual row sum now exceeds it.
sed 's/"guarantee": [0-9.eE+-]*/"guarantee": 0.0/' \
    target/verify/avionics.contracts.json > target/verify/broken.contracts.json
set +e
cargo run --release --offline -q -p fcm-bench --bin checktool -- \
    avionics --contracts target/verify/broken.contracts.json \
    > target/verify/contracts_broken.txt
contracts_rc=$?
set -e
if [ "$contracts_rc" -ne 1 ]; then
    echo "FAIL: broken contracts exited $contracts_rc, expected 1" >&2
    exit 1
fi
grep -q "C017" target/verify/contracts_broken.txt || {
    echo "FAIL: broken contracts did not trip the guarantee check" >&2
    exit 1
}

echo "== static analysis: the broken model is caught (exit 1)"
set +e
cargo run --release --offline -q -p fcm-bench --bin checktool -- --broken-e14 > target/verify/check_broken.txt
broken_rc=$?
set -e
if [ "$broken_rc" -ne 1 ]; then
    echo "FAIL: checktool --broken-e14 exited $broken_rc, expected 1" >&2
    exit 1
fi
grep -q "C012" target/verify/check_broken.txt || {
    echo "FAIL: the broken model did not trip the anti-affinity check" >&2
    exit 1
}

echo "== archived repro_output.txt is not stale (whole file)"
# A stale archive shipped once; this guard re-runs every experiment at
# full scale (a few seconds) and diffs the output against the committed
# file, minus `# ` wall-clock telemetry lines and blank lines.
archived=$(grep -v '^# \|^$' repro_output.txt)
fresh=$(cargo run --release --offline -q -p fcm-bench --bin repro | grep -v '^# \|^$')
if [ "$archived" != "$fresh" ]; then
    echo "FAIL: repro_output.txt is stale — regenerate with" >&2
    echo "      cargo run --release -p fcm-bench --bin repro > repro_output.txt" >&2
    diff <(echo "$archived") <(echo "$fresh") | head -20 >&2 || true
    exit 1
fi

serve_bin=target/release/fcm-serve
servegen_bin=target/release/servegen

# Waits for the daemon to bind its unix socket (arg 1).
wait_for_socket() {
    for _ in $(seq 1 200); do
        [ -S "$1" ] && return 0
        sleep 0.05
    done
    echo "FAIL: daemon never bound $1" >&2
    exit 1
}

echo "== online service: golden transcript + obs + SIGTERM drain"
rm -f target/verify/serve.sock target/verify/obs_serve.jsonl
"$serve_bin" --model paper --socket target/verify/serve.sock \
    --obs-out target/verify/obs_serve.jsonl > target/verify/serve_daemon.log 2>&1 &
serve_pid=$!
wait_for_socket target/verify/serve.sock
"$servegen_bin" --socket target/verify/serve.sock --timeout 30000 \
    --script scripts/serve_session.jsonl > target/verify/serve_transcript.txt
if ! cmp -s scripts/serve_session.golden target/verify/serve_transcript.txt; then
    echo "FAIL: serve transcript drifted from scripts/serve_session.golden" >&2
    diff scripts/serve_session.golden target/verify/serve_transcript.txt >&2 || true
    exit 1
fi
# Every mutation stayed on the incremental Eq. 4 path.
tail -1 target/verify/serve_transcript.txt | grep -q '"full_condenses":1' || {
    echo "FAIL: serve session fell off the incremental path" >&2
    exit 1
}
kill -TERM "$serve_pid"
set +e; wait "$serve_pid"; serve_rc=$?; set -e
if [ "$serve_rc" -ne 0 ]; then
    echo "FAIL: fcm-serve SIGTERM drain exited $serve_rc, expected 0" >&2
    exit 1
fi
grep -q "serve.apply_ns" target/verify/obs_serve.jsonl || {
    echo "FAIL: serve obs log is missing the apply histogram" >&2
    exit 1
}
cargo run --release --offline -q -p fcm-bench --bin obsview -- \
    target/verify/obs_serve.jsonl | grep -q "serve.apply_ns" || {
    echo "FAIL: obsview does not render the serve histograms" >&2
    exit 1
}

echo "== telemetry plane: recorder on/off responses byte-identical"
# The observation contract extends to the wire: flight recorder enabled
# (the default) vs --no-flight must not change one response byte.
rm -f target/verify/serve.sock
"$serve_bin" --model paper --socket target/verify/serve.sock \
    --no-flight > /dev/null 2>&1 &
serve_pid=$!
wait_for_socket target/verify/serve.sock
"$servegen_bin" --socket target/verify/serve.sock --timeout 30000 \
    --script scripts/serve_session.jsonl > target/verify/serve_noflight.txt
kill -TERM "$serve_pid"
set +e; wait "$serve_pid"; set -e
if ! cmp -s target/verify/serve_transcript.txt target/verify/serve_noflight.txt; then
    echo "FAIL: serve responses differ with the flight recorder disabled" >&2
    exit 1
fi

echo "== telemetry plane: subscription golden + SIGTERM flight dump"
# One daemon serves both checks: a live subscription streams the
# scripted mutations (ack + events + end, byte-compared against the
# golden), then SIGTERM dumps the flight ring those same events landed
# in.
rm -f target/verify/serve_sub.sock target/verify/flight.jsonl
"$serve_bin" --model paper --socket target/verify/serve_sub.sock \
    --heartbeat-every 2 --flight-out target/verify/flight.jsonl \
    > /dev/null 2>&1 &
serve_pid=$!
wait_for_socket target/verify/serve_sub.sock
"$servegen_bin" --socket target/verify/serve_sub.sock --timeout 30000 \
    --script scripts/serve_subscribe.jsonl --subscribe-transcript 6 \
    > target/verify/serve_subscribe.txt
if ! cmp -s scripts/serve_subscribe.golden target/verify/serve_subscribe.txt; then
    echo "FAIL: subscription stream drifted from scripts/serve_subscribe.golden" >&2
    diff scripts/serve_subscribe.golden target/verify/serve_subscribe.txt >&2 || true
    exit 1
fi
kill -TERM "$serve_pid"
set +e; wait "$serve_pid"; serve_rc=$?; set -e
if [ "$serve_rc" -ne 0 ]; then
    echo "FAIL: fcm-serve SIGTERM drain exited $serve_rc, expected 0" >&2
    exit 1
fi
if [ ! -f target/verify/flight.jsonl ]; then
    echo "FAIL: SIGTERM drain did not dump target/verify/flight.jsonl" >&2
    exit 1
fi
grep -q '"flight":"sigterm"' target/verify/flight.jsonl || {
    echo "FAIL: flight dump is missing the sigterm reason" >&2
    exit 1
}
grep -q '"schema":"fcm-obs/v1"' target/verify/flight.jsonl || {
    echo "FAIL: flight dump is missing the fcm-obs/v1 schema tag" >&2
    exit 1
}
grep -q '"name":"mutation"' target/verify/flight.jsonl || {
    echo "FAIL: flight dump recorded no mutation events" >&2
    exit 1
}
cargo run --release --offline -q -p fcm-bench --bin obsview -- \
    target/verify/flight.jsonl | grep -q 'flight dump: reason "sigterm"' || {
    echo "FAIL: obsview does not render the flight dump" >&2
    exit 1
}

echo "== obsview: truncated trailing line exits 2"
head -c -5 target/verify/flight.jsonl > target/verify/flight_torn.jsonl
set +e
cargo run --release --offline -q -p fcm-bench --bin obsview -- \
    target/verify/flight_torn.jsonl > /dev/null 2>&1
torn_rc=$?
set -e
if [ "$torn_rc" -ne 2 ]; then
    echo "FAIL: obsview exited $torn_rc on a truncated log, expected 2" >&2
    exit 1
fi

echo "== online service: kill -9 + --resume is byte-identical"
rm -rf target/verify/serve_state_ref target/verify/serve_state_kill
rm -f target/verify/serve_r.sock
# Reference: one daemon lives through part 1 + part 2.
"$serve_bin" --model paper --socket target/verify/serve_r.sock \
    --state-dir target/verify/serve_state_ref --snapshot-every 2 > /dev/null 2>&1 &
serve_pid=$!
wait_for_socket target/verify/serve_r.sock
"$servegen_bin" --socket target/verify/serve_r.sock \
    --script scripts/serve_resume_part1.jsonl > /dev/null
"$servegen_bin" --socket target/verify/serve_r.sock \
    --script scripts/serve_resume_part2.jsonl > target/verify/serve_ref.txt
kill -TERM "$serve_pid"
set +e; wait "$serve_pid"; set -e
rm -f target/verify/serve_r.sock
# Crash drill: part 1, kill -9 (no drain, no final snapshot), --resume,
# part 2. Acked mutations are journaled before the ack, so the dump at
# the end of part 2 must match the reference byte-for-byte.
"$serve_bin" --model paper --socket target/verify/serve_r.sock \
    --state-dir target/verify/serve_state_kill --snapshot-every 2 > /dev/null 2>&1 &
serve_pid=$!
wait_for_socket target/verify/serve_r.sock
"$servegen_bin" --socket target/verify/serve_r.sock \
    --script scripts/serve_resume_part1.jsonl > /dev/null
kill -9 "$serve_pid"
set +e; wait "$serve_pid"; set -e
rm -f target/verify/serve_r.sock
"$serve_bin" --model paper --socket target/verify/serve_r.sock \
    --state-dir target/verify/serve_state_kill --resume > /dev/null 2>&1 &
serve_pid=$!
wait_for_socket target/verify/serve_r.sock
"$servegen_bin" --socket target/verify/serve_r.sock \
    --script scripts/serve_resume_part2.jsonl > target/verify/serve_resumed.txt
kill -TERM "$serve_pid"
set +e; wait "$serve_pid"; set -e
if ! cmp -s <(tail -1 target/verify/serve_ref.txt) <(tail -1 target/verify/serve_resumed.txt); then
    echo "FAIL: resumed model dump differs from the straight-through run" >&2
    exit 1
fi

echo "== crash-point durability matrix (crashdrill --quick)"
# Every write/flush/rename IO site of the scripted session, crashed
# in-process and resumed: zero acknowledged mutations may be lost.
cargo run --release --offline -q -p fcm-serve --bin crashdrill -- --quick

echo "== degraded mode: journal failure serves read-only, drains clean"
rm -rf target/verify/serve_state_deg
rm -f target/verify/serve_d.sock
"$serve_bin" --model paper --socket target/verify/serve_d.sock \
    --state-dir target/verify/serve_state_deg \
    --fault-plan 'journal.*:eio' > /dev/null 2>&1 &
serve_pid=$!
wait_for_socket target/verify/serve_d.sock
printf '%s\n%s\n' \
    '{"op":"set_attr","name":"p8","criticality":2}' \
    '{"op":"stats","id":1}' \
    | "$servegen_bin" --socket target/verify/serve_d.sock --timeout 30000 \
        --script - > target/verify/serve_degraded.txt
# The mutation is rejected with the structured degraded error...
sed -n 2p target/verify/serve_degraded.txt | grep -q '"degraded":true' || {
    echo "FAIL: journal failure did not yield a degraded rejection" >&2
    exit 1
}
# ...but the read path still answers, and reports the transition.
sed -n 3p target/verify/serve_degraded.txt \
    | grep -q '"degraded":true.*"degraded_transitions":1.*"ok":true' || {
    echo "FAIL: degraded daemon stopped answering queries" >&2
    exit 1
}
# Degraded entry auto-dumped the flight ring next to the durable state
# — the post-mortem file explaining *why* the daemon degraded. (Checked
# before the drain: the SIGTERM dump later rewrites the same file.)
grep -q '"flight":"degraded"' target/verify/serve_state_deg/flight.jsonl || {
    echo "FAIL: degraded entry did not auto-dump the flight ring" >&2
    exit 1
}
kill -TERM "$serve_pid"
set +e; wait "$serve_pid"; deg_rc=$?; set -e
if [ "$deg_rc" -ne 0 ]; then
    echo "FAIL: degraded SIGTERM drain exited $deg_rc, expected 0" >&2
    exit 1
fi
# After the drain the SIGTERM dump has rewritten the file, but the ring
# still carried the degraded transition event itself.
grep -q '"name":"degraded"' target/verify/serve_state_deg/flight.jsonl || {
    echo "FAIL: degraded flight dump is missing the degraded event" >&2
    exit 1
}

echo "== source-invariant lint gate (srclint)"
cargo run --release --offline -q -p fcm-bench --bin srclint

echo "== bench artefact schema (scripts/check_bench_schema.sh)"
scripts/check_bench_schema.sh

echo "== pool panic containment"
cargo test -q -p fcm-substrate --offline pool_survives_a_panicking_job

echo "== dependency hermeticity"
if grep -En 'rand|serde|crossbeam|parking_lot|bytes|proptest|criterion' \
    Cargo.toml crates/*/Cargo.toml; then
    echo "FAIL: external dependency name found in a manifest" >&2
    exit 1
fi
# The lockfile is ground truth: path dependencies carry no `source`
# line, so any `source = ` entry means a registry/git crate crept in.
if grep -q 'source = ' Cargo.lock; then
    echo "FAIL: Cargo.lock references a non-path source" >&2
    exit 1
fi

echo "verify: OK"
