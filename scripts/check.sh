#!/bin/sh
# Pre-PR gate: formatting, vet, build and the full test suite under the race
# detector. Run from the repository root; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== trace smoke =="
# Record one tiny fig7 append cell with the flight recorder on, then gate on
# the auditor: a crash-free run must have zero lost lines.
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/zofs-trace record -workload append -system Ext4-DAX \
    -o "$tracedir/smoke.jsonl" -threads 1 -ops 8 -device-mb 64 >/dev/null
go run ./cmd/zofs-trace audit -max-lost 0 "$tracedir/smoke.jsonl" >/dev/null

echo "== spans smoke =="
# Causal-span gates. The "spans" experiment is self-asserting: spans-off vs
# spans-on simulated throughput within 2% (the disabled-overhead budget),
# per-op component attribution summing to the measured latency within 1%,
# and a parseable OpenMetrics rendering. Then a -spans collection run must
# produce an export that zofs-top's validator (share sum ~100%) accepts.
# Bench smokes run from $tracedir: experiments write BENCH_*.json into the
# working directory, and a -quick pass must not clobber the committed
# full-fidelity results.
go build -o "$tracedir/zofs-bench" ./cmd/zofs-bench
(cd "$tracedir" && ./zofs-bench -quick spans >/dev/null)
(cd "$tracedir" && ./zofs-bench -quick -spans "$tracedir/spans" fig8 >/dev/null)
go run ./cmd/zofs-top -validate "$tracedir/spans/spans.prom" >/dev/null
go run ./cmd/zofs-top -once -dir "$tracedir/spans" >/dev/null

echo "== series smoke =="
# Tail-observatory gates. The "series" experiment is self-asserting: series
# and exemplar collection must leave simulated throughput bit-identical,
# merged windows must equal the cumulative telemetry histograms bucket for
# bucket, every captured exemplar's components must sum exactly to its
# duration, and the SLO burn accounting must match its designed values. Then
# a -series collection run must publish a series.prom the shared validator
# accepts, a timeline zofs-top renders, and a series directory zofs-trace
# can overlay on the causal-span Chrome export.
(cd "$tracedir" && ./zofs-bench -quick series >/dev/null)
(cd "$tracedir" && ./zofs-bench -quick -spans "$tracedir/tail" -series "$tracedir/tail" fig8 >/dev/null)
go run ./cmd/zofs-perfdiff -validate "$tracedir/tail/series.prom" >/dev/null
go run ./cmd/zofs-top -once -dir "$tracedir/tail" >/dev/null
go run ./cmd/zofs-top -json -dir "$tracedir/tail" >/dev/null
go run ./cmd/zofs-trace export -spans "$tracedir/tail/spans.jsonl" \
    -series "$tracedir/tail" -o "$tracedir/tail/chrome.json" >/dev/null

echo "== perfdiff gate =="
# Standing perf-regression gate: a fresh quick hotpath run must not regress
# significantly against the committed BENCH_hotpath.json baseline (virtual
# time makes the quick numbers bit-reproducible, so any drift is a real code
# change — refresh the baseline deliberately when one is intended). Then the
# differ proves it can catch what it gates: a 20% synthetic regression must
# trip exit 3.
go build -o "$tracedir/zofs-perfdiff" ./cmd/zofs-perfdiff
(cd "$tracedir" && ./zofs-bench -quick hotpath >/dev/null)
"$tracedir/zofs-perfdiff" BENCH_hotpath.json "$tracedir/BENCH_hotpath.json" >/dev/null
"$tracedir/zofs-perfdiff" -inject 0.2 -o "$tracedir/BENCH_hotpath_regressed.json" \
    "$tracedir/BENCH_hotpath.json" >/dev/null
if "$tracedir/zofs-perfdiff" BENCH_hotpath.json \
    "$tracedir/BENCH_hotpath_regressed.json" >/dev/null 2>&1; then
    echo "perfdiff: injected 20% regression was not detected" >&2
    exit 1
else
    status=$?
    if [ "$status" -ne 3 ]; then
        echo "perfdiff: expected regression exit 3, got $status" >&2
        exit 1
    fi
fi

# e2e_pass WORKLOAD SECONDS runs one benchmark workload at seed 101, leaves
# its result line in $e2e and fails unless every pass verified.
e2e_pass() {
    e2e=$(bash benchmark/run.sh --workload "$1" --seed 101 --seconds "$2" --trace 0 | tail -n 1)
    case "$e2e" in
    *'"correct":true'*) ;;
    *)
        echo "e2e gate: $1 did not verify: $e2e" >&2
        exit 1
        ;;
    esac
}
metric() {
    printf '%s' "$e2e" | sed -n 's/.*"'"$1"'":{"value":\([0-9.eE+-]*\).*/\1/p'
}

echo "== metadata gate =="
# One meta_churn pass of the end-to-end benchmark at seed 101 (read-only use;
# it builds into .bench_build/) must be correct and hold three floors, all
# read from that single run:
#   nvm_rbytes_per_op < 50    listings come off the directory index and unlink
#                             reads an empty file's two indirect words, not
#                             the 3 KB pointer area (55106 B/op with the hash
#                             table scanned, 627 with the full pointer read,
#                             3.2 now);
#   sim_kops_per_vsec >= 850  each op resolves its path once (the dispatcher's
#                             resolve serves the µFS walks) and O_CREAT probes
#                             the name once (680 before, 929 now);
#   host_allocs_per_op <= 3   paths are sliced, not rebuilt; windows, commits
#                             and inode state cost no heap object (18.2
#                             before, 0.97 now: FD entries, handles, listings).
e2e_pass meta_churn 1
rbytes=$(metric nvm_rbytes_per_op)
if ! awk -v v="$rbytes" 'BEGIN { exit !(v != "" && v + 0 < 50) }'; then
    echo "metadata gate: meta_churn nvm_rbytes_per_op = '$rbytes', want < 50" >&2
    exit 1
fi
kops=$(metric sim_kops_per_vsec)
if ! awk -v v="$kops" 'BEGIN { exit !(v != "" && v + 0 >= 850) }'; then
    echo "metadata gate: meta_churn sim_kops_per_vsec = '$kops', want >= 850" >&2
    exit 1
fi
allocs=$(metric host_allocs_per_op)
if ! awk -v v="$allocs" 'BEGIN { exit !(v != "" && v + 0 <= 3) }'; then
    echo "metadata gate: meta_churn host_allocs_per_op = '$allocs', want <= 3" >&2
    exit 1
fi

echo "== data gate =="
# One pass each of data_read and data_write at seed 101 must be correct and
# hold a throughput floor:
#   data_read  sim_kops_per_vsec >= 1350  a 64 KiB pread of a file written
#                                         front to back is one device access,
#                                         not sixteen (895 a block at a time,
#                                         1513 now);
#   data_write sim_kops_per_vsec >= 1050  truncating a 16 MiB log reads and
#                                         clears each pointer array once
#                                         (902 slot by slot, 1185 now).
for gate in "data_read 1350" "data_write 1050"; do
    workload=${gate% *}
    floor=${gate#* }
    e2e_pass "$workload" 3
    kops=$(metric sim_kops_per_vsec)
    if ! awk -v v="$kops" -v f="$floor" 'BEGIN { exit !(v != "" && v + 0 >= f + 0) }'; then
        echo "data gate: $workload sim_kops_per_vsec = '$kops', want >= $floor" >&2
        exit 1
    fi
done

echo "== wa smoke =="
# Byte-flow gates. The "wa" experiment is self-asserting: per-class issued
# bytes sum exactly to the device's independent issued total, write cells
# keep media >= issued >= app, and accounting-on vs accounting-off simulated
# throughput agrees within 2%. Then zofs-df must reconcile flow and space
# accounting (-validate exits 1 on violation) and emit OpenMetrics series
# the spans validator accepts.
(cd "$tracedir" && ./zofs-bench -quick wa >/dev/null)
go run ./cmd/zofs-df -files 128 -validate -om "$tracedir/flow.prom" >/dev/null
go run ./cmd/zofs-top -validate "$tracedir/flow.prom" >/dev/null

echo "== crashmc smoke =="
# Crash-state model checker gates: a dense ZoFS sweep (>=200 states under
# all media models on both crash edges) and one baseline must hold every
# invariant, and an injected-corruption run must be detected (exit 3).
go build -o "$tracedir/zofs-crashmc" ./cmd/zofs-crashmc
"$tracedir/zofs-crashmc" -system ZoFS -points 35 -ops 24 -device-mb 64 \
    -min-states 200 >/dev/null
"$tracedir/zofs-crashmc" -system Ext4-DAX -points 8 -ops 16 -device-mb 64 >/dev/null
if "$tracedir/zofs-crashmc" -system ZoFS -inject bitflip -ops 16 \
    -device-mb 64 >/dev/null; then
    echo "crashmc: injected corruption was not detected" >&2
    exit 1
else
    status=$?
    if [ "$status" -ne 3 ]; then
        echo "crashmc: expected detection exit 3, got $status" >&2
        exit 1
    fi
fi

echo "== chaos smoke =="
# Chaos-engine gates: a short seeded adversarial campaign (kill, stall,
# stray writes, corruption, kernel delays) must hold every containment
# invariant — exit 3 flags a violation, any other non-zero status is a
# harness failure. The slotless fault campaign must see its injected
# stranded-grant crash detected and exactly reclaimed (exit 3 = detected).
go run ./cmd/zofs-chaos -ops 200 >/dev/null
if "$tracedir/zofs-crashmc" -system ZoFS -inject slotless -ops 16 \
    -device-mb 64 >/dev/null; then
    echo "crashmc: slotless stranded grant was not detected" >&2
    exit 1
else
    status=$?
    if [ "$status" -ne 3 ]; then
        echo "crashmc: expected slotless detection exit 3, got $status" >&2
        exit 1
    fi
fi

echo "== fxmark-scale smoke =="
# Concurrency-observatory gates. The "fxmark-scale" experiment is
# self-asserting: 1-thread cells must be bit-identical in ops and virtual
# time with the lock profiler off vs on (disabled overhead < 2%, measured
# exactly 0), and the spans layer's aggregate lock_wait must equal the
# profiler's per-lock wait sum to the nanosecond on a contended cell. Then a
# -lockprof collection run must produce an OpenMetrics export that
# zofs-locks' validator (wait/hold conservation, edge bounds) accepts and a
# renderable text report.
(cd "$tracedir" && ./zofs-bench -quick -threads 1,4,16 fxmark-scale >/dev/null)
(cd "$tracedir" && ./zofs-bench -quick -lockprof "$tracedir/locks" fig8 >/dev/null)
go run ./cmd/zofs-locks -validate "$tracedir/locks/locks.prom" >/dev/null
go run ./cmd/zofs-locks -once -dir "$tracedir/locks" >/dev/null

echo "== scalability gate =="
# Regression gate for the kernfs.big decomposition: a quick fxmark-scale
# sweep widened to 64 and 512 threads must show the metadata-bound ZoFS
# workloads (MWCL/MWRL) still climbing at 64 threads, and all three gated
# workloads (DWAL/MWCL/MWRL) holding at least half their peak throughput
# at 512. DWAL saturates the device's write bandwidth by a few threads
# (paper Fig. 7), so its un-collapsed signature is the plateau, not the
# climb. A global kernel-agent mutex — or any new serial section on the
# metadata-write path — fails this gate.
(cd "$tracedir" && ./zofs-bench -quick -scale-gate fxmark-scale >/dev/null)

echo "OK"
