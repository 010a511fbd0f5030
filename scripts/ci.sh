#!/usr/bin/env sh
# CI gate: formatting, vet, builds (including every example and
# command binary), live-process smokes of the dispenser and the fleet,
# a repeat-run flake guard on pool close, the full test suite under the
# race detector, and one pass over the paper-figure registry. Measured
# performance is not gated here: that is `go run ./benchmark`. Run from
# the repo root:
#
#   ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== build example and command binaries =="
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir/" ./examples/... ./cmd/...
ls "$bindir"

echo "== ironman-vet (protocol-invariant analysis suite) =="
# The five domain analyzers (detrange, randsrc, secretleak, wireerr,
# locknet) run through the standard vet driver; every finding is either
# fixed or carries an audited //ironman:allow(<analyzer>) <reason>.
# See the "Enforced invariants" section of DESIGN.md.
go vet -vettool="$bindir/ironman-vet" ./...

echo "== otd admin endpoint smoke test =="
# Boot the dispenser with its admin listener on loopback, then hit the
# observability surface end-to-end: liveness, Prometheus exposition
# (known metric families must be present), and the JSON session dump.
"$bindir/otd" -listen 127.0.0.1:17117 -admin 127.0.0.1:17118 &
otd_pid=$!
trap 'kill "$otd_pid" 2>/dev/null || true; rm -rf "$bindir"' EXIT
i=0
until curl -sf http://127.0.0.1:17118/healthz >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "otd admin endpoint never came up" >&2
        exit 1
    fi
    sleep 0.1
done
curl -sf http://127.0.0.1:17118/healthz | grep -q '^ok$'
metrics=$(curl -sf http://127.0.0.1:17118/metrics)
echo "$metrics" | grep -q '^ironman_otserv_sessions 0$'
echo "$metrics" | grep -q '^ironman_otserv_sessions_opened_total 0$'
echo "$metrics" | grep -q '^ironman_otserv_sessions_closed_total 0$'
curl -sf http://127.0.0.1:17118/sessions | grep -q '"sessions"'
kill "$otd_pid"
wait "$otd_pid" 2>/dev/null || true
echo "admin endpoint OK"

echo "== dispenser fleet smoke test (3 shards + router + otload) =="
# Boot a 3-shard fleet behind the consistent-hash router, drive it with
# the load generator in quick mode over real TCP, and smoke the fleet
# observability surface: the router's /metrics and /shards plus each
# shard's per-shard /sessions dump.
"$bindir/otd" -listen 127.0.0.1:17121 -shard-id 1 -tiny -params tiny -max-sessions 2048 -admin 127.0.0.1:17131 &
shard1_pid=$!
"$bindir/otd" -listen 127.0.0.1:17122 -shard-id 2 -tiny -params tiny -max-sessions 2048 -admin 127.0.0.1:17132 &
shard2_pid=$!
"$bindir/otd" -listen 127.0.0.1:17123 -shard-id 3 -tiny -params tiny -max-sessions 2048 -admin 127.0.0.1:17133 &
shard3_pid=$!
"$bindir/otd" -route -listen 127.0.0.1:17120 \
    -shards 127.0.0.1:17121,127.0.0.1:17122,127.0.0.1:17123 \
    -admin 127.0.0.1:17130 &
router_pid=$!
trap 'kill "$shard1_pid" "$shard2_pid" "$shard3_pid" "$router_pid" 2>/dev/null || true; rm -rf "$bindir"' EXIT
# Readiness is all three shards on the ring, not just router liveness:
# a shard whose listener lost the startup race stays dead until the
# router's next probe tick revives it.
i=0
until curl -sf http://127.0.0.1:17130/metrics 2>/dev/null | grep -q '^ironman_router_shards_live 3$'; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "fleet router never saw all 3 shards live" >&2
        exit 1
    fi
    sleep 0.1
done
curl -sf http://127.0.0.1:17130/healthz | grep -q '^ok$'
fleet_json=$bindir/fleet.json
"$bindir/otload" -addr 127.0.0.1:17120 -quick -n 64 -depth 128 -out "$fleet_json" > /dev/null
# A clean run: every session opened, none failed, no untyped error.
grep -q '"sessions_opened": 96' "$fleet_json"
grep -q '"sessions_failed": 0' "$fleet_json"
grep -q '"other_errors": 0' "$fleet_json"
grep -q '"balance_max_over_even"' "$fleet_json"
# Router surface: live-shard gauge and placement counter moved.
fleet_metrics=$(curl -sf http://127.0.0.1:17130/metrics)
echo "$fleet_metrics" | grep -q '^ironman_router_shards_live 3$'
echo "$fleet_metrics" | grep -q '^ironman_router_placements_total'
if echo "$fleet_metrics" | grep -q '^ironman_router_placements_total 0$'; then
    echo "router placed no sessions" >&2
    exit 1
fi
curl -sf http://127.0.0.1:17130/shards | grep -q '"state": "live"'
# Per-shard surface: every shard processed some share of the sessions.
for port in 17131 17132 17133; do
    curl -sf "http://127.0.0.1:$port/sessions" | grep -q '"sessions_opened"'
done
kill "$shard1_pid" "$shard2_pid" "$shard3_pid" "$router_pid"
wait "$shard1_pid" "$shard2_pid" "$shard3_pid" "$router_pid" 2>/dev/null || true
echo "fleet OK"

echo "== embedded circuit end-to-end (examples/private-aes over real TCP) =="
# Threshold AES through the Bristol circuit frontend: XOR-split key,
# four SIMD-packed blocks, ciphertexts verified against crypto/aes.
"$bindir/private-aes"

echo "== draw-after-close flake guard (25 repeats of the scheduling-dependent path) =="
# A closed pool must dispense nothing even with correlations buffered;
# the session-level symptom showed up in a few percent of runs.
go test -count=25 -run 'DrawAfterClose|LeaseExpiryTypedError|ConcurrentExpiryVsDraw' ./internal/pool ./internal/otserv/session

echo "== go test -race (includes the gmw + arith engines and the TCP pipeline) =="
go test -race ./...

echo "== column-pipeline kernel benchmarks (one iteration each, so they cannot rot) =="
go test -run '^$' -bench 'TransposeBits|StreamFill' -benchtime 1x ./internal/block ./internal/aesprg

echo "== paper-figure registry (ironman-bench -quick -exp all, so it cannot rot) =="
go run ./cmd/ironman-bench -quick -exp all -json > /dev/null

echo "CI OK"
