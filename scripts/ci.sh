#!/usr/bin/env sh
# CI gate: formatting, vet, builds (including every example and
# command binary), live-process smokes of the dispenser and the fleet, a
# run of every example and one verified in-process otgen Extend at
# 2^20, a repeat-run flake guard on pool close, on
# the shared MPCOT exchange and on the seeded-stream goldens and
# unseeded freshness (under -race), the AES kernel's arms against
# crypto/aes on fresh keys, the GGM kernels' purego fallback,
# the full test suite under the race detector, bounded fuzzing of the two
# untrusted-byte parsers, one iteration of each kernel benchmark and of
# the near-memory model's ablations, and one pass over the paper-figure
# registry. Measured performance is not gated here: that is
# `go run ./benchmark`. Run from the repo root:
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
# fixed or carries an audited //ironman:allow(<analyzer>) <reason>, and
# a directive that suppresses nothing is itself a finding. The sixth
# check, deadexport (an exported name under internal/ or in the root
# ironman package that no non-test file references), needs the whole
# module at once, so it is not a vet analyzer: it runs in
# `go test ./internal/analysis`, which the race step below includes,
# beside TestNoDeadExportAllow (no deadexport directive anywhere in the
# module: a dead export is deleted, never allowed). See the "Enforced
# invariants" section of DESIGN.md.
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
echo "$metrics" | grep -q '^ironman_otserv_dry_sheds_total 0$'
curl -sf http://127.0.0.1:17118/sessions | grep -q '"sessions"'
kill "$otd_pid"
wait "$otd_pid" 2>/dev/null || true
echo "admin endpoint OK"

echo "== dispenser fleet smoke test (3 shards + router + dispenser example) =="
# Boot a 3-shard fleet at the default 2^20 parameter set behind the
# consistent-hash router, drive it over real TCP with the dispenser
# example (it verifies every drawn correlation under its session's Δ
# and reconnects by token through the router, exiting non-zero on any
# failure), and smoke the fleet observability surface: the router's
# /metrics and /shards plus each shard's per-shard /sessions dump.
"$bindir/otd" -listen 127.0.0.1:17121 -shard-id 1 -admin 127.0.0.1:17131 &
shard1_pid=$!
"$bindir/otd" -listen 127.0.0.1:17122 -shard-id 2 -admin 127.0.0.1:17132 &
shard2_pid=$!
"$bindir/otd" -listen 127.0.0.1:17123 -shard-id 3 -admin 127.0.0.1:17133 &
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
"$bindir/dispenser" 127.0.0.1:17120
# Router surface: live-shard gauge and placement counter moved.
fleet_metrics=$(curl -sf http://127.0.0.1:17130/metrics)
echo "$fleet_metrics" | grep -q '^ironman_router_shards_live 3$'
echo "$fleet_metrics" | grep -q '^ironman_router_placements_total'
if echo "$fleet_metrics" | grep -q '^ironman_router_placements_total 0$'; then
    echo "router placed no sessions" >&2
    exit 1
fi
curl -sf http://127.0.0.1:17130/shards | grep -q '"state": "live"'
# Per-shard surface: every shard's session dump and scrape report the
# same opened count (both read one counter), and the example opened at
# least one session across the fleet.
opened_total=0
for port in 17131 17132 17133; do
    dumped=$(curl -sf "http://127.0.0.1:$port/sessions" | sed -n 's/^ *"sessions_opened": *\([0-9][0-9]*\).*/\1/p')
    scraped=$(curl -sf "http://127.0.0.1:$port/metrics" | sed -n 's/^ironman_otserv_sessions_opened_total \([0-9][0-9]*\)$/\1/p')
    if [ -z "$dumped" ] || [ "$dumped" != "$scraped" ]; then
        echo "shard admin :$port: /sessions sessions_opened '$dumped' != /metrics ironman_otserv_sessions_opened_total '$scraped'" >&2
        exit 1
    fi
    opened_total=$((opened_total + dumped))
done
if [ "$opened_total" -lt 1 ]; then
    echo "the fleet's shards report no opened session" >&2
    exit 1
fi
kill "$shard1_pid" "$shard2_pid" "$shard3_pid" "$router_pid"
wait "$shard1_pid" "$shard2_pid" "$shard3_pid" "$router_pid" 2>/dev/null || true
echo "fleet OK"

echo "== examples end-to-end (all seven, then otgen -inproc) =="
# Every example checks its own result and exits non-zero when it is
# wrong: quickstart (COTs under Δ, chosen OTs), roleswitch (both OT
# directions under their own Δ), dispenser (four otserv sessions plus a
# reconnect), millionaires (parallel-prefix comparison over Ferret-fed
# pools), private-aes (threshold AES over real TCP through the circuit
# frontend, against crypto/aes), secure-mlp and transformer-gelu
# (fixed-point arith + GMW layers against plaintext). The in-process
# dispenser run prints its server's Prometheus exposition at exit; with
# sessions open, it is the one check that the per-session pool
# histograms and the lifecycle counters still reach /metrics (the otd
# admin smoke above scrapes a server with no sessions). otgen -inproc
# then runs one 2^20 Extend of the real protocol on a dealt pair and
# exits non-zero unless every COT verifies under Δ.
for ex in quickstart roleswitch dispenser millionaires private-aes secure-mlp transformer-gelu; do
    echo "-- $ex"
    if [ "$ex" = dispenser ]; then
        "$bindir/$ex" > "$bindir/dispenser.out"
        cat "$bindir/dispenser.out"
        for series in 'ironman_pool_refill_seconds_count{session=' ironman_otserv_sessions_opened_total; do
            grep -qF "$series" "$bindir/dispenser.out" || { echo "dispenser exit dump lacks $series"; exit 1; }
        done
    else
        "$bindir/$ex"
    fi
done
echo "-- otgen -inproc"
"$bindir/otgen" -inproc -iters 1

echo "== scheduling flake guard (repeats of the scheduling-dependent paths) =="
# A closed pool must dispense nothing even with correlations buffered;
# the session-level symptom showed up in a few percent of runs. A draw
# storm must leave Stats and the registry reading the same counts, and
# one endpoint of a dealt pair must be able to draw alone at Prefetch 0.
# The backpressure bounds (MaxWait, MaxWaiters) must shed, or wait,
# against a slowed source, and a one-sided drain must stop at exactly
# the (Depth+8)-batch retention cap.
go test -count=25 -run 'DrawAfterClose|LeaseExpiryTypedError|ConcurrentExpiryVsDraw|ObserverMatchesStats|DealtPairOneSidedDraw|DealtPairConcurrentDraw|MaxWaitShedsWithErrDry|MaxWaitersShedsExcessDraws|UnboundedWaitStillBlocks|DealtRetentionCap' . ./internal/pool ./internal/otserv/session
# Concurrent endpoints on one shape must wait on one LPN code
# derivation and all share its pointer; a dropped code's off-heap index
# matrix is unmapped by its cleanup and the shape derived again.
go test -count=25 -run 'CodeShared|CodeRederivedAfterCleanup' ./internal/ferret
# Every MPCOT worker reads one shared exchange (corrections, r0, Δ)
# and writes its own trees' reply sections and buckets. Every seeded
# stream is keyed by aesprg.NewLocal: the goldens pin its derivation,
# the freshness test its unseeded keys. The gmw and arith goldens pin
# the engines' role-ordered exchanges and word/bit framing, and cot's
# correlated-mode tests the one-ciphertext frames under them. Workers
# claim chunks from one counter (parallel.Chunks): every index exactly
# once, and both LPN row paths match the reference across several
# chunks and in place.
go test -race -count=5 -run 'WorkersMatchSequential|ParallelDeterminismSmall|TranscriptGolden|ExtendGolden|GoldenTranscripts|LocalRandomnessFresh|Chunks|GatherMatchesReference|Correlated' . ./internal/mpcot ./internal/ferret ./internal/softspoken ./internal/cot ./internal/gmw ./internal/arith ./internal/parallel ./internal/lpn

echo "== AES kernel arms (VAES, AES-NI and crypto/aes in one binary) against crypto/aes =="
# Each parity test runs every arm the CPU has by swapping the kernel's
# flags, and draws fresh keys, inputs and lengths per run (the seed is
# in a failing run's log), so twenty runs cover twenty draws.
go test -count=20 -run 'CryptoAES|SumBlocksMatchesSum|StreamMixedDraws' ./internal/aesprg

echo "== purego fallback (crypto/aes, the per-parent GGM path and the Go LPN rows against the same goldens) =="
# Without -tags purego every AES call runs the AES-NI/VAES kernel
# (internal/aesprg/kernel_amd64.s), the ChaCha8 GGM levels the AVX2
# lane kernel and both LPN encoders the SSE2 row kernel
# (internal/lpn/gather_amd64.s) on amd64; this holds the crypto/aes,
# per-parent and pure-Go row paths to the same outputs.
go test -tags purego ./internal/aesprg ./internal/prg ./internal/ggm ./internal/spcot ./internal/mpcot ./internal/lpn ./internal/ferret ./internal/cot ./internal/softspoken ./internal/iknp ./internal/gmw ./internal/arith ./internal/circuit

echo "== go test -race (includes the gmw + arith engines and the TCP pipeline) =="
go test -race ./...

echo "== fuzz the untrusted-byte parsers (10 s each) =="
# HELLO bodies through wire.ParseHello, and whole request frames through
# the dispenser's dispatch on a tiny-parameter server. Plain go test
# above already ran their seeds.
go test -run '^$' -fuzz '^FuzzParseHello$' -fuzztime 10s ./internal/otserv/wire
go test -run '^$' -fuzz '^FuzzDispatch$' -fuzztime 10s ./internal/otserv

echo "== kernel benchmarks: column pipeline, batched CRHF, PRG level and GGM expand/reconstruct, LPN encode, chosen and correlated OT, AES-128 circuit build, NMP sort and row-weight ablations (one iteration each, so they cannot rot) =="
go test -run '^$' -bench 'TransposeBits|StreamFill|SumBlocks' -benchtime 1x ./internal/block ./internal/aesprg
go test -run '^$' -bench 'Encode' -benchtime 1x ./internal/lpn
go test -run '^$' -bench 'Expand|Reconstruct' -benchtime 1x ./internal/prg ./internal/ggm
go test -run '^$' -bench 'Chosen|Correlated' -benchtime 1x ./internal/cot
go test -run '^$' -bench 'Build' -benchtime 1x ./internal/circuit
go test -run '^$' -bench Ablation -benchtime 1x ./internal/sim/nmp

echo "== paper-figure registry (ironman-bench -quick -exp all, so it cannot rot) =="
go run ./cmd/ironman-bench -quick -exp all -json > /dev/null

echo "CI OK"
