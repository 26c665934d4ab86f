#!/usr/bin/env bash
# Repo CI gate: formatting, vet, build, race-enabled tests, and short fuzz
# smokes over the fuzz targets. Run from anywhere; operates on the repo
# root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== checkmetrics (docs/OBSERVABILITY.md vs obs catalog) =="
go run ./scripts/checkmetrics

echo "== checkperf (docs/PERFORMANCE.md vs benchmarks + BENCH_*.json) =="
go run ./scripts/checkperf

echo "== checklinks (handbook cross-references resolve) =="
go run ./scripts/checklinks

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== bench bit-rot smoke: every benchmark compiles and runs once =="
go test -run=NONE -bench=. -benchtime=1x ./...

echo "== plos-trace smoke: analyze the committed flight fixture =="
go run ./cmd/plos-trace cmd/plos-trace/testdata/fixture.jsonl > /dev/null

echo "== FT smoke: seeded chaos soak + checkpoint kill/resume (race) =="
go test -race -count=1 -v \
    -run 'TestChaosSoakTraining|TestCheckpointResumeBitIdentical' \
    ./internal/protocol

echo "== sharded-plane race smoke: plane differential (plain/1 group/1 shard, K groups/K shards) + rebalance (docs/SHARDING.md) =="
go test -race -count=1 \
    -run 'TestPlaneDifferential|TestShardedRebalanceViaRing' \
    ./internal/protocol

echo "== hostile-peer race smoke: malformed and non-finite updates / shard sums (docs/FAULT_TOLERANCE.md) =="
go test -race -count=1 \
    -run 'TestHostilePeerTable|TestHostileShardSumAbortsNamingShard' \
    ./internal/protocol

echo "== shard-FT race smoke: fault-free bit-identity + agg-link chaos + degraded quorum =="
go test -race -count=1 \
    -run 'TestShardFTFaultFreeBitIdentical|TestShardedAggLinkChaosBitIdentical|TestShardedDegradedQuorumCompletes' \
    ./internal/protocol

echo "== shard kill/restore smoke: kill-9 soak (race) + real SIGKILL on a worker process =="
go test -race -count=1 -v -run 'TestShardedKillRestoreRejoins' ./internal/protocol
go test -count=1 -v -run 'TestShardKillRecover' ./cmd/plos-bench

echo "== health smoke: /healthz 200 -> 503 -> 200 across a seeded kill/rejoin + piggyback + scrape hammer (race) =="
go test -race -count=1 -v \
    -run 'TestAggHealthzKillRestoreRecovers|TestShardHealthPiggybackReportsRemoteState|TestHealthEndpointsScrapeHammer' \
    ./internal/protocol
go test -race -count=1 -run 'TestHealthEndpointsWiring|TestRunMountsHealthPlane' ./cmd/plos-server

echo "== plos-top smoke: -once frame pinned against the golden fixture =="
go test -race -count=1 -run 'TestSnapshotGolden|TestRunOnce' ./cmd/plos-top

echo "== async-mode race smoke: sync parity + negotiation + chaos + mid-run resume (docs/ASYNC.md) =="
go test -race -count=1 \
    -run 'TestAsyncWireMatchesSyncAccuracy|TestAsyncModeNegotiation|TestAsyncChaosSoak|TestAsyncClientResumeMidTraining|TestSyncHandshakeBytesUnchanged' \
    ./internal/protocol

echo "== join-path smoke: the two ridge forms agree, d×d bits as recorded, small-device heap bound (race) =="
go test -race -count=1 \
    -run 'TestRidgeFormsAgree|TestRidgeDenseBitsRecorded|TestLocalInit' \
    ./internal/core
go test -race -count=1 -run 'TestCholeskyBitIdenticalToAtSet' ./internal/mat

echo "== solver bit-identity + alloc pins: new projection / row-blocked kernels / cut search vs their reference forms (race), zero-alloc steady state (no race) =="
go test -race -count=1 \
    -run 'BitIdentical|TestWorkerSolveResultsDoNotAliasScratch|TestMaxIterationsErrorText' \
    ./internal/mat ./internal/qp ./internal/optimize ./internal/core
go test -count=1 -run 'Allocs|TestGramCacheGrowsInPlace' ./internal/qp ./internal/core

echo "== plos-server hang-regression smoke: devices start from onListen, ten passes under a short timeout =="
go test -count=10 -timeout 120s ./cmd/plos-server

echo "== compressed-mode race smoke: codec-v4 negotiation + mixed fleet =="
go test -race -count=1 \
    -run 'TestCompressionInteropMatrix|TestCompressionMixedFleet' \
    ./internal/protocol

echo "== fuzz smoke: transport codec =="
go test -run '^$' -fuzz 'FuzzMessageRoundTrip' -fuzztime 10s ./internal/transport

echo "== fuzz smoke: codec v4 compressed frames =="
go test -run '^$' -fuzz 'FuzzCompressedFrameRoundTrip' -fuzztime 10s ./internal/transport

echo "== fuzz smoke: checkpoint codec =="
go test -run '^$' -fuzz 'FuzzCheckpointRoundTrip' -fuzztime 10s ./internal/protocol

echo "== fuzz smoke: simplex/budget projection vs the clone-and-sort reference =="
go test -run '^$' -fuzz 'FuzzProjectBudgetMatchesReference' -fuzztime 10s ./internal/qp

echo "== fuzz smoke: parallel map =="
go test -run '^$' -fuzz 'FuzzMapMatchesSequential' -fuzztime 5s ./internal/parallel

echo "CI OK"
