#!/usr/bin/env bash
# Repo CI gate: formatting, vet, docs and structure gates, build,
# race-enabled tests of the whole tree (the transport.Poison rows of the Conn
# lending contract among them), the few stages that run tests with flags the
# whole-tree pass does not use (-v soak, -race -count=20 lending soak, real
# SIGKILL, non-race alloc pins, -count=10 and -count=100 hang/flake
# regressions), and short fuzz smokes. Run from anywhere; operates on the repo
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

echo "== go vet, GOARCH=arm64: the kernels' pure-Go fallbacks keep compiling =="
GOARCH=arm64 go vet ./...

echo "== checkmetrics (docs/OBSERVABILITY.md vs obs catalog) =="
go run ./scripts/checkmetrics

echo "== checkperf (docs/PERFORMANCE.md vs benchmarks + BENCH_*.json) =="
go run ./scripts/checkperf

echo "== checklinks (handbook cross-references resolve) =="
go run ./scripts/checklinks

echo "== structure: one run shell, one event stream (DESIGN.md §9) =="
# The run/round framing of every trainer is written by internal/core/run.go
# alone, and the span ring is gone for good.
for sym in RecordRunStart RecordRunEnd RecordCCCPIteration MetricCCCPConverged; do
    files=$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=obs "obs\.$sym\b" . || true)
    if [ "$(printf '%s' "$files" | grep -c .)" -ne 1 ]; then
        echo "obs.$sym must be referenced from exactly one non-test file outside internal/obs, found:" >&2
        echo "${files:-<none>}" >&2
        exit 1
    fi
done
if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=obs 'obs\.Span' .; then
    echo "obs.Span is deleted: events go to the flight stream, durations to histograms" >&2
    exit 1
fi

echo "== structure: every ADMM driver is a shipped one (DESIGN.md §1) =="
# A CCCP round's sign refresh and a lockstep consensus are driven by the
# trainers in internal/core and the wire device in internal/protocol/client.go
# alone: a harness that wants a training calls one of them, it does not roll
# its own. bench/ is the ledger's probe of the pieces.
strays=$(grep -rln --include='*.go' --exclude='*_test.go' --exclude-dir=bench '\.RefreshSigns(' . \
    | grep -v -e '^\./internal/core/' -e '^\./internal/protocol/client\.go$' || true)
if [ -n "$strays" ]; then
    echo "Worker.RefreshSigns driven from outside internal/core and internal/protocol/client.go:" >&2
    echo "$strays" >&2
    exit 1
fi
strays=$(grep -rln --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'admm\.NewConsensus' . \
    | grep -v '^\./internal/admm/' || true)
if [ -n "$strays" ]; then
    echo "admm.NewConsensus called from outside internal/admm:" >&2
    echo "$strays" >&2
    exit 1
fi

echo "== structure: one Algorithm 1 (DESIGN.md §1) =="
# Every trainer's CCCP run is one of internal/core's or internal/protocol's;
# the kernel trainer is the centralized one on a feature map, not a fork of
# it. The allocating qp.Solve entry is the QP package's own and the ledger's
# probe of it: the trainers solve through their lent scratch.
strays=$(grep -rln --include='*.go' --exclude='*_test.go' '\.CCCP(' . \
    | grep -v -e '^\./internal/core/' -e '^\./internal/protocol/' || true)
if [ -n "$strays" ]; then
    echo "a CCCP run driven from outside internal/core and internal/protocol:" >&2
    echo "$strays" >&2
    exit 1
fi
strays=$(grep -rln --include='*.go' --exclude='*_test.go' 'qp\.Solve(' . \
    | grep -v -e '^\./internal/qp/' -e '^\./bench/' || true)
if [ -n "$strays" ]; then
    echo "qp.Solve called from outside internal/qp and bench/:" >&2
    echo "$strays" >&2
    exit 1
fi

echo "== structure: one lockstep round for every serving role (DESIGN.md §1) =="
# The single coordinator, the shard and the aggregator all drive
# barrierRound: a reducer is called from round.go alone, and the
# aggregator's private round loop stays deleted.
strays=$(grep -rln --include='*.go' --exclude='*_test.go' -e '\.reduceZ(' -e '\.reduceResid(' . \
    | grep -v '^\./internal/protocol/round\.go$' || true)
if [ -n "$strays" ]; then
    echo "a reducer is called from outside internal/protocol/round.go:" >&2
    echo "$strays" >&2
    exit 1
fi
if grep -rn --include='*.go' --exclude='*_test.go' -e 'aggRun' -e 'aggShard' -e 'validateLeg' -e 'func (a \*aggRun)' .; then
    echo "the aggregator's private round (aggRun, aggShard, validateLeg) is deleted: it runs barrierRound" >&2
    exit 1
fi

echo "== structure: one cursor for every binary format (DESIGN.md §8) =="
# The frame, checkpoint and compressed-vector codecs read through
# internal/wire's bounded Reader. The one raw read left is the TCP frame's
# 4-byte length prefix, which io.ReadFull has already bounded.
strays=$(grep -rn --include='*.go' --exclude='*_test.go' -e 'binary\.LittleEndian\.Uint\(16\|32\|64\)(' -e 'binary\.Uvarint(' . \
    | grep -v -e '^\./internal/wire/' -e '^\./internal/transport/tcp\.go:[0-9]*:.*Uint32(hdr)' || true)
if [ -n "$strays" ]; then
    echo "a little-endian read outside internal/wire (use wire.Reader):" >&2
    echo "$strays" >&2
    exit 1
fi

echo "== structure: every random stream on the package source (internal/rng) =="
# Figures regenerate bit for bit because every stream is an internal/rng one,
# on the package's own copy of math/rand's generator. A non-test file that
# imports math/rand outside internal/rng (the examples aside) draws from a
# stream that nothing seeds from the experiment seed.
strays=$(grep -rln --include='*.go' --exclude='*_test.go' '"math/rand' . \
    | grep -v -e '^\./internal/rng/' -e '^\./examples/' || true)
if [ -n "$strays" ]; then
    echo "math/rand imported outside internal/rng and examples/ (draw from an rng.RNG):" >&2
    echo "$strays" >&2
    exit 1
fi

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

echo "== lending soak: chaos, fault-tolerance, resume and asynchronous-mode tests, plus the shard-tier aborts and reduce deadline (a shard's MsgError and the detach close must never deadlock a rendezvous pipe), the links' exit on every plane, ending and link path, and the exchange contract on both link paths, 20 passes under the race detector (a kept lent vector is a data race before it is a wrong number; the asynchronous fold outlives its round and copies what it keeps; a native exchange is answered on the peer's goroutine); and the Worker cut-space differential (row space against feature space) =="
go test -race -count=20 -timeout 600s \
    -run 'Chaos|Resume|Stale|Rejoin|PoisonedLinks|TestFTFaultFreeBitIdentical|Async|TestShardedDeviceFailureAbortsGlobally|TestHostileShardSumAbortsNamingShard|TestShardedReduceDeadlineDetaches|LinkActors' \
    ./internal/protocol
go test -race -count=20 -timeout 600s -run 'Exchange|TestPipeCloseSemantics|TestPipeLendsUntilNextRecv' ./internal/transport
go test -race -count=20 -timeout 600s -run 'TestWorkerRowSpaceMatchesFeatureSpace' ./internal/core

echo "== shard kill/restore smoke: real SIGKILL on a worker process =="
go test -count=1 -v -run 'TestShardKillRecover' ./cmd/plos-bench

echo "== alloc pins: steady state of the solver hot path and of a wire round — lent Worker.Solve, working-set refill, TCP frame exchange, ingest and round refill, async fold (the race detector allocates, so no -race) =="
go test -count=1 -run 'Allocs|TestGramCacheGrowsInPlace|TestAddCutRefillMatchesCloneForm' ./internal/qp ./internal/core \
    ./internal/optimize ./internal/transport ./internal/protocol ./internal/admm ./internal/shard

echo "== plos-server hang-regression smoke: devices start from onListen, ten passes under a short timeout =="
go test -count=10 -timeout 120s ./cmd/plos-server

echo "== protocol flake/hang regression: the whole package a hundred times beside two busy loops (TestAsyncClientResumeMidTraining failed 1 in 25 like this, and could hang) =="
(while :; do :; done) & busy1=$!
(while :; do :; done) & busy2=$!
trap 'kill $busy1 $busy2 2>/dev/null || true' EXIT
go test -count=100 -timeout 300s ./internal/protocol
kill $busy1 $busy2
trap - EXIT

echo "== fuzz smoke: transport codec =="
go test -run '^$' -fuzz 'FuzzMessageRoundTrip' -fuzztime 10s ./internal/transport

echo "== fuzz smoke: codec v4 compressed frames =="
go test -run '^$' -fuzz 'FuzzCompressedFrameRoundTrip' -fuzztime 10s ./internal/transport

echo "== fuzz smoke: aggregator session (scripted fake shards; bounded, no panic, finite w0) =="
go test -run '^$' -fuzz 'FuzzAggregatorSession' -fuzztime 10s -fuzzminimizetime 2s ./internal/protocol

echo "== fuzz smoke: server session, lockstep and asynchronous (scripted fake devices; bounded, no panic, finite w0) =="
go test -run '^$' -fuzz 'FuzzServerSession' -fuzztime 10s -fuzzminimizetime 2s ./internal/protocol

echo "== fuzz smoke: shard device tier (scripted fake devices over bare pipes, scripted aggregator; bounded, no panic, finite partials and models) =="
go test -run '^$' -fuzz 'FuzzShardSession' -fuzztime 10s -fuzzminimizetime 2s ./internal/protocol

echo "== fuzz smoke: checkpoint codec =="
go test -run '^$' -fuzz 'FuzzCheckpointRoundTrip' -fuzztime 10s ./internal/protocol

echo "== fuzz smoke: simplex/budget projection within the stated bound =="
go test -run '^$' -fuzz 'FuzzProjectBudgetMatchesReference' -fuzztime 10s ./internal/qp

echo "== fuzz smoke: the fused FISTA loop vs the pass-per-job reference, bit for bit =="
go test -run '^$' -fuzz 'FuzzSolveMatchesReference' -fuzztime 10s ./internal/qp

echo "== fuzz smoke: G·y over y's support vs MulVecTo on symmetric G, bit for bit =="
go test -run '^$' -fuzz 'FuzzSupportGradMatchesMulVec' -fuzztime 10s ./internal/qp

echo "== fuzz smoke: the multi-row axpy kernel vs its Go loop and successive AddScaled calls, bit for bit =="
go test -run '^$' -fuzz 'FuzzAddScaledRowsMatchesAddScaled' -fuzztime 10s ./internal/mat

echo "== fuzz smoke: Worker row space vs feature space (same cuts, w, v, ξ to rounding) =="
go test -run '^$' -fuzz 'FuzzWorkerModes' -fuzztime 10s ./internal/core

echo "== fuzz smoke: the rng source vs math/rand's, bit for bit, through every method drawn =="
go test -run '^$' -fuzz 'FuzzSourceMatchesMathRand' -fuzztime 10s ./internal/rng

echo "== fuzz smoke: parallel map =="
go test -run '^$' -fuzz 'FuzzMapMatchesSequential' -fuzztime 5s ./internal/parallel

echo "CI OK"
