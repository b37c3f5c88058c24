GO ?= go

.PHONY: all build test race lint microbench check flake-check crash-matrix resilience-matrix fsck fuzz-smoke sim-smoke sim-seeds trace-smoke heat-smoke serve-smoke zoo experiments experiments-paper-scale clean

all: build test

# Static analysis: vet always; staticcheck when available. CI pins the
# staticcheck version via `go run` (see .github/workflows/ci.yml); local
# runs without it installed just skip that half rather than failing.
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it via 'go run honnef.co/go/tools/cmd/staticcheck')"; \
	fi

# Everything the CI check job runs: vet, build, the full test suite (the
# race and crash-matrix jobs run separately; see those targets). The
# suite includes the paper's cost gates (internal/bench TestPaperCostGates:
# every Fig. 5-9 and adversarial row's block I/Os pinned exactly, plus the
# amortized relabel bounds of the paper and of the BKS lower bound). The
# benchmark is a module of its own that imports boxes/internal/...; the
# root ./... patterns do not compile it, so it is vetted and tested here
# by name. The benchmarks under internal/ run once each so they cannot rot;
# the allocation ceilings they report are asserted by the tests themselves
# (TestLookupAllocCeilings, TestFileReadAllocations).
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...
	$(GO) vet -C benchmark . && $(GO) test -C benchmark .

# The whole suite under the race detector, including the concurrent
# lookups-over-a-recovered-store walk in internal/crashmatrix and the
# readers-vs-batch-writer test in internal/core.
race:
	$(GO) test -race ./...

# Flake hunt: the packages whose tests race goroutines, timers and
# subprocesses, run FLAKE_COUNT times each. A test that fails once here in
# 50 runs fails a single tier-1 run about 1 time in 50; CHANGES.md records
# each failure this has found with its mechanism. Minutes, not seconds, so
# it is a manual or scheduled job (.github/workflows/flake-check.yml), not
# part of check.
FLAKE_COUNT ?= 50
flake-check:
	$(GO) test -count=$(FLAKE_COUNT) ./internal/core ./internal/serve ./internal/workload ./cmd

# Fuzzing on a smoke budget: every native fuzz target gets coverage-guided
# input generation on top of its committed seed corpus (go test -fuzz takes
# one target per run). FuzzOps, the cross-scheme differential harness, gets
# two minutes; each decoder of untrusted bytes gets 30 s: the saved
# metadata blob (FuzzRestoreMeta), the W-BOX and B-BOX block codecs
# (FuzzNodeView: header, decodeNode, the in-place scanners and the
# writeNode round trip), the write-ahead log scan (FuzzScanWAL), the
# wire protocol's frame reader (FuzzReadFrame: length prefix, CRC, size
# cap), request, response and both hellos. Failures drop
# a repro file into testdata/fuzz/ that should be committed as a
# regression. go test ./... runs only the committed seeds.
FUZZ_SHORT := -run '^$$' -fuzztime=30s
fuzz-smoke:
	$(GO) test ./internal/difftest -fuzz=FuzzOps -fuzztime=2m
	$(GO) test ./internal/core $(FUZZ_SHORT) -fuzz='^FuzzRestoreMeta$$'
	$(GO) test ./internal/wbox $(FUZZ_SHORT) -fuzz='^FuzzNodeView$$'
	$(GO) test ./internal/bbox $(FUZZ_SHORT) -fuzz='^FuzzNodeView$$'
	$(GO) test ./internal/pager $(FUZZ_SHORT) -fuzz='^FuzzScanWAL$$'
	$(GO) test ./internal/serve $(FUZZ_SHORT) -fuzz='^FuzzReadFrame$$'
	$(GO) test ./internal/serve $(FUZZ_SHORT) -fuzz='^FuzzDecodeRequest$$'
	$(GO) test ./internal/serve $(FUZZ_SHORT) -fuzz='^FuzzDecodeResponse$$'
	$(GO) test ./internal/serve $(FUZZ_SHORT) -fuzz='^FuzzClientHello$$'
	$(GO) test ./internal/serve $(FUZZ_SHORT) -fuzz='^FuzzServerHello$$'

# Deterministic-simulation smoke gate: the fixed-seed battery (every
# durable scheme — W-BOX, W-BOX-O, B-BOX, B-BOX-O — x the balanced and delete-heavy mixes x seeds 1..3) under
# composed fault schedules — crashes, torn writes, ENOSPC, fsync
# failures, transient flakes, crashes during WAL redo — plus the
# known-bug regression (the re-introduced tombstone-stranded W-BOX tree
# must be found, minimized and replayed byte-identically) and the
# seed-replay determinism tests. Failures drop replayable artifacts
# under boxsim-out/. The 24 execution digests of the battery are pinned in
# internal/sim/testdata/smoke.digests: a refactor that claims "every digest
# bit-identical" fails here when one moved. Re-pin (old -> new in
# CHANGES.md) only with a change that means to alter what is written.
sim-smoke:
	$(GO) test ./internal/sim -count=1 -v
	mkdir -p boxsim-out
	$(GO) run ./cmd/boxsim -smoke -out boxsim-out > boxsim-out/smoke.log || { cat boxsim-out/smoke.log; exit 1; }
	awk '/^boxsim: seed=/ {h = $$2 " " $$3 " " $$4} / digest=/ {print h, $$NF}' boxsim-out/smoke.log \
		| diff -u internal/sim/testdata/smoke.digests -
	@echo "sim-smoke: 24 histories ok, every digest as pinned"

# Randomized-seed soak: fresh base seed each run (the clock), every
# scheme, every mix. boxsim prints each seed BEFORE running it, so a
# red run is replayable byte-identically from the log with
# `go run ./cmd/boxsim -seed N -scheme S -mix M`; failing histories are
# additionally minimized into boxsim-out/.
SIM_SEEDS ?= 4
sim-seeds:
	$(GO) run ./cmd/boxsim -seeds $(SIM_SEEDS) -seed-base $$(date +%s) \
		-scheme all -mix all -ops 250 -out boxsim-out

# The crash-point sweep: every durable scheme (the four BOX worlds;
# naive-k is in-memory only), every raw write point of a scripted
# durable workload — its commits, its mid-script checkpoint, the appends
# that overwrite the reused log, its Close — full cuts and torn writes, per
# operation and in ApplyBatch transactions; double crashes during redo (of
# one cut's log and of a 40-commit log); ENOSPC at every write point; the
# corruption byte-flip matrix. Then the pager's own checkpoint matrix: the
# same cuts on its scripted workload, the checkpoint through Close, and the
# stale-generation log scans.
crash-matrix:
	$(GO) test ./internal/crashmatrix -v
	$(GO) test ./internal/pager -run 'TestCrashPointSweep|TestScanWALStaleTail|TestGenerationZeroLogRedoes|TestCheckpoint' -v

# The runtime fault-tolerance sweep: transient write faults at every k-th
# raw write on all four durable scheme workloads, each failing its op with a clean
# abort that a re-issue then completes (no retries inside the store), a
# permanent mid-workload fault flipping the store into read-only degraded
# mode with oracle-equal lookups, a hot backup taken mid-workload that
# opens fsck-clean at an exact op boundary, corruption surfacing as typed
# errors under concurrent readers, and the hot backup unit tests — then
# the CLI round trip (TestBackupCLI): build a durable store, snapshot it,
# corrupt the original, prove verify notices, restore, prove it is clean,
# and refuse a backup missing a sidecar without touching the target.
resilience-matrix:
	$(GO) test ./internal/crashmatrix -run 'TestTransientFaultSweep|TestPermanentWriteFaultDegrades|TestHotBackupDuringWorkload|TestCorruptReadsTypedUnderConcurrentReaders' -v
	$(GO) test ./internal/pager -run 'TestBackup' -v
	$(GO) test ./cmd -run TestBackupCLI -v

# The adversarial workload zoo: the adaptive-source unit tests, the
# cross-scheme differential runs of every zoo workload on every document
# shape (oracle equality + strict ledger conservation), the churn
# regression that provably reaches the W-BOX dead>=live global rebuild,
# the zoo crash sweep (power cut at every write point of the churn and
# bisection workloads), and the zipf-readers-vs-churn-writer race test
# with a durable reopen mid-run.
zoo:
	$(GO) test ./internal/workload -count=1 -race -v
	$(GO) test ./internal/difftest -run 'TestZoo|TestChurn' -count=1 -v
	$(GO) test ./internal/crashmatrix -run 'TestZooCrashSweep' -count=1 -v
	$(GO) test ./internal/sim -run 'TestSimZoo|TestSimZipf|TestSimSteady' -count=1 -v

# Build a small store end to end and verify it offline with boxfsck.
fsck:
	$(GO) run ./cmd/boxgen -elements 5000 -seed 1 > /tmp/boxes-fsck.xml
	$(GO) run ./cmd/boxload -scheme wbox -save /tmp/boxes-fsck.box -fsck /tmp/boxes-fsck.xml
	$(GO) run ./cmd/boxfsck -v /tmp/boxes-fsck.box

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

# Heat-map smoke: run the scattered-insertion experiment (the workload the
# amortized gates watch) with the metrics endpoint up, snapshot /debug/heat
# into heat-scattered.json (the artifact CI uploads), and assert the live
# conservation check inside the payload passed. The server lingers after
# the workload, so the snapshot is quiescent and exact.
heat-smoke:
	$(GO) build -o /tmp/boxbench-heat ./cmd/boxbench
	rm -f /tmp/boxes-heat.log
	/tmp/boxbench-heat -exp fig7 -base 2000 -inserts 500 -metrics 127.0.0.1:9310 -linger \
		> /tmp/boxes-heat.log 2>&1 & echo $$! > /tmp/boxes-heat.pid
	@for i in $$(seq 1 120); do grep -q lingering /tmp/boxes-heat.log && break; sleep 1; done; \
		grep -q lingering /tmp/boxes-heat.log || { echo "boxbench never reached linger:"; cat /tmp/boxes-heat.log; kill $$(cat /tmp/boxes-heat.pid); exit 1; }
	curl -fsS http://127.0.0.1:9310/debug/heat > heat-scattered.json
	curl -fsS http://127.0.0.1:9310/metrics | grep -E 'boxes_amortized_|boxes_heat_|boxes_cost_' > heat-gauges.txt
	kill $$(cat /tmp/boxes-heat.pid)
	grep -q '"conservation_ok":true' heat-scattered.json
	grep -q '"name":"inserts"' heat-scattered.json
	@echo "heat-smoke: conservation ok; snapshot in heat-scattered.json"

SERVE_LOAD_FLAGS := -conns 4 -ops 2000 -seed 1

# Network-service smoke: start boxserve with connection faults injected
# (every 7th response write kills the connection — clients must retry and
# the session dedup must keep every op exactly-once), run a zipf and a
# churn load through boxclient, SIGTERM a graceful drain, and verify the
# store offline with boxfsck. boxclient -load exits 1 when any op failed
# after its retries, so each load is its own gate; TestRunLoadUnderConnFaults
# holds the same claim, plus exactly-once label counts, inside go test.
serve-smoke:
	$(GO) build -o /tmp/boxserve-smoke ./cmd/boxserve
	$(GO) build -o /tmp/boxclient-smoke ./cmd/boxclient
	-@kill $$(cat /tmp/boxes-serve.pid 2>/dev/null) 2>/dev/null; sleep 1
	rm -f /tmp/boxes-serve.box /tmp/boxes-serve.log
	/tmp/boxserve-smoke -store /tmp/boxes-serve.box -addr 127.0.0.1:9420 -metrics 127.0.0.1:9421 \
		-fault-kth 7 -fault-mode crash -fault-seed 3 \
		> /tmp/boxes-serve.log 2>&1 & echo $$! > /tmp/boxes-serve.pid
	@for i in $$(seq 1 60); do grep -q serving /tmp/boxes-serve.log && break; sleep 1; done; \
		grep -q serving /tmp/boxes-serve.log || { echo "boxserve never came up:"; cat /tmp/boxes-serve.log; exit 1; }
	/tmp/boxclient-smoke -addr 127.0.0.1:9420 -load -source zipf $(SERVE_LOAD_FLAGS) || { kill $$(cat /tmp/boxes-serve.pid); exit 1; }
	/tmp/boxclient-smoke -addr 127.0.0.1:9420 -load -source churn $(SERVE_LOAD_FLAGS) || { kill $$(cat /tmp/boxes-serve.pid); exit 1; }
	curl -fsS http://127.0.0.1:9421/metrics | grep -E '^serve_requests_total|^serve_sessions|^pager_wal_size_bytes'
	kill -TERM $$(cat /tmp/boxes-serve.pid)
	@for i in $$(seq 1 60); do grep -q 'closed' /tmp/boxes-serve.log && break; sleep 1; done; \
		grep -q 'closed' /tmp/boxes-serve.log || { echo "drain did not complete:"; cat /tmp/boxes-serve.log; exit 1; }
	$(GO) run ./cmd/boxfsck -v /tmp/boxes-serve.box
	@echo "serve-smoke: faults absorbed, no op failed, drain clean, store fsck-clean"

# Span-tracing smoke: a durable element-wise load in ApplyBatch
# transactions of 64, with the Chrome trace exporter on (the artifact CI
# uploads; load it in Perfetto — each batch span on the writer lane holds
# its 64 insert spans and the one fsync that makes them durable), plus the
# null-span guarantee that disabled tracing costs zero allocations on the
# op path.
trace-smoke:
	$(GO) run ./cmd/boxgen -elements 2000 -seed 1 > /tmp/boxes-trace.xml
	rm -f /tmp/boxes-trace.box /tmp/boxes-trace.box.*
	$(GO) run ./cmd/boxload -scheme bbox -save /tmp/boxes-trace.box -durable -batch 64 \
		-trace trace-batch.json /tmp/boxes-trace.xml
	$(GO) test ./internal/obs -run 'TestTracerDisabledIsNullAndAllocFree' -count=1 -v
	$(GO) test ./internal/core -run 'TestPhaseCoverageDurable|TestBatchTraceCoalescing' -count=1 -v

microbench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Regenerate every figure and table of the paper at laptop scale (~1 min).
experiments:
	$(GO) run ./cmd/boxbench -exp all

# The paper's own workload sizes (2M-element base document; hours, the
# naive schemes dominate).
experiments-paper-scale:
	$(GO) run ./cmd/boxbench -exp all -scale 100

clean:
	$(GO) clean ./...
