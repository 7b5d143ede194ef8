# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all build test race race-hot cover bench benchsmoke faultsmoke durasmoke bdrsmoke optsmoke servesmoke proxysmoke docscheck check fuzz loc experiments fmt vet clean

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The hot-path packages (round engine, parallel sweep runner, exact
# solver) under the race detector with fresh (uncached) runs — the fast
# pre-commit subset. The offline package runs in -short mode: the full
# differential corpus under the race detector belongs to `make race`.
race-hot:
	go test -race -count=1 ./internal/sched/ ./internal/exp/ ./internal/serve/ ./internal/proxy/ ./internal/ckptlog/ ./internal/bdr/
	go test -race -count=1 -short ./internal/offline/

cover:
	go test -cover ./...

bench:
	go test -bench=. -benchmem -run '^$$' ./...

# One iteration of every benchmark, then rrbench end to end (flag
# parsing, the T9 experiment's exp.Sweep at 1-8 workers, the markdown
# writer): a fast smoke test that the benchmarks and the experiment CLI
# still compile and run, not a measurement.
benchsmoke:
	go test -bench=. -benchtime=1x -benchmem -run '^$$' ./...
	go run ./cmd/rrbench -quick -run T9 -md /tmp/rrbench_smoke.md
	rm -f /tmp/rrbench_smoke.md

# The crash-fault-injection harness for the checkpoint/restore subsystem
# (docs/CHECKPOINT.md): kill a stream at every round, restore it, finish
# the trace, require a bit-identical Result — for every policy — plus
# corruption/mismatch rejection. Fresh runs, never cached.
faultsmoke:
	go test -run 'TestFaultInjection' -count=1 .
	go test -run 'TestCheckpoint' -count=1 ./internal/trace/

# The group-commit durability smoke (docs/CHECKPOINT.md "Group-commit
# log"): the whole ckptlog package fresh — segment framing and the
# record-kind check, recovery scans over truncated/corrupted tails,
# rotation and compaction, one live record per tenant and the refusal
# of a latest delta, sticky write/sync failures, the committer's fsync
# outside the log lock, the flush count the checkpoint rule reads —
# plus the serve-layer durability contracts: tombstones shadowing closed
# tenants, compacting and deep-state restarts, startup refusing a tenant
# whose latest record is an older build's delta (and recovering one
# whose delta a later full superseded), the zero-allocation checkpoint
# path, record versions and the snapshot checks recovery runs. The
# TestCheckpointRule tests pin when a due checkpoint is taken (the
# queue emptied, or the log flushed since the tenant's previous record)
# with no committer pass to blur it, and
# TestServeCrashRestartDeferredCheckpoints crashes a deep-queued load
# amid rotations and requires bit-identical results with fewer records
# than one per pick. Fresh runs, never cached.
durasmoke:
	go test -count=1 ./internal/ckptlog/
	go test -run 'TestCloseTenantLogTombstone|TestCloseTenantCheckpointRace|TestServeLogCompactionRestart|TestServeLogDeepStateRestart|TestRecoverRefusesOlderDelta|TestCheckpointPathAllocFree|TestCheckpointRule|TestServeCrashRestartLogSegments|TestServeCrashRestartDeferredCheckpoints|TestRecordVersions|TestRestoreRejections' -count=1 ./internal/serve/

# The admission-control smoke (docs/SCHEDULING.md "Admission (layer
# 0)"): the whole internal/bdr package fresh — SBF feasibility
# properties, the reservation tree, the fractional-share controller —
# plus the serve-layer BDR contracts: typed admission rejection with
# residuals, durable reservations across restarts, the deterministic
# isolation harness, and the paced shard's pass clock, which keeps the
# shard's rate-1 supply in wall time. Fresh runs, never cached.
bdrsmoke:
	go test -count=1 ./internal/bdr/
	go test -run 'TestBDR|TestPace' -count=1 ./internal/serve/
	go test -run 'TestProxyDuraStatsFanout' -count=1 ./internal/proxy/

# The multi-tenant server smoke (docs/SERVER.md): the full serve-layer
# suite fresh — wire codec, admission control and overload shedding, the
# 64-tenant load-generator run verified bit-identical against local
# replays, and both restart harnesses (graceful SIGTERM-style drain and
# crash-fault injection between round ticks, each resumed from
# checkpoints). The fuzz seed corpus runs as part of the same package.
servesmoke:
	go test -count=1 ./internal/serve/

# The fleet smoke (docs/SERVER.md "Fleet"): the rrproxy router tier
# fresh — rendezvous placement stability, stats fan-out, a verified
# load run through the proxy in both driver modes, and the 3-backend
# failover harness that kills a primary mid-run and requires
# bit-identical results via standby replay.
proxysmoke:
	go test -count=1 ./internal/proxy/

# The exact-solver smoke: the branch-and-bound optimum pinned
# bit-identical to the legacy DFS on the differential corpus, at several
# worker counts, plus the wide-key fallback. Fresh runs, never cached.
optsmoke:
	go test -run 'TestSolveExact|TestExactBetweenBounds' -short -count=1 ./internal/offline/

# Documentation drift gate: every relative link in README.md and
# docs/*.md must resolve, and every exported declaration of
# internal/serve, internal/proxy, internal/ckptlog, internal/bdr and
# internal/snap must carry a doc comment.
docscheck:
	go run ./cmd/docscheck

# The pre-commit gate: static analysis, the docs drift gate, then every
# test of the module exactly once, fresh, under the race detector, and
# last a vet of the benchmark module, which links internal packages but
# is a module of its own, so nothing above builds it. The smoke targets
# above are subsets of that run, kept as shortcuts for iterating on one
# subsystem.
check: vet docscheck
	go test -race -count=1 ./...
	cd benchmark && go vet ./...

# Run every fuzz target for FUZZTIME past its seed corpus (`make check`
# runs only the seeds). `go test -fuzz` takes one target per run, so the
# targets go one at a time. A failing input is saved under the package's
# testdata/fuzz, where every later `go test` run replays it.
FUZZTIME ?= 15s
FUZZ_TARGETS = \
	./internal/serve:FuzzFrameDecode \
	./internal/serve:FuzzResponseDecode \
	./internal/serve:FuzzRestoreStep \
	./internal/serve:FuzzOpenStep \
	./internal/sched:FuzzReplaySchedule \
	./internal/sched:FuzzStreamArrivals \
	./internal/snap:FuzzDelta \
	./internal/trace:FuzzCheckpointDecode \
	./internal/trace:FuzzReadCSV \
	./internal/trace:FuzzReadJSON
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$pkg $$fn ($(FUZZTIME))"; \
		go test -run '^$$' -fuzz "^$$fn\$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

# The size of the network layer, internal/serve plus internal/proxy, and
# of the checkpoint log, internal/ckptlog, as ROADMAP's line-count goals
# and CHANGES.md entries quote them: non-test lines, and code lines
# (non-blank lines that do not start with //). Then the whole module's
# non-test Go lines, leaving out the benchmark module and hidden
# directories such as its build output. It reports only; nothing gates
# on it.
LOC_FILES = $(filter-out %_test.go,$(wildcard internal/serve/*.go internal/proxy/*.go))
CKPT_FILES = $(filter-out %_test.go,$(wildcard internal/ckptlog/*.go))
REPO_FILES = $(shell find . \( -path ./benchmark -o -path './.*' \) -prune -o -name '*.go' ! -name '*_test.go' -print)
CODE_LINES = grep -v -e '^[[:space:]]*$$' -e '^[[:space:]]*//' | wc -l
loc:
	@echo "serve+proxy non-test lines: $$(cat $(LOC_FILES) | wc -l)"
	@echo "serve+proxy code lines:     $$(cat $(LOC_FILES) | $(CODE_LINES))"
	@echo "ckptlog non-test lines:     $$(cat $(CKPT_FILES) | wc -l)"
	@echo "ckptlog code lines:         $$(cat $(CKPT_FILES) | $(CODE_LINES))"
	@echo "repo non-test Go lines:     $$(cat $(REPO_FILES) | wc -l)"

# Regenerate every experiment table/figure (DESIGN.md §3) and refresh the
# data section of EXPERIMENTS.md.
experiments:
	go run ./cmd/rrbench -md experiments_generated.md

fmt:
	gofmt -w .

vet:
	go vet ./...

clean:
	go clean ./...
	rm -f experiments_generated.md
