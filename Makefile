GO ?= go

.PHONY: build vet test race examples bench bench-json bench-gate bench-stages perfbench perfbench-test eval-json eval-gate check lint explain-demo chaos fuzz snapshot snapshot-verify snapshot-smoke flight-smoke replica-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The experiment sweeps are CPU-heavy; under the race detector they need
# more than the default 10m package timeout.
race:
	$(GO) test -race -timeout 30m ./...

# Run every example program: `go build ./...` compiles them, but only
# running them shows they still work. A non-zero exit fails the target.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || { echo "examples: $$d exited non-zero"; exit 1; }; \
	done

bench:
	$(GO) test -run=^$$ -bench=. -benchmem ./...

# Machine-readable snapshot of the pipeline and cold-start benchmarks
# (seed path, cached+parallel path, the parallel-N scaling curve, and
# rebuild-vs-snapshot-load cold start), committed as BENCH_pipeline.json.
# GOMAXPROCS is pinned to 8 so the scaling curve is measured against the
# same scheduler width everywhere; benchjson runs under the same pin so
# the report records it, next to the CPU count. ColdStart runs at -benchtime 1x: one
# iteration is a full cold start, and benchjson parses the two
# concatenated `go test` outputs as one report.
bench-json:
	( GOMAXPROCS=8 $(GO) test -run=^$$ -bench=BenchmarkPipeline -benchmem -benchtime 3x . && \
	  GOMAXPROCS=8 $(GO) test -run=^$$ -bench=BenchmarkColdStart -benchmem -benchtime 1x . ) \
		| GOMAXPROCS=8 $(GO) run ./cmd/benchjson > BENCH_pipeline.json

# Stage microbenchmarks, committed as BENCH_stages.json for
# before/after comparison: a build's serial region — borrow-donor
# selection and the matcher (the matrix build plus the merge loop, with
# and without a decision ledger) — and the cold query path's text work —
# compiling a query, an extraction search with its snippet tags, and
# Surface extraction over served snippets. Not gated: ns/op of these
# lines moves with the host, and benchjson records the CPU count next
# to them.
bench-stages:
	$(GO) test -run=^$$ -bench='BenchmarkDonorSelection|BenchmarkMatchDomains|BenchmarkMatchMergeLoop|BenchmarkSurfaceExtract|BenchmarkCompile|BenchmarkSearch' -benchmem \
		./internal/webiq/ ./internal/matcher/ ./internal/surfaceweb/ | $(GO) run ./cmd/benchjson > BENCH_stages.json

# Perf-regression gate: rerun the benchmarks and compare against the
# committed baseline. allocs/op and B/op are deterministic enough for a
# tight 10% bound; ns/op is noisy on shared runners, so wall clock rides
# with its own looser 25% bound — big slowdowns still fail CI, small
# jitter does not. eff% is the parallel-N scaling efficiency
# (100·speedup/N, reported by the benchmark) and xrebuild is how many
# times faster loading a snapshot is than rebuilding the same world; the
# < prefix marks both lower-is-worse, so a run whose scaling efficiency
# or snapshot-load advantage drops more than 25% below the committed
# curve fails the gate. eff% of a parallel-N run wider than the CPU count
# either report records is printed as SKIP instead of gated: on a 2-CPU
# runner parallel-8 runs two workers, and its efficiency says nothing.
bench-gate:
	( GOMAXPROCS=8 $(GO) test -run=^$$ -bench=BenchmarkPipeline -benchmem -benchtime 3x . && \
	  GOMAXPROCS=8 $(GO) test -run=^$$ -bench=BenchmarkColdStart -benchmem -benchtime 1x . ) \
		| GOMAXPROCS=8 $(GO) run ./cmd/benchjson -compare BENCH_pipeline.json - \
			-max-regress 10% -metrics "allocs/op,B/op,ns/op=25%,<eff%=25%,<xrebuild=25%"

# The repository benchmark (perfbench/README.md, BENCHMARK.json): one
# workload from one seed for SECS seconds, every metric printed by name,
# every output checked. W is acquire-cold, acquire-warm or serve-mixed.
#   make perfbench W=acquire-warm SEED=11 SECS=20
W ?= acquire-warm
SEED ?= 1
SECS ?= 20
perfbench:
	bash perfbench/run.sh --workload $(W) --seed $(SEED) --seconds $(SECS)

# perfbench is a Go module of its own, so the root `go test ./...` never
# runs its tests (decorator fidelity, worker-count digests, BENCHMARK.json
# kept in step with the code).
perfbench-test:
	cd perfbench && $(GO) test ./...

# Matching-quality snapshot: evaluate the full pipeline on the paper's
# five domains plus 20 synthetic sweep domains and write the aggregate
# per-stage precision/recall/F1 to EVAL_quality.json (the committed
# quality baseline).
eval-json:
	$(GO) run ./cmd/webiq-eval -synth 20 -runs 1 -seed 1 -q -json EVAL_quality.json

# Quality-regression gate: rerun the evaluation with the same seed and
# fail if any stage's precision/recall/F1 mean dropped more than two
# points against the committed EVAL_quality.json. The run is
# deterministic, so on an unchanged pipeline the comparison is exact.
eval-gate:
	$(GO) run ./cmd/webiq-eval -synth 20 -runs 1 -seed 1 -q -baseline EVAL_quality.json -max-drop 0.02

# Static analysis: gofmt must list no file, vet always; staticcheck
# when installed (CI installs it; locally it is optional so the target
# works offline).
lint: vet
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files are not formatted:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Chaos suite: drive the full pipeline through every fault profile
# under the race detector, twice, plus every resilience test (the
# retry/breaker primitives, fault profiles and injectors,
# cancellation), every singleflight memo test and the admission/drain
# tests. -count=2 catches state leaking between runs (stuck breakers,
# cache poisoning by injected errors) that a single pass hides. The
# resilience and memo packages run unfiltered; the filter picks the
# chaos, cancellation and component-memo (Attr-Deep probe, Surface
# search) tests out of webiq and server.
chaos:
	$(GO) test -race -count=2 -timeout 20m ./internal/resilience/ ./internal/memo/
	$(GO) test -race -count=2 -timeout 20m \
		-run 'Chaos|Injector|Retrier|Breaker|Client|Admission|ServerDrain|ParallelForCtx|AcquireAllCtx|Cancel|Singleflight|ProbeMemo|SearchMemo' \
		./internal/webiq/ ./internal/server/

# Short fuzz passes: the deep-web response-analysis heuristics (seeded
# with the injector's malformed-page corpus), deep-web probes (every
# page must equal the reference row-map scan's), the binary snapshot
# loader (seeded with a real snapshot plus truncated/bit-flipped
# variants — corruption must produce an error, never a panic), the
# snippet views (every window of a document, expanded with its stored
# tags, must equal tagging the window's text afresh), the search query
# parser (it must agree with the reference splice parser, Compile must
# equal ParseQuery plus interning, and a compiled query must answer as
# its string does),
# the search engine's reads (every hit count and ranked search, on
# the engine and through the query cache, must equal the linear-scan
# oracle's), the matcher's value typing (the byte scanners must
# type every value as the reference regexps do), Attr-Deep's early
# stop (over long uncapped outcome sequences, the verdict must be the
# whole sample's one-third verdict, decided by its shortest prefix), and
# the donor index's very-similar test (over fresh and extended views,
# it must agree with the per-call near-duplicate scan).
fuzz:
	$(GO) test -fuzz FuzzAnalyzeResponse -fuzztime 30s ./internal/deepweb/
	$(GO) test -fuzz FuzzProbe -fuzztime 30s ./internal/deepweb/
	$(GO) test -fuzz FuzzLoadBytes -fuzztime 30s ./internal/snapshot/
	$(GO) test -fuzz FuzzSnippetView -fuzztime 30s ./internal/surfaceweb/
	$(GO) test -fuzz FuzzParseQuery -fuzztime 30s ./internal/surfaceweb/
	$(GO) test -fuzz FuzzEngineQueries -fuzztime 30s ./internal/surfaceweb/
	$(GO) test -fuzz FuzzClassifyValue -fuzztime 30s ./internal/matcher/
	$(GO) test -fuzz FuzzOneThirdStop -fuzztime 30s ./internal/webiq/
	$(GO) test -fuzz FuzzDomainsVerySimilar -fuzztime 30s ./internal/webiq/

# Build the world snapshot webiq-serve -snapshot boots from, then
# re-verify every checksum and structural invariant.
snapshot:
	$(GO) run ./cmd/webiq-snapshot build -o world.snap

snapshot-verify:
	$(GO) run ./cmd/webiq-snapshot verify world.snap

# End-to-end cold-start smoke test: build a snapshot, boot webiq-serve
# from it, and require /readyz to answer 200 (all domains ready) plus a
# rendered /unified/{domain} and a fully attributed
# /unified/{domain}/explain for every domain — the instant-cold-start
# contract CI holds.
snapshot-smoke:
	./scripts/snapshot_smoke.sh

# End-to-end flight-recorder smoke test: boot webiq-serve under the p30
# chaos profile with breaker-only triggers, drive concurrent
# /source/{ifc}/search probes and /unified/{domain}/search fan-outs
# (request-time probes through the resilient source client) until its
# breaker opens, and require a diagnostic bundle that
# webiq-flight can render, whose wide events account for every 5xx and
# shed, and whose p99 trace exemplar resolves via /trace/{id}. Set
# OUT=dir to keep the bundles and report (CI uploads them).
flight-smoke:
	./scripts/flight_smoke.sh

# Replica gate: boot 3 nodes from one snapshot and require every route
# to answer byte-identically on all of them; run one webiq-loadgen per
# node, SIGKILL the third mid-run, and require each survivor's run to
# hold its objectives (non-503 errors within 1%, p99 within 3s, every
# domain servable) while the victim's run fails; then SIGTERM each
# survivor and require a clean exit inside -drain. Set OUT=dir to keep
# the loadgen summaries and node logs (CI uploads them).
replica-smoke:
	./scripts/replica_smoke.sh

# Provenance smoke test: boot the server (building its world), assert
# every instance of a domain's unified interface is attributed with
# evidence via /unified/{domain}/explain, and resolve that request's
# trace (see cmd/explain-demo).
explain-demo:
	$(GO) run ./cmd/explain-demo

check: vet test race
