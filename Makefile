# Developer entry points for the photomosaic reproduction.
#
#   make check       gofmt check + vet + build + race-enabled tests + fuzz seed corpus
#   make fmt-check   fail if any tracked Go file is not gofmt-clean
#   make test        plain test suite (what CI tier 1 runs)
#   make race        full suite under the race detector
#   make fuzz-smoke  run every Fuzz* seed corpus as ordinary tests
#   make fuzz        short live fuzzing session per target (FUZZTIME=10s)
#   make cross       vet + build the non-amd64 fallbacks (arm64, 386)
#   make bench       package micro-benchmarks
#   make bench-once  run the Step-3, edge-coloring and response-encode benchmarks once each
#   make bench-json  regenerate the committed BENCH_pipeline.json report
#   make bench-smoke fast CI-sized run of the bench-json pipeline
#   make telemetry-smoke  end-to-end probe of the -serve debug endpoint
#   make service-smoke    end-to-end probe of the mosaicd HTTP service
#   make chaos-smoke      fault-injection battery (-race) + a mosaicd chaos drill
#   make tilestore-smoke  columnar-store gates: oracle battery + fuzz seeds + goldens
#   make solver-smoke     pinned S=4096 solver comparison: certified gap + speedup gates
#   make cluster-smoke    4-backend router scale-out: ≥3x throughput, bit-identical, kill-one failover
#   make overload-smoke   graceful-degradation battery: anytime partials, admission 429s, zero 504s under burst

GO      ?= go
FUZZTIME ?= 10s
TELEMETRY_ADDR ?= 127.0.0.1:9190
SERVICE_ADDR ?= 127.0.0.1:9200

.PHONY: check fmt-check vet build test race fuzz-smoke fuzz cross bench bench-once bench-json bench-smoke telemetry-smoke service-smoke chaos-smoke tilestore-smoke solver-smoke cluster-smoke overload-smoke clean

check: fmt-check vet build race fuzz-smoke chaos-smoke tilestore-smoke solver-smoke cluster-smoke overload-smoke

# Only tracked files: local build trees (.bench_build/gopath) hold
# third-party sources that are not ours to format.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "fmt-check: not gofmt-clean:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every fuzz target's seed corpus, executed as deterministic tests.
fuzz-smoke:
	$(GO) test -run Fuzz ./...

# Live coverage-guided fuzzing, one target at a time (go test allows a
# single -fuzz pattern per package invocation).
fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/pnm
	$(GO) test -fuzz FuzzHistogramMatch -fuzztime $(FUZZTIME) ./internal/hist
	$(GO) test -fuzz FuzzGenerateOptions -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz FuzzTileErrorRow -fuzztime $(FUZZTIME) ./internal/metric

# The Step-2 row kernel is assembly on amd64 and a Go loop elsewhere; keep
# the portable fallback vetted and building.
cross:
	GOARCH=arm64 $(GO) vet ./internal/metric/ && GOARCH=arm64 $(GO) build ./... && GOARCH=386 $(GO) build ./...

bench:
	$(GO) test -bench . -benchtime 1x ./...

# One iteration of every local-search, edge-coloring and response-encode
# benchmark (the S=64² exact-s64 shapes included), so they keep compiling
# and running.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/localsearch/ ./internal/edgecolor/ ./internal/service/

# Regenerate the committed machine-readable benchmark report (pinned
# workload; see internal/benchjson for the schema).
bench-json:
	$(GO) run ./cmd/mosaicbench -bench-json BENCH_pipeline.json

# Same pipeline at a reduced size (128×128, 16 tiles/side) so CI can exercise
# the full serial/dirty/parallel comparison — including the dirty-replay
# tripwire — in seconds. The report goes to a scratch file, never committed.
bench-smoke:
	@tmp=$$(mktemp); trap 'rm -f $$tmp' EXIT; \
	$(GO) run ./cmd/mosaicbench -bench-json $$tmp -bench-size 128 -bench-tiles 16 && \
	echo "bench-smoke: ok"

# End-to-end probe of the observability surface, in two legs. First the CLI
# debug server: run a generation with -serve, wait for /healthz, require a 200
# and mosaic_* series from /metrics plus a 200 from /metrics.json. Then the
# request-scoped tracing in mosaicd: boot it with an access log, send a slow
# (normal) request and a failing (1ms-deadline) one, and require the
# X-Request-ID echo, one access-log line per request with the right outcome
# and phase attribution, both requests retrievable by ID from
# /debug/requests/{id}, and build info + phase histograms on /metrics.
telemetry-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/mosaic ./cmd/mosaic; \
	$$tmp/mosaic -input lena -target sailboat -size 1024 -tiles 64 \
		-algorithm approximation-parallel -serve $(TELEMETRY_ADDR) \
		-q -o $$tmp/mosaic.png & pid=$$!; \
	up=0; \
	for i in $$(seq 1 100); do \
		if curl -fsS -o /dev/null http://$(TELEMETRY_ADDR)/healthz 2>/dev/null; then up=1; break; fi; \
		kill -0 $$pid 2>/dev/null || break; \
		sleep 0.1; \
	done; \
	if [ $$up -ne 1 ]; then echo "telemetry-smoke: /healthz never answered 200"; kill $$pid 2>/dev/null; exit 1; fi; \
	if ! curl -fsS http://$(TELEMETRY_ADDR)/metrics | grep -q '^mosaic_'; then \
		echo "telemetry-smoke: /metrics missing mosaic_* series"; kill $$pid 2>/dev/null; exit 1; fi; \
	if ! curl -fsS -o /dev/null http://$(TELEMETRY_ADDR)/metrics.json; then \
		echo "telemetry-smoke: /metrics.json failed"; kill $$pid 2>/dev/null; exit 1; fi; \
	wait $$pid; \
	$(GO) build -o $$tmp/mosaicd ./cmd/mosaicd; \
	$$tmp/mosaicd -addr $(SERVICE_ADDR) -access-log $$tmp/access.log & dpid=$$!; \
	up=0; \
	for i in $$(seq 1 100); do \
		if curl -fsS -o /dev/null http://$(SERVICE_ADDR)/readyz 2>/dev/null; then up=1; break; fi; \
		kill -0 $$dpid 2>/dev/null || break; \
		sleep 0.1; \
	done; \
	if [ $$up -ne 1 ]; then echo "telemetry-smoke: mosaicd /readyz never answered 200"; kill $$dpid 2>/dev/null; exit 1; fi; \
	req='{"input":"lena","target":"sailboat","size":256,"tiles":16}'; \
	curl -fsS -D $$tmp/slow.hdr -o $$tmp/slow.json -X POST \
		-H 'Content-Type: application/json' -H 'X-Request-ID: smoke-slow-1' \
		-d "$$req" http://$(SERVICE_ADDR)/v1/mosaic || { \
		echo "telemetry-smoke: slow request failed"; kill $$dpid 2>/dev/null; exit 1; }; \
	grep -qi '^x-request-id: smoke-slow-1' $$tmp/slow.hdr || { \
		echo "telemetry-smoke: X-Request-ID not echoed"; kill $$dpid 2>/dev/null; exit 1; }; \
	grep -q '"request_id": "smoke-slow-1"' $$tmp/slow.json || { \
		echo "telemetry-smoke: request_id missing from the job response"; kill $$dpid 2>/dev/null; exit 1; }; \
	fail=$$(curl -s -o /dev/null -w '%{http_code}' -X POST \
		-H 'Content-Type: application/json' -H 'X-Request-ID: smoke-fail-1' \
		-d '{"input":"peppers","target":"plasma","size":512,"tiles":32,"timeout_ms":1}' \
		http://$(SERVICE_ADDR)/v1/mosaic); \
	if [ "$$fail" != "504" ]; then \
		echo "telemetry-smoke: 1ms-deadline request answered $$fail, want 504"; kill $$dpid 2>/dev/null; exit 1; fi; \
	grep 'smoke-slow-1' $$tmp/access.log | grep -q '"outcome":"done"' || { \
		echo "telemetry-smoke: no done access-log line for smoke-slow-1"; kill $$dpid 2>/dev/null; exit 1; }; \
	grep 'smoke-slow-1' $$tmp/access.log | grep -q '"phases_ns"' || { \
		echo "telemetry-smoke: access-log line lacks phase attribution"; kill $$dpid 2>/dev/null; exit 1; }; \
	grep 'smoke-fail-1' $$tmp/access.log | grep -q '"outcome":"timeout"' || { \
		echo "telemetry-smoke: no timeout access-log line for smoke-fail-1"; kill $$dpid 2>/dev/null; exit 1; }; \
	curl -fsS http://$(SERVICE_ADDR)/debug/requests/smoke-slow-1 | grep -q '"queue_wait"' || { \
		echo "telemetry-smoke: /debug/requests/smoke-slow-1 lacks queue_wait"; kill $$dpid 2>/dev/null; exit 1; }; \
	curl -fsS http://$(SERVICE_ADDR)/debug/requests/smoke-fail-1 | grep -q '"outcome": "timeout"' || { \
		echo "telemetry-smoke: /debug/requests/smoke-fail-1 missing or wrong outcome"; kill $$dpid 2>/dev/null; exit 1; }; \
	curl -fsS http://$(SERVICE_ADDR)/debug/requests | grep -q '"request_id": "smoke-fail-1"' || { \
		echo "telemetry-smoke: errored request missing from /debug/requests"; kill $$dpid 2>/dev/null; exit 1; }; \
	curl -fsS http://$(SERVICE_ADDR)/metrics > $$tmp/metrics.txt; \
	grep -q '^mosaic_build_info{' $$tmp/metrics.txt || { \
		echo "telemetry-smoke: mosaic_build_info missing"; kill $$dpid 2>/dev/null; exit 1; }; \
	grep -q '^mosaic_request_phase_ns_bucket' $$tmp/metrics.txt || { \
		echo "telemetry-smoke: mosaic_request_phase_ns missing"; kill $$dpid 2>/dev/null; exit 1; }; \
	grep -q '^mosaic_service_queue_wait_ns_bucket' $$tmp/metrics.txt || { \
		echo "telemetry-smoke: mosaic_service_queue_wait_ns missing"; kill $$dpid 2>/dev/null; exit 1; }; \
	kill -TERM $$dpid; \
	wait $$dpid || { echo "telemetry-smoke: mosaicd did not drain cleanly"; exit 1; }; \
	echo "telemetry-smoke: ok"

# End-to-end probe of the mosaicd service: start it, wait for /readyz,
# submit the same job twice (the second must be a cache hit that skipped
# Step 2), check the cache-hit counter on /metrics, then SIGTERM and
# require a clean graceful drain (exit 0).
service-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/mosaicd ./cmd/mosaicd; \
	$$tmp/mosaicd -addr $(SERVICE_ADDR) & pid=$$!; \
	up=0; \
	for i in $$(seq 1 100); do \
		if curl -fsS -o /dev/null http://$(SERVICE_ADDR)/readyz 2>/dev/null; then up=1; break; fi; \
		kill -0 $$pid 2>/dev/null || break; \
		sleep 0.1; \
	done; \
	if [ $$up -ne 1 ]; then echo "service-smoke: /readyz never answered 200"; kill $$pid 2>/dev/null; exit 1; fi; \
	req='{"input":"lena","target":"sailboat","size":256,"tiles":16}'; \
	curl -fsS -X POST -H 'Content-Type: application/json' -d "$$req" \
		http://$(SERVICE_ADDR)/v1/mosaic > $$tmp/first.json; \
	grep -q '"cache": "miss"' $$tmp/first.json || { \
		echo "service-smoke: first request was not a cache miss"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -fsS -X POST -H 'Content-Type: application/json' -d "$$req" \
		http://$(SERVICE_ADDR)/v1/mosaic > $$tmp/second.json; \
	grep -q '"cache": "hit"' $$tmp/second.json || { \
		echo "service-smoke: second request did not hit the cache"; kill $$pid 2>/dev/null; exit 1; }; \
	if grep -q '"error-matrix"' $$tmp/second.json; then \
		echo "service-smoke: cache hit still ran the cost matrix"; kill $$pid 2>/dev/null; exit 1; fi; \
	curl -fsS http://$(SERVICE_ADDR)/metrics | grep '^mosaic_service_cache_hits_total' | grep -qv ' 0$$' || { \
		echo "service-smoke: mosaic_service_cache_hits_total not incremented"; kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "service-smoke: mosaicd did not drain cleanly"; exit 1; }; \
	echo "service-smoke: ok"

# The chaos battery: every fault-injection, retry/degrade and quarantine
# test under the race detector, then a live mosaicd drill — every second
# kernel launch failing — that must still produce 200s and report the faults
# it absorbed on /metrics.
chaos-smoke:
	@set -e; \
	$(GO) test -race -run 'TestChaos|TestFault|TestResilient|TestDo|TestDelays|TestZeroValue' \
		./internal/cuda/ ./internal/retry/ ./internal/localsearch/ ./internal/core/ ./internal/service/; \
	tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/mosaicd ./cmd/mosaicd; \
	$$tmp/mosaicd -addr $(SERVICE_ADDR) -chaos 'every=2,err=launch' -retry-base 100us & pid=$$!; \
	up=0; \
	for i in $$(seq 1 100); do \
		if curl -fsS -o /dev/null http://$(SERVICE_ADDR)/readyz 2>/dev/null; then up=1; break; fi; \
		kill -0 $$pid 2>/dev/null || break; \
		sleep 0.1; \
	done; \
	if [ $$up -ne 1 ]; then echo "chaos-smoke: /readyz never answered 200"; kill $$pid 2>/dev/null; exit 1; fi; \
	req='{"input":"lena","target":"sailboat","size":256,"tiles":16,"algorithm":"approximation-parallel"}'; \
	curl -fsS -X POST -H 'Content-Type: application/json' -d "$$req" \
		http://$(SERVICE_ADDR)/v1/mosaic > $$tmp/storm.json || { \
		echo "chaos-smoke: job failed under the launch storm"; kill $$pid 2>/dev/null; exit 1; }; \
	grep -q '"status": "done"' $$tmp/storm.json || { \
		echo "chaos-smoke: job not done under the launch storm"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -fsS http://$(SERVICE_ADDR)/metrics | grep '^mosaic_cuda_launch_faults_total' | grep -qv ' 0$$' || { \
		echo "chaos-smoke: mosaic_cuda_launch_faults_total not incremented"; kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "chaos-smoke: mosaicd did not drain cleanly"; exit 1; }; \
	echo "chaos-smoke: ok"

# The columnar tile store's correctness gates under the race detector: the
# differential oracle battery (every builder × metric × orientation, colour
# and proxy included, against a crop-and-score oracle), the store's unit
# oracles and committed fuzz seed corpus,
# and the golden end-to-end hashes (gallery, colour, oriented, proxy, video).
tilestore-smoke:
	$(GO) test -race -run 'TestTileStore|TestFromGrid|TestFromRGB|TestScatter|TestGather|TestGlobalHistogram|TestLayout|TestMean|TestBuildStore|TestStoreContext|TestSplitRange|TestGolden|Fuzz' \
		./internal/tilestore/ ./internal/metric/ ./internal/cuda/ ./internal/core/ ./internal/video/
	@echo "tilestore-smoke: ok"

# The assignment-solver quality gate on the pinned comparison instance
# (lena → sailboat at 512 px, 64×64 tiles, S = 4096): both certified
# approximate solvers (auction-device, sinkhorn) must beat the exact JV
# baseline's wall time while staying inside the certified 1% cost gap.
solver-smoke:
	MOSAIC_SOLVER_SMOKE=1 $(GO) test -run TestSolverSmoke -v ./internal/benchjson/
	@echo "solver-smoke: ok"

# The cluster scale-out gate: four in-process mosaicd backends behind the
# consistent-hash router must deliver ≥3x the aggregate throughput of one
# identical node on a pinned device-latency-bound workload, bit-identical to
# the single node's output; a cross-node cache peek must redirect to the node
# already holding the Prepared; killing a backend mid-load must be absorbed
# by failover with the ring rebalanced to the three survivors.
cluster-smoke:
	MOSAIC_CLUSTER_SMOKE=1 $(GO) test -run TestClusterSmoke -v ./internal/cluster/
	@echo "cluster-smoke: ok"

# The graceful-degradation battery in two legs. First the in-package overload
# tests under the race detector (anytime partial contract, predictive
# admission, deadline propagation and router shedding). Then a live drill:
# boot a small anytime mosaicd (2 workers, queue 4), warm the latency
# estimator with 8 normal requests, then require (a) a 1ms-deadline anytime
# request answers 200 with partial:true and the X-Mosaic-Partial header,
# (b) a strict 1ms-deadline request is rejected 429 with a Retry-After
# computed from live load, (c) a 20-way tight-deadline burst produces zero
# 504s — only 200s and explicit 429s — and (d) /metrics reports the partial
# and admission counters.
overload-smoke:
	@set -e; \
	$(GO) test -race -run 'TestAnytime|TestOverload|TestAdmission|TestRetryAfter|TestEstimator|TestNoAdmission|TestSerialAnytime|TestDirtyAnytime|TestParallelAnytime|TestAnnealAnytime|TestSplitBudget|TestRouterDerives|TestRouterSheds|TestRouterNoShed|TestRouterStops|TestDeadline' \
		./internal/localsearch/ ./internal/core/ ./internal/service/ ./internal/cluster/; \
	tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/mosaicd ./cmd/mosaicd; \
	$$tmp/mosaicd -addr $(SERVICE_ADDR) -anytime -workers 2 -queue 4 & pid=$$!; \
	up=0; \
	for i in $$(seq 1 100); do \
		if curl -fsS -o /dev/null http://$(SERVICE_ADDR)/readyz 2>/dev/null; then up=1; break; fi; \
		kill -0 $$pid 2>/dev/null || break; \
		sleep 0.1; \
	done; \
	if [ $$up -ne 1 ]; then echo "overload-smoke: /readyz never answered 200"; kill $$pid 2>/dev/null; exit 1; fi; \
	for scene in lena sailboat airplane peppers barbara baboon tiffany plasma; do \
		curl -fsS -o /dev/null -X POST -H 'Content-Type: application/json' \
			-d "{\"input\":\"$$scene\",\"target\":\"gradient\",\"size\":256,\"tiles\":16}" \
			http://$(SERVICE_ADDR)/v1/mosaic || { \
			echo "overload-smoke: training request ($$scene) failed"; kill $$pid 2>/dev/null; exit 1; }; \
	done; \
	curl -fsS -D $$tmp/partial.hdr -o $$tmp/partial.json -X POST \
		-H 'Content-Type: application/json' \
		-d '{"input":"lena","target":"sailboat","size":512,"tiles":32,"timeout_ms":1}' \
		http://$(SERVICE_ADDR)/v1/mosaic || { \
		echo "overload-smoke: anytime 1ms request failed outright"; kill $$pid 2>/dev/null; exit 1; }; \
	grep -qi '^x-mosaic-partial: true' $$tmp/partial.hdr || { \
		echo "overload-smoke: X-Mosaic-Partial header missing"; kill $$pid 2>/dev/null; exit 1; }; \
	grep -q '"partial": true' $$tmp/partial.json || { \
		echo "overload-smoke: partial:true missing from the body"; kill $$pid 2>/dev/null; exit 1; }; \
	strict=$$(curl -s -D $$tmp/strict.hdr -o /dev/null -w '%{http_code}' -X POST \
		-H 'Content-Type: application/json' \
		-d '{"input":"lena","target":"sailboat","size":256,"tiles":16,"timeout_ms":1,"anytime":false}' \
		http://$(SERVICE_ADDR)/v1/mosaic); \
	if [ "$$strict" != "429" ]; then \
		echo "overload-smoke: strict 1ms request answered $$strict, want 429"; kill $$pid 2>/dev/null; exit 1; fi; \
	grep -qi '^retry-after: ' $$tmp/strict.hdr || { \
		echo "overload-smoke: 429 without Retry-After"; kill $$pid 2>/dev/null; exit 1; }; \
	: > $$tmp/burst.codes; \
	cpids=""; \
	for i in $$(seq 1 20); do \
		curl -s -o /dev/null -w '%{http_code}\n' -X POST \
			-H 'Content-Type: application/json' \
			-d "{\"input\":\"peppers\",\"target\":\"plasma\",\"size\":256,\"tiles\":16,\"timeout_ms\":$$((i % 5 + 1))}" \
			http://$(SERVICE_ADDR)/v1/mosaic >> $$tmp/burst.codes & \
		cpids="$$cpids $$!"; \
	done; \
	for cp in $$cpids; do wait $$cp || true; done; \
	if grep -q '^504$$' $$tmp/burst.codes; then \
		echo "overload-smoke: 504 in the anytime burst:"; cat $$tmp/burst.codes; kill $$pid 2>/dev/null; exit 1; fi; \
	if ! grep -q '^200$$' $$tmp/burst.codes; then \
		echo "overload-smoke: no 200 in the burst:"; cat $$tmp/burst.codes; kill $$pid 2>/dev/null; exit 1; fi; \
	curl -fsS http://$(SERVICE_ADDR)/metrics > $$tmp/metrics.txt; \
	grep '^mosaic_partial_responses_total' $$tmp/metrics.txt | grep -qv ' 0$$' || { \
		echo "overload-smoke: mosaic_partial_responses_total not incremented"; kill $$pid 2>/dev/null; exit 1; }; \
	grep '^mosaic_admission_rejections_total' $$tmp/metrics.txt | grep -qv ' 0$$' || { \
		echo "overload-smoke: mosaic_admission_rejections_total not incremented"; kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "overload-smoke: mosaicd did not drain cleanly"; exit 1; }; \
	echo "overload-smoke: ok"

clean:
	$(GO) clean ./...
