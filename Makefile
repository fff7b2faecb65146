# The gate, defined once: every step of .github/workflows/ci.yml after
# checkout, toolchain and cache is one target here, and `make ci` runs
# exactly those targets, the test job's and then the repro job's. (CI
# also pins QNLG_THREADS=2; no result depends on it.) Every assertion on
# results lives in Rust: the experiments' own checks (`repro-quick`),
# the `check-artifacts` validator and tier-1 (`test`).

CARGO ?= cargo

# `perf-diff` and `trace-quick` read or rewrite what `repro-quick` left
# in artifacts/, so targets run in the order given.
.NOTPARALLEL:

.PHONY: ci fmt-check build test test-release clippy doc perfbench-build examples repro-quick trace-quick perf-diff test-stat test-topology test-serve serve-soak

ci: fmt-check build test test-release clippy doc perfbench-build test-stat examples repro-quick perf-diff trace-quick

fmt-check:
	$(CARGO) fmt --all -- --check

build:
	$(CARGO) build --release

# Every workspace member (root `default-members`); a hang fails after
# 20 minutes instead of wedging the run.
test:
	timeout 1200 $(CARGO) test -q

# The plane, serve, pool and load-balance crates again in release:
# optimised builds change thread timing (a shared-obs race between serve
# tests showed up only there), and the pool's claim loop and the wait
# reservoir run at full speed. The 16 quick-payload digests run in
# release too, the build the benchmark times.
test-release:
	timeout 1200 $(CARGO) test --release -q -p qnet -p qnlg-serve -p qnlg-runtime -p loadbalance
	timeout 1200 $(CARGO) test --release -q -p qnlg-bench --test determinism

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# The API docs build without a warning: no broken, private or
# ambiguous intra-doc link.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

# The benchmark harness is its own workspace; it must keep building.
perfbench-build:
	$(CARGO) build --release --manifest-path perfbench/Cargo.toml

# The five README examples, in release. Each asserts its headline result,
# so a broken example exits non-zero.
examples:
	$(CARGO) run -q --release --example quickstart
	$(CARGO) run -q --release --example serverless_colocation
	$(CARGO) run -q --release --example gpu_sm_scheduling
	$(CARGO) run -q --release --example ecmp_probe
	$(CARGO) run -q --release --example metro_calibration

# The qnlg-serve battery: SPSC ring property tests, the zero-alloc
# counting-allocator gate, the in-process + Unix-socket service tests,
# the E11 experiment's own checks, and the BENCH_serve.json
# determinism arm.
test-serve:
	$(CARGO) test -p qnlg-serve
	$(CARGO) test -p qnlg-bench --lib serve
	$(CARGO) test -p qnlg-bench --test determinism serve

# Open-ended wall-clock soak of the serve hot path (Ctrl-C to stop;
# finishes the current round, then writes the artifact with the
# measured decisions/sec and latency percentiles).
serve-soak:
	$(CARGO) run --release -p qnlg-bench --bin repro -- serve --soak --json --out artifacts/

# Quick-budget chaos run with the event timeline on: writes
# artifacts/TRACE_fig4-faults.json (Chrome trace_event — load in
# Perfetto or chrome://tracing) next to the BENCH artifact, for CI to
# upload. Each recording thread's ring keeps only its last 65 536
# events, so the file holds about 5 % of the run's events: the tail of
# each worker. The dropped count is on the `trace:` stderr line and in
# the file's otherData.dropped_events. Tier-1 checks the trace's pair
# lifecycle on the raw log.
trace-quick:
	$(CARGO) run --release -p qnlg-bench --bin repro -- fig4-faults --quick --trace --out artifacts/

# Perf-regression gate: the quick artifacts `repro-quick` wrote vs the
# checked-in full-budget ones. Budgets differ, so elapsed time is skipped
# and every per-unit-of-work metric is compared; 5x absorbs
# machine-to-machine noise while still catching order-of-magnitude
# collapses. A metric the checked-in artifact has and the new one lacks
# fails.
perf-diff:
	$(CARGO) run --release -p qnlg-bench --bin repro -- perf-diff . artifacts/ --tolerance 5.0

# Statistical acceptance tests with their sample-size/confidence
# accounting printed (every stochastic assertion states its n and
# confidence via qmath::assert_prob_in! — no bare magic tolerances).
test-stat:
	$(CARGO) test -p games --test stat_acceptance -- --nocapture
	$(CARGO) test -p qnet --test stat_acceptance -- --nocapture
	$(CARGO) test -p qnet --test topology_stat -- --nocapture

# The metro-topology battery: property tests (chain monotonicity,
# downed-edge avoidance, exact budget conservation, relabeling
# invariance), the chain CHSH statistical pins, the E10 experiment's own
# checks, and the BENCH_topology.json determinism arm.
test-topology:
	$(CARGO) test -p qnet --test topology_props --test topology_stat
	$(CARGO) test -p qnlg-bench --lib topology
	$(CARGO) test -p qnlg-bench --test determinism topology

# CI-budget reproduction of every experiment, with JSON-lines artifacts
# in artifacts/. Fails if any acceptance check fails, or if
# `check-artifacts` rejects an artifact: schema, positive perf metrics
# and elapsed time, and the decision p99 under its 20 us cliff guard.
repro-quick:
	$(CARGO) run --release -p qnlg-bench --bin repro -- all --quick --json --out artifacts/
	$(CARGO) run --release -p qnlg-bench --bin repro -- check-artifacts artifacts/
