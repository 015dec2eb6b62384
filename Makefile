.PHONY: all build test lint bench-json bench-smoke compile-smoke trace-smoke \
	verify-smoke budget-smoke sanitize-smoke regress-check clean

all: build test

build:
	dune build

test:
	dune runtest

# Machine-readable micro-benchmark record (BENCH_micro.json in the working
# directory): name -> ns/run plus domains used, trajectories/sec and the
# observability overhead measurement. Each run also appends the record to
# BENCH_history.jsonl (timestamped) so the trend is kept. Honors
# WALTZ_DOMAINS, e.g. `WALTZ_DOMAINS=4 make bench-json`.
bench-json:
	dune exec bench/main.exe -- micro

# Fast correctness gate over the benchmark kernels: every planned gate's
# specialized kernel must agree with the generic path, and a tiny simulate
# must be bit-identical at 1 and 2 domains. Also runs as part of `make lint`.
# Finishes with the regression gate's self-check against the committed
# baseline.
bench-smoke: regress-check
	dune exec bench/main.exe -- smoke

# Compile determinism gate (also inside `make lint`): the program cache
# (miss and hit paths) and the parallel portfolio (compile_all) must be
# byte-identical to a fresh serial compile over the benchmark families x
# sizes x fig7 strategies, under the canonical hex-float serialization.
compile-smoke:
	dune exec bench/main.exe -- compile-smoke

# Regression gate (also inside `make lint`): compare a bench record against
# the committed baseline. By default both sides are BENCH_micro.json (a
# plumbing self-check); after `make bench-json` run e.g.
#   dune exec bin/waltz_cli.exe -- report --baseline BENCH_micro.json.orig
# to judge the fresh record. Exits 1 when a metric moved past its threshold.
regress-check:
	dune exec bin/waltz_cli.exe -- report --baseline BENCH_micro.json \
	  --current BENCH_micro.json

# Type-check everything (@check), run the static checker over the example
# programs, the telemetry test suite and the trace/SARIF/sanitizer/verify
# smokes. waltz_verify, waltz_analysis,
# waltz_telemetry and waltz_sanitizer themselves build with warnings as
# errors.
lint:
	dune build @lint

# Concurrency-sanitizer smoke outside the dune sandbox: a clean benchmark x
# strategy grid under the race/deadlock/ownership detectors (zero findings
# expected), the seeded-race fixture suite (each must flag exactly its
# rule), and a fuzzed run of the pool's seat protocol. Also runs inside
# `make lint` via the @lint alias.
sanitize-smoke:
	dune exec bin/waltz_cli.exe -- sanitize -n 6 --trajectories 4 \
	  --format sarif -o /tmp/waltz_sanitize.sarif
	dune exec bin/waltz_cli.exe -- check /tmp/waltz_sanitize.sarif
	dune exec bin/waltz_cli.exe -- sanitize --fixtures
	dune exec bin/waltz_cli.exe -- sanitize --fuzz 40

# Telemetry smoke outside the dune sandbox: simulate with --stats and
# --trace, then validate the Chrome trace_event file it wrote.
trace-smoke:
	dune exec bin/waltz_cli.exe -- simulate -c cuccaro -n 5 --trajectories 5 \
	  --trace /tmp/waltz_trace.json --stats
	dune exec bin/waltz_cli.exe -- check /tmp/waltz_trace.json

# Verify smoke outside the dune sandbox: compile + run every checker pass,
# emit SARIF, then validate it with the built-in schema checker.
verify-smoke:
	dune exec bin/waltz_cli.exe -- verify -c cuccaro -n 6 -s mr-ccz \
	  --format sarif -o /tmp/waltz_verify.sarif
	dune exec bin/waltz_cli.exe -- check /tmp/waltz_verify.sarif
	dune exec bin/waltz_cli.exe -- verify -c cuccaro -n 6 -s full-ququart

# Resource-certification smoke (also inside `make lint` via the @lint
# alias): certify a benchmark, run it instrumented and cross-check the
# certificate against the telemetry readbacks — any RES02 divergence is an
# analysis bug and exits non-zero. Then prove the admission controller
# rejects the same job under a 1000-byte budget (RES01, exit 1).
budget-smoke:
	dune exec bin/waltz_cli.exe -- budget -c cuccaro -n 6 -s mr-ccz \
	  --trajectories 8 --batch 4 --domains 2
	! dune exec bin/waltz_cli.exe -- budget -c cuccaro -n 6 -s mr-ccz \
	  --static --limit-bytes 1000

clean:
	dune clean
