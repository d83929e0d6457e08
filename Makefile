.PHONY: build test selfcheck answers bench bench-quick bench-smoke bench-kernels bench-bitsliced bench-adaptive bench-batch bench-large bench-all clean

build:
	dune build

test:
	dune runtest

# Full differential self-validation (lib/check): every estimator vs the
# exact oracle, metamorphic identities, CI calibration. ~5s. A budgeted
# 5-trial run also rides along under `dune runtest`.
selfcheck:
	dune exec bin/netrel_cli.exe -- selfcheck --trials 50 --seed 1

# The answer battery (tools/answers.sh): pro, pro-ht, adaptive pro,
# pro without the extension, both samplers, bounds and a serve session
# on karate, DBLP1 and NYC, at --jobs 1 and 2 under NETREL_FAKE_CLOCK=1,
# as text, --stats json and jsonl traces in DIR; then the same graphs
# as text files (`gen -o`): pro and MC estimates, a serve session and
# a .nrb round trip. A change that keeps every answer leaves `diff -r`
# of two builds' directories empty.
answers:
	@test -n "$(OUT)" || { echo "usage: make answers OUT=DIR" >&2; exit 2; }
	tools/answers.sh $(OUT)

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --quick

# Speedup harness on a toy graph: the quick `parallel` section (karate,
# jobs 1/2/4) with its sequential-vs-parallel bit-identity column, plus
# the self-validated BENCH_parallel.json stats emission at the repo
# root. The BENCH_<section>.json artifacts are the tracked perf
# trajectory (EXPERIMENTS.md); re-run and commit them after
# performance-relevant changes. The same invocation runs under
# `dune runtest` via bench/dune. Add BENCH_TRACE=1 to also write
# BENCH_parallel_trace.json (Chrome trace-event, Perfetto-loadable).
bench-smoke:
	dune exec bench/main.exe -- --force --only parallel --quick --json \
	  $(if $(BENCH_TRACE),--trace)

# Flat-kernel throughput vs the retained reference samplers
# (Check.Reference in lib/check; karate, jobs = 1, `= ref` bit-identity
# column), emitting the self-validated BENCH_kernels.json at the repo
# root — the tracked kernel-speedup artifact (compare its kernel-mc
# samples/s against the sampling-mc seconds in BENCH_parallel.json).
# Also runs under `dune runtest`.
bench-kernels:
	dune exec bench/main.exe -- --force --only kernels --quick --json \
	  $(if $(BENCH_TRACE),--trace)

# Bit-sliced (62 worlds per word) vs flat sampling kernel at jobs = 1,
# emitting the self-validated BENCH_bitsliced.json at the repo root —
# the tracked word-parallel speedup artifact (compare the two modes'
# sampling.kernel.samples_per_sec; every document also pins
# sampling.kernel.mode to the mode that actually ran). Also runs under
# `dune runtest`.
bench-bitsliced:
	dune exec bench/main.exe -- --force --only bitsliced --quick --json \
	  $(if $(BENCH_TRACE),--trace)

# Sequential stopping (--ci-width) vs the fixed 10k sample budget on
# karate: the three adaptive drivers report the samples the stopping
# rule actually spent, the round count and the stop reason, emitting
# the self-validated BENCH_adaptive.json at the repo root — the tracked
# sample-efficiency artifact (adaptive.samples_used vs run.samples).
# Also runs under `dune runtest`.
bench-adaptive:
	dune exec bench/main.exe -- --force --only adaptive --quick --json \
	  $(if $(BENCH_TRACE),--trace)

# The amortized multi-query engine behind `netrel batch`/`serve`: 16
# queries (4 distinct x 4 repeats) on karate served through one engine
# vs from scratch, with bit-identity asserted per answer and the cache
# counters asserted to prove the amortization, emitting the
# self-validated BENCH_batch.json at the repo root — the tracked
# per-query amortization artifact (engine vs scratch run.seconds).
# Also runs under `dune runtest`.
bench-batch:
	dune exec bench/main.exe -- --force --only batch --quick --json \
	  $(if $(BENCH_TRACE),--trace)

# Large-graph scale-out trajectory: ~10^5-edge (quick) synthetic
# graphs round-tripped through the mmap-able binary container and
# sampled straight from the packed arrays through both kernels, with
# per-kernel binary-vs-text bit-identity asserted, emitting the
# self-validated BENCH_large.json at the repo root — the tracked
# large-graph artifact (load-mmap run.seconds = mmap open + CSR build;
# mc-{flat,bitsliced} sampling.kernel.samples_per_sec = throughput;
# preprocess and pro run.seconds = the extension technique alone and a
# whole w = 1,000, s = 200 Pro(MC) estimate).
# Also runs under `dune runtest`. Drop --quick for the 10^6-edge pass.
bench-large:
	dune exec bench/main.exe -- --force --only large --quick --json \
	  $(if $(BENCH_TRACE),--trace)

# Regenerate every tracked BENCH_*.json: the seven JSON-emitting
# sections in quick mode, 3 repeats per (dataset, method) pair so
# `netrel benchdiff` gets real median/MAD noise bands, --force because
# the committed baselines already sit at the repo root. Each section
# runs in its own process, as `make bench-<section>` and the runtest
# smoke rules do, so no section is measured beside a worker domain
# that an earlier section's pool left idle. Run this (and commit the
# results) after performance-relevant changes;
# `netrel benchdiff OLD.json NEW.json` gates the comparison.
BENCH_SECTIONS = table5 parallel kernels bitsliced adaptive batch large

bench-all:
	dune build bench/main.exe
	for s in $(BENCH_SECTIONS); do \
	  dune exec bench/main.exe -- --force --repeats 3 --json --only $$s \
	    --quick $(if $(BENCH_TRACE),--trace) || exit 1; \
	done

clean:
	dune clean
