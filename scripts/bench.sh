#!/usr/bin/env bash
# Perf-trajectory driver: regenerates the machine-readable BENCH_*.json
# points. Run from anywhere.
#
# Wall-clock numbers measure *the simulator on this host*, not the
# modeled silicon. Every committed BENCH_*.json records the git revision
# and the host's parallelism (`nproc`) next to median, min and MAD wall
# times; compare ratios measured in one process, not absolute times
# across runs.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> BENCH_tiers.json (ISS and pipeline fast paths, instrumentation overhead)"
# Verifies pipeline cycle-identity before timing, then interleaves every
# variant of each tier in one process and gates the same-run ratios: the
# fast paths must be faster, and the observation record (ISS) and block
# profiling (pipeline) must cost within their bands. A gate failure exits 1 and stops the script.
cargo run --release -q -p audo-bench --bin tier_bench -- --json BENCH_tiers.json

echo "==> BENCH_experiments.json (paper experiment timings)"
cargo run --release -q -p audo-bench --bin experiments -- --json BENCH_experiments.json

echo "==> BENCH_fleet.json (fleet calibration sessions/sec)"
# 1000 derived sessions at the machine's parallelism; the deterministic
# report goes to /dev/null, only the wall-clock throughput is recorded.
cargo run --release -q -p audo-bench --bin fleet -- \
    --sessions 1000 --seed 0xA0D0 --json --bench-json BENCH_fleet.json >/dev/null

echo "==> BENCH_analyze.json (static analyzer blocks/sec)"
# Full static pipeline — CFG recovery through WCET/CSA bounds — over the
# three named workloads; images are built outside the timed region.
cargo run --release -q -p audo-bench --bin analyze -- --bench-json BENCH_analyze.json

echo "==> BENCH_fuzz.json (differential fuzz programs/sec)"
# 1000 generated programs plus the corpus, each through up to four tier
# configurations and the MCDS encode/decode check; the deterministic
# report goes to /dev/null. A divergence exits non-zero and stops the
# script — the perf artifact doubles as a long clean-run gate.
cargo run --release -q -p audo-bench --bin fuzz -- \
    --seed 0xBE9C --iterations 1000 --bench-json BENCH_fuzz.json >/dev/null

echo "bench artifacts written."
