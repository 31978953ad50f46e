#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the tier-1 verification the
# roadmap defines (release build + full test suite). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets --workspace -- -D warnings"
cargo clippy --all-targets --workspace -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> release binaries the gates below run: cargo build --release --workspace"
# The root package alone does not build `experiments`, `analyze`,
# `tier_bench` or `fuzz`; a fresh checkout needs them built here.
cargo build --release --workspace

echo "==> inline gate: the per-cycle #[inline(always)] leaves have no symbol in fleet"
# No build here has LTO, so a helper from another crate is inlined into
# the SoC cycle only when its crate marks it (ARCHITECTURE.md, "Inlining
# across crates"). A leaf that still has a symbol of its own in the
# release binary is being called out of line.
fleet_syms="$(nm -C target/release/fleet)"
leaves=' (audo_common::types::Cycle::(max|saturating_sub)|audo_tricore::isa::RegList::iter|audo_tricore::mem::FlatMem::locate)$'
if grep -E "$leaves" <<<"$fleet_syms"; then
    echo "an #[inline(always)] leaf is compiled out of line (see lines above)" >&2
    exit 1
fi

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests (incl. slow fault matrices): cargo test -q --workspace -- --include-ignored"
cargo test -q --workspace -- --include-ignored

echo "==> benchmark tests: cargo test --manifest-path perfbench/Cargo.toml"
# The benchmark is its own package built from the crates by path; its
# replay calls the public per-cycle API, so a signature change that
# breaks it must fail here.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> dap test-module gate: every crates/dap/src/*.rs has #[cfg(test)]"
# Coverage-tool-free stand-in for a line-coverage floor: the tool-link
# protocol sources must each carry their own unit-test module.
for f in crates/dap/src/*.rs; do
    if ! grep -q '#\[cfg(test)\]' "$f"; then
        echo "missing #[cfg(test)] module: $f" >&2
        exit 1
    fi
done

echo "==> observability gate: generate one trace export and validate it"
# The exports are timestamped in simulated cycles, so this also exercises
# the determinism contract end to end (tests/obs_determinism.rs pins the
# byte-identity; here we check the on-disk artifacts are well-formed).
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
./target/release/experiments --filter E2,E9 \
    --trace-out "$obs_dir/trace.json" \
    --metrics-out "$obs_dir/metrics.txt" \
    --flame-out "$obs_dir/flame.txt" >/dev/null
python3 - "$obs_dir" <<'EOF'
import json, sys, os
d = sys.argv[1]
trace = json.load(open(os.path.join(d, "trace.json")))
events = trace["traceEvents"]
assert events, "trace export has no events"
for e in events:
    for key in ("ph", "pid"):
        assert key in e, f"trace event missing {key!r}: {e}"
    if e["ph"] != "M":  # metadata events carry no timestamp
        assert "ts" in e, f"trace event missing 'ts': {e}"
metrics = open(os.path.join(d, "metrics.txt")).read()
assert metrics.strip(), "metrics snapshot is empty"
assert "# TYPE" in metrics, "metrics snapshot has no TYPE lines"
flame = open(os.path.join(d, "flame.txt")).read()
assert flame.strip(), "flame export is empty"
print(f"obs exports valid: {len(events)} trace events, "
      f"{len(metrics.splitlines())} metric lines, "
      f"{len(flame.splitlines())} folded stacks")
EOF

echo "==> determinism gate: no wall-clock or unordered containers in export paths"
# The observability exporters and the benchmark report/json renderers are
# contractually byte-identical across runs and machines: no wall-clock
# reads, no iteration over randomized-order containers. (Duration is a
# plain value type and stays allowed.)
det_files=(crates/obs/src/*.rs crates/bench/src/json.rs crates/bench/src/report.rs)
if grep -nE 'SystemTime|Instant::now|HashMap|HashSet' "${det_files[@]}"; then
    echo "nondeterminism source in an export path (see lines above)" >&2
    exit 1
fi
if grep -nE 'std::time::' "${det_files[@]}" | grep -v 'std::time::Duration'; then
    echo "wall-clock use in an export path (see lines above)" >&2
    exit 1
fi

echo "==> bench artifact gate: every committed BENCH_*.json has the shared schema"
# The perf artifacts are host measurements, so no value is checked here
# (tier_bench gates its own same-run ratios); this pins the one schema
# audo_bench::harness writes, without reading the clock.
python3 - <<'EOF'
import json, subprocess, sys
files = subprocess.run(["git", "ls-files", "BENCH_*.json"], check=True,
                       capture_output=True, text=True).stdout.split()
assert files, "no committed BENCH_*.json"
top = {"bench": str, "rev": str, "nproc": int, "jobs": int, "reps": int,
       "rows": list, "ratios": list}
keys = {"rows": ("name", "variant", "work", "unit", "median_ns", "min_ns",
                 "mad_ns", "per_sec"),
        "ratios": ("name", "of", "over", "median", "mad")}
bad = []
for f in files:
    doc = json.load(open(f))
    bad += [f"{f}: {k!r} missing or not {t.__name__}"
            for k, t in top.items() if not isinstance(doc.get(k), t)]
    if not doc.get("rows"):
        bad.append(f"{f}: no rows")
    for part, want in keys.items():
        for i, item in enumerate(doc.get(part) or []):
            bad += [f"{f}: {part}[{i}] missing {k!r}" for k in want if k not in item]
if bad:
    print("bench artifact schema violations:", *bad, sep="\n  ", file=sys.stderr)
    sys.exit(1)
print(f"bench artifacts valid: {', '.join(files)}")
EOF

echo "==> allow-audit gate: every #[allow(..)] carries a // reason: comment"
# Lint suppressions must say why they are sound, on the same line or the
# line directly above, so stale ones are visible in review.
python3 - <<'EOF'
import pathlib, sys
bad = []
for root in ("crates", "src", "tests", "examples"):
    for path in sorted(pathlib.Path(root).rglob("*.rs")):
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if "#[allow(" not in line:
                continue
            ok = "// reason:" in line
            # Walk up through the contiguous comment block above.
            j = i - 1
            while not ok and j >= 0 and lines[j].lstrip().startswith("//"):
                ok = "// reason:" in lines[j]
                j -= 1
            if not ok:
                bad.append(f"{path}:{i + 1}: {line.strip()}")
if bad:
    print("allow without a // reason: comment:", *bad, sep="\n  ", file=sys.stderr)
    sys.exit(1)
print("allow-audit gate passed")
EOF

echo "==> static analyzer gate: stock image clean, goldens pinned, veto live"
# The committed goldens are checked by `cargo test --test analyze_golden`
# above (refresh with GOLDEN_REGEN=1 after intentional changes);
# here we exercise the CLI surface: a clean image exits 0 and a
# deliberately divergent snapshot trips the non-zero divergence veto.
an_dir="$(mktemp -d)"
./target/release/analyze --workload engine --config tc1797 >"$an_dir/report.txt"
grep -q '0 error(s)' "$an_dir/report.txt"
cat >"$an_dir/bogus_metrics.txt" <<'EOF'
audo_soc_tricore_instructions_retired 100000
audo_soc_flash_buffer_hits 90000
audo_soc_flash_buffer_misses 9000
audo_soc_tricore_ipc 2.9
EOF
if ./target/release/analyze --workload engine:dspr-bg --config tc1767 \
    --check-against "$an_dir/bogus_metrics.txt" >/dev/null; then
    echo "analyzer failed to veto a divergent snapshot" >&2
    exit 1
fi
rm -rf "$an_dir"
echo "analyzer gate passed"

echo "==> wcet gate: corpus soundness sweep, crafted CSA overflow vetoed, fuzz check clean"
# The static WCET/CSA bounds are gated against measured execution: the
# corpus-wide soundness sweep must hold on both tiers (and the engine
# WCET golden must match; refresh with GOLDEN_REGEN=1), the crafted
# 50-deep call chain must trip the CSA-OVERFLOW veto against the
# platform's 48-frame free list, and a fuzz session holding every
# agreeing program to its static bound must come back clean at any
# worker count. `tests/wcet_soundness.rs` itself runs in the tier-1
# `cargo test -q` step and again in the `--workspace` step above.
wz_dir="$(mktemp -d)"
wc_status=0
./target/release/analyze --asm workloads/csa_overflow.s --wcet \
    >"$wz_dir/overflow.txt" || wc_status=$?
if [ "$wc_status" -ne 2 ]; then
    echo "CSA overflow image: expected exit 2, got $wc_status" >&2
    exit 1
fi
grep -q 'CSA-OVERFLOW' "$wz_dir/overflow.txt"
./target/release/analyze --asm workloads/csa_overflow.s --wcet \
    --csa-frames 64 >/dev/null
./target/release/analyze --workload engine --config tc1797 \
    --wcet --check-profile >"$wz_dir/profile.txt"
grep -q ': sound' "$wz_dir/profile.txt"
./target/release/fuzz --seed 0xF00D --iterations 64 --round 32 \
    --check-wcet --jobs 2 >"$wz_dir/j2.txt"
./target/release/fuzz --seed 0xF00D --iterations 64 --round 32 \
    --check-wcet --jobs 1 >"$wz_dir/j1.txt"
cmp "$wz_dir/j1.txt" "$wz_dir/j2.txt"
grep -q 'result: CLEAN' "$wz_dir/j1.txt"
rm -rf "$wz_dir"
echo "wcet gate passed"

echo "==> fleet gate: clean fleet exits 0, planted unit vetoed, --jobs byte-identical"
# The fleet report is a pure function of its options: a small healthy
# fleet must self-check clean inside every cohort's static envelope, the
# worker count must not leak one byte into the report, and a planted
# miscalibrated unit must trip the exit-2 divergence veto, named by seed
# and finding code (tests/fleet_determinism.rs pins the derivation).
fl_dir="$(mktemp -d)"
./target/release/fleet --sessions 48 --seed 0xA0D0 --jobs 2 --json >"$fl_dir/clean_j2.json"
./target/release/fleet --sessions 48 --seed 0xA0D0 --jobs 1 --json >"$fl_dir/clean_j1.json"
cmp "$fl_dir/clean_j2.json" "$fl_dir/clean_j1.json"
if ./target/release/fleet --sessions 12 --seed 0xA0D0 --miscalibrate 1/4 \
    --json >"$fl_dir/planted.json"; then
    echo "fleet failed to veto a planted miscalibrated unit" >&2
    exit 1
fi
grep -q 'FLEET-FLASH-RATE' "$fl_dir/planted.json"
grep -q '"seed":"0x' "$fl_dir/planted.json"
rm -rf "$fl_dir"
echo "fleet gate passed"

echo "==> fuzz gate: clean differential session, --jobs byte-identical, injected fault pinned"
# The differential fuzzer's report is a pure function of --seed and
# --iterations: the worker count must not leak one byte into stdout, a
# healthy tree must come back CLEAN over the corpus plus generated
# programs, and an injected tier fault must exit 2 with a minimized
# literate reproducer pinned (tests/fuzz_determinism.rs pins the same
# contract at the library level).
fz_dir="$(mktemp -d)"
./target/release/fuzz --seed 0xF00D --iterations 64 --round 32 --jobs 2 >"$fz_dir/j2.txt"
./target/release/fuzz --seed 0xF00D --iterations 64 --round 32 --jobs 1 >"$fz_dir/j1.txt"
cmp "$fz_dir/j1.txt" "$fz_dir/j2.txt"
grep -q 'result: CLEAN' "$fz_dir/j1.txt"
fz_status=0
./target/release/fuzz --seed 0xF00D --iterations 24 --round 8 \
    --inject-fault mul --pin-dir "$fz_dir/pins" >"$fz_dir/fault.txt" || fz_status=$?
if [ "$fz_status" -ne 2 ]; then
    echo "injected fault: expected exit 2 (divergence), got $fz_status" >&2
    exit 1
fi
grep -q 'result: DIVERGED' "$fz_dir/fault.txt"
grep -q 'mul' "$fz_dir"/pins/*.md
rm -rf "$fz_dir"
echo "fuzz gate passed"

echo "==> profile gate: golden pinned, attribution exact, self-compare zero, --jobs byte-identical"
# The block profiler's report is a pure function of the workload and
# tier. The committed hot-block golden and the generation-bump test are
# pinned by the dedicated suite; the CLI surface must machine-check the
# cycle-attribution identity on a full workload, a self-compare must
# show all-zero deltas (parser/renderer round trip), and the worker
# count must not leak one byte into a multi-workload report.
# `tests/profile_determinism.rs` runs in the tier-1 `cargo test -q` step
# and again in the `--workspace` step above.
pf_dir="$(mktemp -d)"
./target/release/profile --workload engine --tier pipeline \
    --json "$pf_dir/engine.json" >"$pf_dir/report.txt"
grep -q '(exact)' "$pf_dir/report.txt"
grep -q 'hot blocks:' "$pf_dir/report.txt"
./target/release/profile --compare "$pf_dir/engine.json" "$pf_dir/engine.json" \
    >"$pf_dir/self.txt"
grep -q ' 0 of .* blocks differ' "$pf_dir/self.txt"
./target/release/profile --workload engine,transmission,chassis --jobs 4 >"$pf_dir/j4.txt"
./target/release/profile --workload engine,transmission,chassis --jobs 1 >"$pf_dir/j1.txt"
cmp "$pf_dir/j4.txt" "$pf_dir/j1.txt"
rm -rf "$pf_dir"
echo "profile gate passed"

echo "==> missing-docs gate: operator-surface crates deny undocumented items"
# The documented operator surface (observability, static analysis, fleet
# service) must carry #![warn(missing_docs)]; the rustdoc gate below turns
# those warnings into errors.
for f in crates/common crates/mcds crates/obs crates/analyze crates/fleet \
         crates/asm crates/fuzz; do
    if ! grep -q '^#!\[warn(missing_docs)\]' "$f/src/lib.rs"; then
        echo "missing #![warn(missing_docs)]: $f/src/lib.rs" >&2
        exit 1
    fi
done
# The profile data model rides inside audo-obs (covered above); the
# WCET analyzer modules and the operator-facing CLI binaries must at
# least open with module docs.
for f in crates/obs/src/profile.rs crates/bench/src/bin/profile.rs \
         crates/analyze/src/wcet.rs crates/analyze/src/loopbound.rs \
         crates/analyze/src/cfg.rs crates/analyze/src/constprop.rs \
         crates/bench/src/bin/analyze.rs; do
    if ! head -1 "$f" | grep -q '^//!'; then
        echo "missing module docs (//!): $f" >&2
        exit 1
    fi
done
echo "missing-docs gate passed"

echo "==> vendor gate: every vendored stand-in is used outside vendor/"
# A stand-in that no non-vendor workspace crate depends on, directly or
# through another stand-in, is dead weight: fail, so it is deleted with
# its last user instead of lingering.
cargo metadata --offline --no-deps --format-version 1 | python3 -c '
import json, sys
pkgs = json.load(sys.stdin)["packages"]
deps = {p["name"]: {d["name"] for d in p["dependencies"]} for p in pkgs}
vendored = {p["name"] for p in pkgs if "/vendor/" in p["manifest_path"]}
used = set().union(*(deps[n] for n in deps if n not in vendored))
frontier = used & vendored
while frontier:
    frontier = set().union(*(deps[n] for n in frontier)) - used
    used |= frontier
unused = sorted(vendored - used)
if unused:
    sys.exit(f"vendored crates nothing outside vendor/ uses: {unused}")
print(f"vendor gate passed: {sorted(vendored)}")
'

echo "==> rustdoc gate: cargo doc --no-deps (warnings are errors)"
# Vendored dependency stand-ins (vendor/*) are workspace members but not
# ours to document; gate only the audo crates.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude serde --exclude serde_derive --exclude proptest \
    --exclude rand

echo "CI green."
