#!/usr/bin/env python3
"""Gate CI on normalized benchmark regressions (BENCH_*.json).

Compares a freshly measured Google-Benchmark JSON file against the committed
baseline (BENCH_solver.json at the repo root). Raw wall-clock is meaningless
across runner generations, so every sweep time is first normalized by the
run's own BM_LuFactorSolve time — a pure-compute proxy for machine speed
measured in the same process — and the *normalized ratios* are compared.

All engine sweeps gate the build. The dense-engine sweeps use the tight
default threshold (20%): they have no warm-start or session state, so their
normalized time is stable run-to-run. The revised/session sweeps gate at a
looser per-prefix threshold (35% by default via `PREFIX=0.35` syntax):
they carry lane-chain, refactorization-cadence, and fallback variance,
but a Forrest–Tomlin or pricing regression still moves them far past that
band, so leaving them report-only would let the update path rot silently.
The Eq. 21 baseline rows (BM_BaselineAssign, a session sweep plus one
dense re-solve) gate at the same 35%.

A gated bench present in the baseline but missing from the current run is
a failure unless --allow-missing is passed. The committed baseline includes
nightly-only sizes (1000/1500 nodes, registered only when
TAPO_BENCH_MAX_NODES allows), so the perf-smoke job passes --allow-missing
while the nightly job, which runs every size, does not.

Besides the baseline-relative thresholds, --require-speedup SLOW FAST RATIO
asserts that bench FAST beats bench SLOW by at least RATIO within the
*current* run alone — both sides come from the same process on the same
machine, so no normalization is involved. The solver defaults are two
floors on the coarse-to-fine rows, revised session vs dense tableau:
  * 1500 nodes, >= 1.5x: the production-scale crossover the revised engine
    exists to deliver (measured ~2.3x; SOLVER.md §6b). The row is
    nightly-only, so perf-smoke skips it via --allow-missing while
    perf-nightly enforces it.
  * 500 nodes, >= 0.9x: runs in perf-smoke and catches a session sweep that
    stopped staying resident, on any host.
Defaults apply only to the solver gate (they are dropped when
--gated-prefix redirects the machinery at another binary); --allow-missing
skips a required speedup whose rows are absent from the current run.

Exit status 0 when every gated bench is within its threshold and every
required speedup holds, 1 otherwise. Stdlib only.

The defaults reproduce the solver gate. --proxy-prefix / --gated-prefix /
--reported-prefix redirect the same machinery at other bench binaries; the
scheduler gate normalizes BM_RouteIndexed by the same-run BM_RouteScan, which
turns the check into a speedup-ratio gate (an indexed-path regression moves
the ratio even on a differently-provisioned runner).

Usage: scripts/check_perf_regression.py CURRENT.json [BASELINE.json]
       [--threshold 0.20] [--allow-missing] [--proxy-prefix P]
       [--gated-prefix P[=THRESHOLD] ...] [--reported-prefix P ...]
       [--require-speedup SLOW FAST RATIO ...]
"""
import argparse
import json
import pathlib
import sys

# Solver-gate defaults; overridable from the command line.
# Machine-speed proxy: mean of the LU factor+solve micro-bench sizes.
DEFAULT_PROXY_PREFIX = "BM_LuFactorSolve/"
# Benches that gate the build. A bare prefix gates at --threshold; a
# "prefix=0.35" entry carries its own threshold (the revised/session sweeps
# tolerate more run-to-run variance than the stateless dense ones). First
# match wins. The baseline rows sweep on per-lane sessions too, so they
# share the session band.
DEFAULT_GATED_PREFIXES = (
    "BM_Stage1SweepDense/",
    "BM_Stage1CoarseToFineDense/",
    "BM_Stage1SweepRevised=0.35",
    "BM_Stage1CoarseToFineRevised=0.35",
    "BM_BaselineAssign/=0.35",
)
# Reported (not gated) for the CI log.
DEFAULT_REPORTED_PREFIXES = ()
# Same-run speedup floors: (slow bench, fast bench, min ratio). The solver
# crossover gate — the revised session must keep beating the dense tableau
# on the production-scale (1500-node, 30-CRAC) coarse-to-fine search. The
# row is nightly-only; perf-smoke skips it through --allow-missing. The
# 500-node floor runs in perf-smoke and gates the resident session sweep
# whatever the host's speed: it sits below the lowest ratio measured on a
# healthy build (1.15x over 6 Release runs) and above every run of a build
# that rebuilds the session at each grid point (0.41-0.60x).
DEFAULT_REQUIRED_SPEEDUPS = (
    (
        "BM_Stage1CoarseToFineDense/nodes:1500/real_time",
        "BM_Stage1CoarseToFineRevisedSession/nodes:1500/real_time",
        1.5,
    ),
    (
        "BM_Stage1CoarseToFineDense/nodes:500/real_time",
        "BM_Stage1CoarseToFineRevisedSession/nodes:500/real_time",
        0.9,
    ),
)


def parse_gated(entries, default_threshold):
    """["P", "Q=0.35"] -> [("P", default), ("Q", 0.35)]."""
    parsed = []
    for entry in entries:
        prefix, sep, threshold = entry.partition("=")
        parsed.append((prefix, float(threshold) if sep else default_threshold))
    return parsed


def load_times(path: pathlib.Path) -> dict:
    """name -> real_time (ns) for every benchmark in a GB JSON file."""
    with open(path) as f:
        data = json.load(f)
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        times[bench["name"]] = bench["real_time"] * scale
    return times


def proxy_time(times: dict, proxy_prefix: str) -> float:
    vals = [t for name, t in times.items() if name.startswith(proxy_prefix)]
    if not vals:
        sys.exit(f"error: no {proxy_prefix}* benches found for normalization")
    return sum(vals) / len(vals)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("current", type=pathlib.Path)
    parser.add_argument(
        "baseline",
        type=pathlib.Path,
        nargs="?",
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_solver.json",
    )
    parser.add_argument("--threshold", type=float, default=0.20)
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="skip (instead of fail) gated benches absent from the current "
        "run; for jobs that run a size-capped slice of the baseline",
    )
    parser.add_argument("--proxy-prefix", default=DEFAULT_PROXY_PREFIX)
    parser.add_argument(
        "--gated-prefix",
        action="append",
        default=None,
        metavar="PREFIX[=THRESHOLD]",
    )
    parser.add_argument("--reported-prefix", action="append", default=None)
    parser.add_argument(
        "--require-speedup",
        action="append",
        nargs=3,
        default=None,
        metavar=("SLOW", "FAST", "RATIO"),
        help="require current[FAST] to beat current[SLOW] by >= RATIO "
        "(same-run wall clock, no normalization); repeatable",
    )
    args = parser.parse_args()
    gated = parse_gated(
        args.gated_prefix or DEFAULT_GATED_PREFIXES, args.threshold
    )
    reported = [
        (p, None)
        for p in (args.reported_prefix or DEFAULT_REPORTED_PREFIXES)
    ]
    if args.require_speedup is not None:
        speedups = [(s, f, float(r)) for s, f, r in args.require_speedup]
    elif args.gated_prefix is None:
        # Solver-gate defaults travel together: a --gated-prefix override
        # means another binary's JSON, where the solver rows don't exist.
        speedups = list(DEFAULT_REQUIRED_SPEEDUPS)
    else:
        speedups = []

    current = load_times(args.current)
    baseline = load_times(args.baseline)
    cur_proxy = proxy_time(current, args.proxy_prefix)
    base_proxy = proxy_time(baseline, args.proxy_prefix)

    failed = []
    seen = set()
    for prefix, threshold in gated + reported:
        is_gated = threshold is not None
        for name in sorted(baseline):
            if not name.startswith(prefix) or name in seen:
                continue
            seen.add(name)
            if name not in current:
                if is_gated and not args.allow_missing:
                    failed.append(f"{name}: missing from current run")
                else:
                    print(f"[skip ] {name}: not in current run")
                continue
            base_norm = baseline[name] / base_proxy
            cur_norm = current[name] / cur_proxy
            change = cur_norm / base_norm - 1.0
            tag = "GATED" if is_gated else "info "
            verdict = ""
            if is_gated and change > threshold:
                verdict = f"  <-- REGRESSION (>{threshold:.0%})"
                failed.append(f"{name}: {change:+.1%} normalized "
                              f"(threshold {threshold:.0%})")
            print(f"[{tag}] {name}: {change:+.1%} vs baseline "
                  f"(normalized by {args.proxy_prefix.rstrip('/')}){verdict}")

    for slow, fast, ratio in speedups:
        missing = [n for n in (slow, fast) if n not in current]
        if missing:
            if args.allow_missing:
                print(f"[skip ] speedup {fast} vs {slow}: "
                      f"{', '.join(missing)} not in current run")
            else:
                failed.append(
                    f"speedup {fast} vs {slow}: missing {', '.join(missing)}")
            continue
        actual = current[slow] / current[fast]
        verdict = ""
        if actual < ratio:
            verdict = f"  <-- BELOW FLOOR (need >= {ratio:.2f}x)"
            failed.append(f"speedup {fast} vs {slow}: {actual:.2f}x "
                          f"(floor {ratio:.2f}x)")
        print(f"[GATED] speedup {fast} vs {slow}: {actual:.2f}x "
              f"(same-run){verdict}")

    if failed:
        print(f"\n{len(failed)} gated failure(s):", file=sys.stderr)
        for line in failed:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nperf gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
