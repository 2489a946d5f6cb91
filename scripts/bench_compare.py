#!/usr/bin/env python3
"""Compare a BENCH_*.json run against the committed baseline.

Three checks:

1. **Baseline ratios** — every benchmark shared by both documents is
   compared as `current / baseline`.  Ratios outside `1 ± tolerance` print
   a warning (advisory); a ratio above `1 + tolerance` in one of the *hard*
   groups fails the script.
2. **Presence** — a hard group that is missing or empty in the current run
   fails the script: a renamed group or a drifted output format must never
   turn the gate green by producing nothing to compare.  The same applies
   to *every* group the baseline records: a baseline group absent from the
   current run is a hard failure with a `::error` annotation (it used to
   vanish silently, because the ratio loop only walks the current run's
   groups).
3. **Within-run ratios** — machine-independent sanity of the perf claims,
   compared inside the *same run* so runner speed cancels out: the
   branch-free compare kernel `columnar_vs_row/kernel/select_f64` must
   beat the per-row branchy baseline `columnar_vs_row/row/kernel_select_f64`
   by at least `--min-kernel-speedup` (default 1.15×; the bench
   demonstrates ~2×+, so the floor leaves headroom for noisy runners).

The within-run ratio `rank_join_topk/full_drain` over `rank_join_topk/take10`
(HRJN over two rank-scans: every result of the join vs. the first ten) is
printed, not gated: the two benches are pinned in the baseline like any
other group, and the ratio is there to read a rank-aware operator's cost
following `k` off one run.

CI runners differ from the machine that recorded the baseline, so the
default tolerance is deliberately loose (±25 %, overridable with
`BENCH_GATE_TOLERANCE`) and only sustained scan regressions hard-fail.
Regenerate the baseline with `scripts/bench-json.sh bench/baseline.json`
when a deliberate performance change shifts the numbers.

Usage:
    python3 scripts/bench_compare.py bench/baseline.json BENCH.json \
        [--tolerance 0.25] [--hard-groups columnar_vs_row,ablation_sketch]
"""

import argparse
import json
import os
import sys

DEFAULT_HARD_GROUPS = [
    "columnar_vs_row",
    "ablation_sketch",
    "ablation_write_path",
]


def load_groups(path: str, role: str) -> dict:
    """Loads `{"groups": {group: {bench: ns}}}`, failing loudly on malformed
    input: a truncated upload, an empty file, or a drifted output format must
    turn the gate red, not evaporate into "nothing to compare"."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        print(f"::error title=bench gate::cannot read {role} {path}: {e}")
        raise SystemExit(1)
    except json.JSONDecodeError as e:
        print(f"::error title=bench gate::{role} {path} is not valid JSON: {e}")
        raise SystemExit(1)
    if not isinstance(doc, dict) or not isinstance(doc.get("groups"), dict):
        print(
            f"::error title=bench gate::{role} {path} has no `groups` object "
            "(drifted bench-json output format?)"
        )
        raise SystemExit(1)
    groups = doc["groups"]
    if not groups:
        print(f"::error title=bench gate::{role} {path} has an empty `groups` object")
        raise SystemExit(1)
    for group, benches in groups.items():
        if not isinstance(benches, dict) or not all(
            isinstance(ns, (int, float)) and ns > 0 for ns in benches.values()
        ):
            print(
                f"::error title=bench gate::{role} {path}: group `{group}` is not a "
                "map of bench name to positive ns/iter"
            )
            raise SystemExit(1)
    return groups


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_GATE_TOLERANCE", "0.25")),
    )
    ap.add_argument("--hard-groups", default=",".join(DEFAULT_HARD_GROUPS))
    ap.add_argument("--min-kernel-speedup", type=float, default=1.15)
    ap.add_argument("--min-write-path-speedup", type=float, default=10.0)
    args = ap.parse_args()
    hard = {g.strip() for g in args.hard_groups.split(",") if g.strip()}

    baseline = load_groups(args.baseline, "baseline")
    current = load_groups(args.current, "current run")

    failures = []
    warnings = []

    # 2. Presence: hard groups must have measurements in the current run.
    for group in sorted(hard):
        if not current.get(group):
            failures.append(
                f"hard group `{group}` produced no measurements in the current run "
                "(renamed group or drifted bench output format?)"
            )

    # 2b. Coverage: every group the baseline pins must appear in the
    # current run.  A baseline-only group used to slip through silently —
    # the ratio loop below iterates the *current* groups, so a dropped
    # [[bench]] target, a renamed group or a truncated run read as
    # "nothing regressed".  Vanishing from the measurement set is a hard
    # failure, not an advisory.
    for group in sorted(baseline):
        if not current.get(group):
            print(
                "::error title=bench gate::baseline group "
                f"`{group}` produced no measurements in the current run"
            )
            failures.append(
                f"baseline group `{group}` is missing from the current run "
                "(dropped bench target, renamed group, or truncated output?)"
            )

    # 1. Baseline ratios.
    for group, benches in sorted(current.items()):
        base_group = baseline.get(group, {})
        for name, ns in sorted(benches.items()):
            base = base_group.get(name)
            if not base:
                print(f"  new   {group}/{name}: {ns:.0f} ns/iter (no baseline)")
                continue
            ratio = ns / base
            marker = "ok    "
            if ratio > 1 + args.tolerance:
                marker = "SLOWER"
                (failures if group in hard else warnings).append(
                    f"{group}/{name}: {ratio:.2f}x of baseline ({ns:.0f} vs {base:.0f} ns)"
                )
            elif ratio < 1 - args.tolerance:
                marker = "faster"
            print(f"  {marker} {group}/{name}: {ratio:5.2f}x ({ns:.0f} vs {base:.0f} ns)")

    # 3. Within-run speedup (machine-independent).  The bench names are
    # load-bearing: if one disappears (rename, output drift) the check must
    # fail rather than silently evaporate.
    cvr = current.get("columnar_vs_row", {})
    base = cvr.get("row/kernel_select_f64")
    fast = cvr.get("kernel/select_f64")
    if base and fast:
        speedup = base / fast
        print(f"  within-run kernel/select_f64 speedup: {speedup:.2f}x")
        if speedup < args.min_kernel_speedup:
            failures.append(
                f"columnar_vs_row within-run kernel/select_f64 speedup {speedup:.2f}x "
                f"is below the {args.min_kernel_speedup:.2f}x floor"
            )
    elif cvr:
        failures.append(
            "columnar_vs_row is missing row/kernel_select_f64 or kernel/select_f64 — "
            "the within-run kernel speedup gate has nothing to compare "
            "(renamed benches?)"
        )

    # The PR-7 write-path claim, also within-run: an epoch-extending warm
    # insert must beat the invalidate-and-rebuild cliff (insert + stats +
    # columnar rebuild) by a wide margin.  The measured gap is three to
    # four orders of magnitude; the 10x default floor only catches the
    # write path collapsing back into a rebuild.
    awp = current.get("ablation_write_path", {})
    if awp:
        warm = awp.get("warm/insert")
        rebuild = awp.get("rebuild/insert")
        if warm and rebuild:
            speedup = rebuild / warm
            print(f"  within-run warm-insert vs rebuild-cliff speedup: {speedup:.1f}x")
            if speedup < args.min_write_path_speedup:
                failures.append(
                    f"ablation_write_path warm/insert is only {speedup:.2f}x faster than "
                    f"rebuild/insert (floor {args.min_write_path_speedup:.2f}x) — the "
                    "epoch write path is paying for a rebuild again"
                )
        else:
            failures.append(
                "ablation_write_path is missing warm/insert or rebuild/insert — "
                "the write-path speedup gate has nothing to compare (renamed benches?)"
            )

    # Reported, not gated: how much cheaper HRJN's first ten results are
    # than all of them, within this run.
    rjt = current.get("rank_join_topk", {})
    if rjt.get("take10") and rjt.get("full_drain"):
        ratio = rjt["full_drain"] / rjt["take10"]
        print(f"  within-run rank-join full-drain vs take(10) ratio: {ratio:.1f}x")

    for w in warnings:
        # GitHub Actions annotation; harmless noise elsewhere.
        print(f"::warning title=bench regression (advisory)::{w}")
    if failures:
        for f_ in failures:
            print(f"::error title=scan-group bench regression::{f_}")
        print(
            f"FAIL: {len(failures)} hard failure(s) (tolerance {args.tolerance:.0%})",
            file=sys.stderr,
        )
        return 1
    print(f"OK: no hard regressions ({len(warnings)} advisory warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
