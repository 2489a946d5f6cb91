#!/usr/bin/env python3
"""Convert the bench harness's stdout into the stable BENCH_*.json schema.

The vendored criterion shim prints one line per benchmark:

    bench <group>/<name>: <N> ns/iter (<k> iterations)

This script filters those lines down to the pinned benchmark groups and
emits a JSON document:

    {
      "schema_version": 1,
      "groups": {
        "<group>": { "<name>": <ns_per_iter>, ... },
        ...
      }
    }

Usage:
    { cargo bench -p ranksql-bench --bench operators_micro && \
      cargo bench -p ranksql-bench --bench ablation_sketch && \
      cargo bench -p ranksql-bench --bench ablation_write_path; } | \
        python3 scripts/bench_to_json.py --out BENCH.json

Pass `--groups a,b,c` to override the default pinned groups; pass several
bench outputs by concatenating them on stdin.
"""

import argparse
import json
import re
import sys

# The groups the CI regression gate tracks (keep in sync with
# .github/workflows/ci.yml and bench/baseline.json).
DEFAULT_GROUPS = [
    "prepared_vs_cold",
    "columnar_vs_row",
    "rank_join_topk",
    "ablation_sketch",
    "ablation_write_path",
    "ablation_buffer_pool",
]

LINE = re.compile(
    r"^bench\s+(?P<group>[A-Za-z0-9_]+)/(?P<name>\S+):\s+"
    r"(?P<ns>[0-9.]+)\s+ns/iter\s+\((?P<iters>\d+)\s+iterations\)"
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="-", help="output file (default stdout)")
    ap.add_argument(
        "--groups",
        default=",".join(DEFAULT_GROUPS),
        help="comma-separated benchmark groups to keep",
    )
    args = ap.parse_args()
    keep = {g.strip() for g in args.groups.split(",") if g.strip()}

    groups: dict = {}
    for line in sys.stdin:
        m = LINE.match(line.strip())
        if not m or m.group("group") not in keep:
            continue
        groups.setdefault(m.group("group"), {})[m.group("name")] = float(m.group("ns"))

    doc = {"schema_version": 1, "groups": groups}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as f:
            f.write(text)
    missing = keep - groups.keys()
    if missing:
        print(f"warning: no measurements for groups: {sorted(missing)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
