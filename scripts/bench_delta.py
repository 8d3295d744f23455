#!/usr/bin/env python3
"""Bench-delta regression gate: fresh BENCH_*.json vs committed baselines.

Compares every artifact in --fresh against the file of the same name in
--baselines and prints a per-metric delta table. Three headline metrics are
gated; the rest of the shared top-level numeric fields are informational:

  requests_per_second   higher is better   fails on a >10% drop
  probes_per_request    lower is better    fails on a >10% rise
  latency_p99_us        lower is better    fails on a >15% rise

probes_per_request is derived on both sides as probes_per_second /
requests_per_second, so committed baselines need no new field. Gating
probes_per_second itself would read a change that spends fewer probes per
request as a regression; it is reported as information only.

Exit status is non-zero iff any gated metric regressed past its tolerance,
so `scripts/check.sh` can use the script directly as a gate while
`scripts/run_all.sh` appends `|| true` to keep full-scale runs advisory
(full-scale numbers are only comparable when the machine is quiet; see
README "Bench-delta gate").

Baselines live in `bench/baselines/` (full-scale) and
`bench/baselines/smoke/` (the scaled-down flags bench_smoke in check.sh
uses). Refresh procedure is documented in the README; in short: run the
matching bench flags on an otherwise idle machine and copy the artifact over
the committed one in the same commit as the change that moved the numbers.

Stdlib only — no third-party imports.
"""

import argparse
import json
import math
import os
import sys

# metric -> (direction, tolerance). direction "higher": regress when the
# fresh value drops below baseline*(1-tol); "lower": regress when it rises
# above baseline*(1+tol).
GATED = {
    "requests_per_second": ("higher", 0.10),
    "probes_per_request": ("lower", 0.10),
    "latency_p99_us": ("lower", 0.15),
}

# Informational fields worth a table row when both sides have them, in
# display order. Anything else numeric and shared is appended alphabetically.
PREFERRED_INFO = [
    "probes_per_second",
    "single_worker_requests_per_second",
    "single_worker_probes_per_second",
    "latency_p50_us",
    "speedup_at_4_workers",
    "effective_per_second",
    "revtrs_per_day",
    "speedup",
    "benchmark_count",
    "peak_rss_bytes",
]


def numeric_fields(doc):
    """Top-level scalar numeric fields (bools excluded), plus the derived
    probes_per_request where the artifact reports both rates."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)) and math.isfinite(value):
            out[key] = float(value)
    rps = out.get("requests_per_second")
    if "probes_per_second" in out and rps:
        out["probes_per_request"] = out["probes_per_second"] / rps
    return out


def pct_delta(base, fresh):
    if base == 0.0:
        return None
    return (fresh - base) / base * 100.0


def fmt_value(value):
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.2f}"


def compare_artifact(name, base_doc, fresh_doc, table):
    """Append rows for one artifact; return list of regression strings."""
    base = numeric_fields(base_doc)
    fresh = numeric_fields(fresh_doc)
    shared = set(base) & set(fresh)
    ordered = [m for m in GATED if m in shared]
    ordered += [m for m in PREFERRED_INFO if m in shared]
    ordered += sorted(shared - set(ordered))

    regressions = []
    for metric in ordered:
        delta = pct_delta(base[metric], fresh[metric])
        status = "info"
        if metric in GATED:
            direction, tol = GATED[metric]
            status = "ok"
            if delta is None:
                status = "n/a (zero baseline)"
            elif direction == "higher":
                if fresh[metric] < base[metric] * (1.0 - tol):
                    status = "REGRESSION"
                elif fresh[metric] > base[metric] * (1.0 + tol):
                    status = "improved"
            else:
                if fresh[metric] > base[metric] * (1.0 + tol):
                    status = "REGRESSION"
                elif fresh[metric] < base[metric] * (1.0 - tol):
                    status = "improved"
            if status == "REGRESSION":
                regressions.append(
                    f"{name}: {metric} {fmt_value(base[metric])} -> "
                    f"{fmt_value(fresh[metric])} ({delta:+.1f}%, tolerance "
                    f"{'-' if direction == 'higher' else '+'}{tol:.0%})"
                )
        table.append(
            (
                name,
                metric,
                fmt_value(base[metric]),
                fmt_value(fresh[metric]),
                "n/a" if delta is None else f"{delta:+.1f}%",
                status,
            )
        )
    return regressions


def trajectory_line(name, base_doc, fresh_doc):
    base = numeric_fields(base_doc)
    fresh = numeric_fields(fresh_doc)
    for metric in list(GATED) + PREFERRED_INFO:
        if metric in base and metric in fresh:
            delta = pct_delta(base[metric], fresh[metric])
            arrow = f"{fmt_value(base[metric])} -> {fmt_value(fresh[metric])}"
            pct = "n/a" if delta is None else f"{delta:+.1f}%"
            return f"trajectory: {name} {metric} {arrow} ({pct})"
    return f"trajectory: {name} (no shared headline metric)"


def print_table(table):
    headers = ("artifact", "metric", "baseline", "fresh", "delta", "status")
    widths = [len(h) for h in headers]
    for row in table:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*headers))
    print(fmt.format(*("-" * w for w in widths)))
    for row in table:
        print(fmt.format(*row))


def main():
    parser = argparse.ArgumentParser(
        description="Compare fresh BENCH_*.json against committed baselines."
    )
    parser.add_argument(
        "--baselines", required=True, help="directory of committed baselines"
    )
    parser.add_argument(
        "--fresh", required=True, help="directory of freshly written artifacts"
    )
    parser.add_argument(
        "--trajectory",
        action="store_true",
        help="print one headline-metric trajectory line per artifact",
    )
    args = parser.parse_args()

    if not os.path.isdir(args.baselines):
        print(f"bench-delta: baseline dir missing: {args.baselines}",
              file=sys.stderr)
        return 2
    baseline_names = sorted(
        f
        for f in os.listdir(args.baselines)
        if f.startswith("BENCH_") and f.endswith(".json")
    )
    if not baseline_names:
        print(f"bench-delta: no BENCH_*.json baselines in {args.baselines}",
              file=sys.stderr)
        return 2

    table = []
    regressions = []
    trajectories = []
    compared = 0
    for name in baseline_names:
        fresh_path = os.path.join(args.fresh, name)
        if not os.path.isfile(fresh_path):
            print(f"bench-delta: {name}: skipped (no fresh artifact)")
            continue
        with open(os.path.join(args.baselines, name)) as fh:
            base_doc = json.load(fh)
        with open(fresh_path) as fh:
            fresh_doc = json.load(fh)
        regressions += compare_artifact(name, base_doc, fresh_doc, table)
        trajectories.append(trajectory_line(name, base_doc, fresh_doc))
        compared += 1

    if table:
        print_table(table)
    if args.trajectory:
        for line in trajectories:
            print(line)
    if compared == 0:
        print("bench-delta: nothing compared (no fresh artifacts)",
              file=sys.stderr)
        return 2
    if regressions:
        print(f"bench-delta: {len(regressions)} gated regression(s):",
              file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"bench-delta: ok ({compared} artifact(s), no gated regressions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
