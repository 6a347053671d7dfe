#!/usr/bin/env python3
"""Bench gate: schema checks, absolute acceptance bars, and the ratchet.

Usage: bench_ratchet.py BASELINE_DIR CURRENT_DIR

CURRENT_DIR holds one `<bench>.json` per entry of SCHEMAS (each bench
binary's `--json` output); BASELINE_DIR holds the previous run's copies
(restored from the CI cache). Three kinds of check run, all driven by
the tables below:

  SCHEMAS     what every artifact must contain: the `bench` /
              `schema_version` header, config keys, per-row keys, the
              thread series of each mode, and the rows of each named
              series.
  RATCHETS    per-point regression floors against the baseline: a
              metric, the row fields that identify a point, and a
              tolerance (a floor for higher-is-better metrics, a ceiling
              for lower-is-better ones). Modelled benches get 5 %;
              wall-clock benches get 10 %.
  SCALING     real-thread scaling bars, gated on the artifact's
              `host_cores` (std::thread::available_parallelism): on a
              host with enough cores the widest thread count must reach
              the bar over one thread; on a starved host (CI containers
              are often pinned to one or two cores, where real speedup is
              impossible) the bar degrades to a no-collapse floor, so a
              lock convoy still fails without pretending a small host can
              show speedup.

plus a handful of absolute acceptance bars that need no baseline (see
the `check_*` functions): fig2b's S=4 device shards must reach 1.5x the
unsharded device at 32 threads; ablation_overlap's free-running series
keeps inline persist steps within 2x the snoop sweep; the tenants
noisy-neighbor victim keeps >= 70 % of its solo throughput; the snoop
filter cuts persist snoops/op at least 2x; buffered-epoch (K=4) sustains
>= 1.3x strict ops/kstep; allocbench's adversarial carpet leaves partial
trees, its churn over the carpet keeps >= 0.3 Mops, and its attach-time
recovery scan stays linear (scan_steps <= 2x pool_frames).

A missing baseline file seeds the ratchet (exit 0); the workflow then
saves CURRENT_DIR as the next run's baseline.
"""

import json
import sys
from pathlib import Path

THREAD_ROW = ("threads", "mode", "mops", "scaling_vs_1")

SCHEMAS = {
    "fig2b": {"rows": ("threads", "backend", "shards", "mops")},
    "ablation_epoch": {"rows": ("ops_per_persist", "snoops_per_op", "peak_log_entries")},
    "ablation_overlap": {},
    "fig2b_measured": {
        "config": ("shards", "ops_per_thread", "host_cores"),
        "rows": ("threads", "shards", "mops", "scaling_vs_1"),
        "threads": {None: [1, 2, 4, 8]},
    },
    "logappend": {
        "config": ("ops_per_thread", "host_cores"),
        "rows": THREAD_ROW,
        "threads": {"cas": [1, 2, 4]},
    },
    "hbmstore": {
        "config": ("ops_per_thread", "lines", "host_cores"),
        "rows": THREAD_ROW,
        "threads": {"lockfree": [1, 2, 4]},
    },
    "allocbench": {
        "config": ("ops_per_thread", "host_cores", "pool_bytes"),
        "rows": THREAD_ROW,
        "threads": {"bitmap": [1, 2, 4], "heap": [1]},
        "series": {
            "recovery": (3, ("pool_bytes", "pool_frames", "live_frames", "scan_steps", "scan_ns")),
            "fragment": (1, ("ops", "mops", "frag_permille_peak", "frag_permille_end",
                             "tree_steals", "scan_frames", "hint_misses")),
        },
    },
    "tenants": {
        "series": {
            s: (1, ("victim_ops", "victim_steps", "victim_ops_per_kstep"))
            for s in ("solo", "noisy")
        },
    },
    "snoopfilter": {
        "series": {
            s: (1, ("ops", "snoops_sent", "snoops_per_op", "dir_filtered_snoops",
                    "wb_batches", "ops_per_kstep"))
            for s in ("filtered", "unfiltered")
        },
    },
    "persistency": {
        "series": {
            s: (1, ("ops", "steps", "ops_per_kstep", "persists", "persists_per_op",
                    "modeled_close_ns"))
            for s in ("strict", "epoch", "buffered2", "buffered4")
        },
    },
}

# bench -> [(point fields, metric, tolerance, higher_is_better)]
RATCHETS = {
    "fig2b": [(("threads", "backend"), "mops", 0.95, True)],
    "ablation_epoch": [(("ops_per_persist",), "snoops_per_op", 1.05, False)],
    "ablation_overlap": [(("epoch_lines",), "inline_reduction", 0.95, True)],
    "tenants": [(("series",), "victim_ops_per_kstep", 0.95, True)],
    "snoopfilter": [
        (("series",), "ops_per_kstep", 0.95, True),
        (("series",), "snoops_per_op", 1.05, False),
    ],
    "fig2b_measured": [(("threads",), "mops", 0.90, True)],
    "logappend": [(("threads", "mode"), "mops", 0.90, True)],
    "persistency": [(("series",), "ops_per_kstep", 0.90, True)],
    "allocbench": [
        (("threads", "mode"), "mops", 0.90, True),
        (("series",), "mops", 0.90, True),
    ],
    "hbmstore": [(("threads", "mode"), "mops", 0.90, True)],
}

# bench -> (mode whose rows scale or None for all rows, cores needed to
# arm the bar, scaling bar, no-collapse floor)
SCALING = {
    "fig2b_measured": (None, 8, 1.5, 0.35),
    "logappend": ("cas", 4, 1.3, 0.15),
    "hbmstore": ("lockfree", 4, 1.3, 0.15),
    "allocbench": ("bitmap", 4, 1.3, 0.15),
}


def load(path: Path):
    if not path.exists():
        return None
    with path.open() as f:
        return json.load(f)


def check_schema(bench, doc, failures):
    spec = SCHEMAS[bench]
    if doc.get("bench") != bench or doc.get("schema_version") != 1:
        failures.append(f"{bench}: bad header (bench/schema_version)")
        return
    for key in spec.get("config", ()):
        if key not in doc.get("config", {}):
            failures.append(f"{bench}: config missing {key!r}")
    rows = doc["results"]
    # Per-row keys bind every row outside a named series.
    plain = [r for r in rows if "series" not in r]
    for key in spec.get("rows", ()):
        if not all(key in r for r in plain):
            failures.append(f"{bench}: rows missing {key!r}")
    for mode, want in spec.get("threads", {}).items():
        got = [r.get("threads") for r in plain if mode is None or r.get("mode") == mode]
        if got != want:
            failures.append(f"{bench}: {mode or 'thread'} series {got}, want {want}")
    for series, (count, keys) in spec.get("series", {}).items():
        got = [r for r in rows if r.get("series") == series]
        if len(got) != count:
            failures.append(f"{bench}: {len(got)} {series!r} rows, want {count}")
        for key in keys:
            if not all(key in r for r in got):
                failures.append(f"{bench}: {series!r} rows missing {key!r}")


def points(doc, fields, metric):
    """Maps each row carrying `metric` and every field to its value,
    keyed by those fields plus the row's series."""
    return {
        tuple(r[f] for f in fields) + (r.get("series"),): r[metric]
        for r in doc["results"]
        if metric in r and all(f in r for f in fields)
    }


def ratchet(bench, baseline, current, failures):
    for fields, metric, tol, higher in RATCHETS[bench]:
        base = points(baseline, fields, metric)
        for key, value in points(current, fields, metric).items():
            if key not in base:
                continue  # new points seed on their first appearance
            bound = tol * base[key]
            if (value < bound) if higher else (value > bound):
                failures.append(
                    f"{bench} {key}: {metric} {value:.3f} "
                    f"{'<' if higher else '>'} {tol}x baseline {base[key]:.3f}"
                )


def check_scaling(bench, doc, failures):
    mode, cores_needed, bar, floor = SCALING[bench]
    host_cores = doc.get("config", {}).get("host_cores", 1)
    rows = [
        r for r in doc["results"]
        if "scaling_vs_1" in r and (mode is None or r.get("mode") == mode)
    ]
    if not rows:
        failures.append(f"{bench}: no {mode or 'thread'} scaling rows")
        return
    top = max(rows, key=lambda r: r["threads"])
    scaling = top["scaling_vs_1"]
    need = bar if host_cores >= cores_needed else floor
    what = "scaling bar" if host_cores >= cores_needed else "no-collapse floor"
    series = f"{mode} " if mode else ""
    line = (f"{bench}: {series}{top['threads']}-thread scaling {scaling:.2f}x "
            f"vs {what} {need}x (host_cores={host_cores})")
    if scaling < need:
        failures.append(line)
    else:
        print(f"ok  {line}")


def by_series(doc):
    return {r["series"]: r for r in doc["results"] if "series" in r}


def check_bar(failures, ok, line):
    if ok:
        print(f"ok  {line}")
    else:
        failures.append(line)


def check_fig2b(doc, failures):
    mops = {(r["threads"], r["backend"]): r["mops"] for r in doc["results"]}
    s1, s4 = mops.get((32, "PAX (CXL)")), mops.get((32, "PAX (CXL) S=4"))
    if s1 is None or s4 is None:
        failures.append("fig2b: 32-thread PAX (CXL) S=1/S=4 rows missing")
        return
    check_bar(failures, s4 >= 1.5 * s1,
              f"fig2b: S=4 {s4:.2f} vs 1.5x S=1 {s1:.2f} Mops at 32 threads")


def check_ablation_overlap(doc, failures):
    rows = [r for r in doc["results"] if r.get("series") == "free_running"]
    if not rows:
        failures.append("ablation_overlap: free_running series missing")
        return
    top = max(rows, key=lambda r: r["tick_budget"])
    bar = 2.0 * max(top["snoop_sweep_steps"], 1)
    check_bar(failures, top["inline_steps"] <= bar,
              f"ablation_overlap free_running: inline_steps {top['inline_steps']} "
              f"vs 2x snoop sweep {bar:.0f} at tick_budget {top['tick_budget']}")


def check_tenants(doc, failures):
    ratio = by_series(doc).get("isolation", {}).get("victim_ratio")
    if ratio is None:
        failures.append("tenants: isolation series missing")
        return
    check_bar(failures, ratio >= 0.70,
              f"tenants isolation: victim_ratio {ratio:.3f} vs 0.70 floor")


def check_snoopfilter(doc, failures):
    s = by_series(doc)
    filtered, unfiltered = s["filtered"]["snoops_per_op"], s["unfiltered"]["snoops_per_op"]
    check_bar(failures, filtered <= 0.5 * unfiltered,
              f"snoopfilter: filtered {filtered:.3f} vs 0.5x unfiltered "
              f"{unfiltered:.3f} snoops/op")


def check_persistency(doc, failures):
    s = by_series(doc)
    strict, buffered = s["strict"]["ops_per_kstep"], s["buffered4"]["ops_per_kstep"]
    check_bar(failures, buffered >= 1.3 * strict,
              f"persistency: buffered4 {buffered:.1f} vs 1.3x strict {strict:.1f} ops/kstep")


def check_allocbench(doc, failures):
    s = by_series(doc)
    peak, mops = s["fragment"]["frag_permille_peak"], s["fragment"]["mops"]
    check_bar(failures, peak > 0,
              f"allocbench fragment: frag_permille_peak {peak} (carpet must leave partial trees)")
    check_bar(failures, mops >= 0.3, f"allocbench fragment: {mops:.3f} Mops vs 0.3 floor")
    for r in doc["results"]:
        if r.get("series") == "recovery":
            check_bar(failures, r["scan_steps"] <= 2 * r["pool_frames"],
                      f"allocbench recovery at {r['pool_bytes']} bytes: scan_steps "
                      f"{r['scan_steps']} vs 2 x {r['pool_frames']} pool_frames")


ACCEPTANCE = {
    "fig2b": check_fig2b,
    "ablation_overlap": check_ablation_overlap,
    "tenants": check_tenants,
    "snoopfilter": check_snoopfilter,
    "persistency": check_persistency,
    "allocbench": check_allocbench,
}


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    baseline_dir, current_dir = Path(sys.argv[1]), Path(sys.argv[2])

    failures = []
    for bench in SCHEMAS:
        name = f"{bench}.json"
        current = load(current_dir / name)
        if current is None:
            failures.append(f"current {name} missing")
            continue
        before = len(failures)
        check_schema(bench, current, failures)
        if len(failures) > before:
            continue  # the remaining checks assume the schema
        if bench in ACCEPTANCE:
            ACCEPTANCE[bench](current, failures)
        if bench in SCALING:
            check_scaling(bench, current, failures)
        if bench not in RATCHETS:
            continue
        baseline = load(baseline_dir / name)
        if baseline is None:
            print(f"{name}: no baseline, seeding the ratchet")
            continue
        before = len(failures)
        ratchet(bench, baseline, current, failures)
        if len(failures) == before:
            print(f"{name}: within tolerance of baseline")

    if failures:
        print("\nBENCH RATCHET FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nbench ratchet passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
