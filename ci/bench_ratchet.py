#!/usr/bin/env python3
"""Bench gate: schema checks, exact references, acceptance bars, and the ratchet.

Usage: bench_ratchet.py BASELINE_DIR CURRENT_DIR

CURRENT_DIR holds one `<bench>.json` per entry of SCHEMAS and REFERENCES
(each bench binary's `--json` output); BASELINE_DIR holds the previous
run's copies (restored from the CI cache). Four kinds of check run, all
driven by the tables below:

  SCHEMAS     what every artifact must contain: the `bench` /
              `schema_version` header, config keys, per-row keys, the
              thread series of each listed mode (allocbench lists one,
              `bitmap`, at 1, 2 and 4 threads), and the rows of each
              named series.
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

  REFERENCES  exact references for the deterministic modelled benches:
              each artifact listed must equal its committed
              ci/reference/BENCH_<bench>.json, apart from the named
              wall-clock fields. A modelled run is deterministic (the
              same build prints the same bytes), so any other difference
              is a change in what the model computes: re-record the
              reference in the change that moves it, and say why.

plus a handful of absolute acceptance bars that need no baseline (see
the `check_*` functions): fig2b's S=4 device shards must reach 1.5x the
unsharded device at 32 threads; ablation_overlap's free-running series
keeps inline persist steps within 2x the snoop sweep; the tenants
noisy-neighbor victim keeps >= 70 % of its solo throughput; the snoop
filter cuts persist snoops/op at least 2x; buffered-epoch (K=4) sustains
>= 1.3x strict ops/kstep; allocbench's adversarial carpet leaves partial
trees, its churn over the carpet keeps >= 0.3 Mops, and its attach-time
recovery scan stays linear (scan_steps <= 2x pool_frames); logappend's
undo-log recovery rolls back every entry and scans in proportion to the
entries logged (scanned <= 2x entries, growing with them); write_amp's
PAX line log stays <= 18.5x per 8 B field at one field per page;
capacity's host memory at pool creation does not follow the pool size
(a 1 GiB pool grows RSS by at most 8 MiB more than a 64 MiB one) nor
the log size (a 64 MiB log grows it by at most 1 MiB more than a 4 MiB
one: the device's volatile log ring is built as appends reach it), and
cycling the undo log twice grows no pool's RSS by more than 1 MiB over
its touched reading, whether epochs close with a synchronous persist or
a non-blocking one (every commit rewinds a log it leaves empty; the
buffered K=2 point is recorded without a bar).

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
        "series": {"recovery": (3, ("entries", "rolled_back", "scanned", "recover_us"))},
    },
    "hbmstore": {
        "config": ("ops_per_thread", "lines", "host_cores"),
        "rows": THREAD_ROW,
        "threads": {"lockfree": [1, 2, 4]},
    },
    "allocbench": {
        "config": ("ops_per_thread", "host_cores", "pool_bytes"),
        "rows": THREAD_ROW,
        "threads": {"bitmap": [1, 2, 4]},
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
    "capacity": {
        "config": ("hbm_lines",),
        "rows": ("write_set_lines", "hbm_factor", "epoch_committed", "background_writebacks",
                 "eviction_stalls"),
        "series": {
            "host_memory": (6, ("data_mib", "log_mib", "close", "touched_lines",
                                "rss_create_kib", "rss_touched_kib", "rss_cycled_kib")),
        },
    },
    "write_amp": {
        "config": ("writes",),
        "rows": ("fields_per_page", "pm_direct_amp", "pax_amp", "hybrid_amp",
                 "pmdk_wal_amp", "page_fault_amp", "page_fault_traps"),
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
    "write_amp": [(("fields_per_page",), "pax_amp", 1.05, False)],
}

# bench -> row fields measured in wall-clock time, left out of the
# comparison with the committed reference
REFERENCES = {
    "fig2a": (),
    "fig2b": (),
    "write_amp": (),
    "ycsb": (),
    "trap_overhead": (),
    "persist_cost": ("flush_host_ns_per_entry",),
}
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

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


def without(doc, fields):
    """`doc` with `fields` dropped from every result row."""
    rows = [{k: v for k, v in r.items() if k not in fields} for r in doc.get("results", [])]
    return {**doc, "results": rows}


def check_reference(bench, current, failures):
    reference = load(REFERENCE_DIR / f"BENCH_{bench}.json")
    if reference is None:
        failures.append(f"{bench}: reference BENCH_{bench}.json missing")
        return
    fields = REFERENCES[bench]
    want, got = without(reference, fields), without(current, fields)
    if got == want:
        print(f"ok  {bench}: equals its committed reference")
        return
    for key in sorted(set(want) | set(got)):
        if key != "results" and want.get(key) != got.get(key):
            failures.append(f"{bench}: {key} {got.get(key)!r}, reference {want.get(key)!r}")
    rows_want, rows_got = want.get("results", []), got.get("results", [])
    if len(rows_want) != len(rows_got):
        failures.append(f"{bench}: {len(rows_got)} rows, reference {len(rows_want)}")
    for i, (w, g) in enumerate(zip(rows_want, rows_got)):
        if w != g:
            failures.append(f"{bench} row {i}: {g}, reference {w}")


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


def check_logappend(doc, failures):
    rows = sorted((r for r in doc["results"] if r.get("series") == "recovery"),
                  key=lambda r: r["entries"])
    for r in rows:
        check_bar(failures, r["rolled_back"] == r["entries"],
                  f"logappend recovery at {r['entries']} entries: rolled_back {r['rolled_back']}")
        check_bar(failures, r["scanned"] <= 2 * r["entries"],
                  f"logappend recovery at {r['entries']} entries: scanned {r['scanned']} "
                  f"vs 2 x {r['entries']} entries")
    scanned = [r["scanned"] for r in rows]
    check_bar(failures, all(a < b for a, b in zip(scanned, scanned[1:])),
              f"logappend recovery: scanned {scanned} grows with entries")


def check_write_amp(doc, failures):
    amp = {r["fields_per_page"]: r["pax_amp"] for r in doc["results"]}
    if 1 not in amp:
        failures.append("write_amp: 1 field/page row missing")
        return
    check_bar(failures, amp[1] <= 18.5,
              f"write_amp: PAX line log {amp[1]:.2f}x vs 18.5x ceiling at 1 field/page")


def check_capacity(doc, failures):
    rows = [r for r in doc["results"] if r.get("series") == "host_memory"]
    rss = {(r["data_mib"], r["log_mib"]): r["rss_create_kib"]
           for r in rows if r["close"] == "sync"}
    small, large, big_log = rss.get((64, 4)), rss.get((1024, 4)), rss.get((64, 64))
    if small is None or large is None or big_log is None:
        failures.append("capacity: host_memory rows for 64 and 1024 MiB vPM with a 4 MiB "
                        "log, and 64 MiB vPM with a 64 MiB log, missing")
        return
    if not any(rss.values()):
        print("ok  capacity host_memory: no RSS reported on this platform, bar skipped")
        return
    check_bar(failures, large <= small + 8 * 1024,
              f"capacity host_memory: 1 GiB pool grew RSS {large} KiB at create vs "
              f"64 MiB pool {small} KiB + 8 MiB")
    check_bar(failures, big_log <= small + 1024,
              f"capacity host_memory: a 64 MiB log grew RSS {big_log} KiB at create vs "
              f"a 4 MiB log {small} KiB + 1 MiB")
    # Opening a pool builds no HBM set, undo ring chunk or media page;
    # each is built on first touch.
    check_bar(failures, small <= 2048,
              f"capacity host_memory: a 64 MiB pool (4 MiB log) grew RSS {small} KiB at "
              f"create vs 2 MiB")
    for r in rows:
        if r["close"] == "buffered2":
            continue  # under K = 2 the log is rarely empty at a commit
        check_bar(failures, r["rss_cycled_kib"] <= r["rss_touched_kib"] + 1024,
                  f"capacity host_memory: cycling the log with {r['close']} closes grew the "
                  f"{r['data_mib']} MiB pool's ({r['log_mib']} MiB log) RSS to "
                  f"{r['rss_cycled_kib']} KiB vs touched {r['rss_touched_kib']} KiB + 1 MiB")


ACCEPTANCE = {
    "fig2b": check_fig2b,
    "ablation_overlap": check_ablation_overlap,
    "tenants": check_tenants,
    "snoopfilter": check_snoopfilter,
    "persistency": check_persistency,
    "allocbench": check_allocbench,
    "logappend": check_logappend,
    "write_amp": check_write_amp,
    "capacity": check_capacity,
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

    for bench in REFERENCES:
        current = load(current_dir / f"{bench}.json")
        if current is None:
            failures.append(f"current {bench}.json missing")
        else:
            check_reference(bench, current, failures)

    if failures:
        print("\nBENCH RATCHET FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nbench ratchet passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
