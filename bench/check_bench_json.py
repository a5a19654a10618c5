#!/usr/bin/env python3
"""Validate BENCH_*.json reports emitted by the fig* drivers.

Usage:
    python3 bench/check_bench_json.py FILE_OR_DIR [...]
        [--compare BASELINE.json_or_dir] [--tolerance 0.15]

For each file (or every BENCH_*.json under each directory) the script
checks the sge.bench schema: required top-level fields and their types,
series entry shape (string name, integer params, numeric metrics), and a
few semantic invariants (edges_per_second > 0 on rate series; per-level
counter sanity on Figure 4-style level series). Exits non-zero and
prints one line per violation when anything fails — made for CI.

Regression guard (--compare): every (bench, name, params) rate cell
present in both the checked files and the baseline must satisfy
current >= baseline * (1 - tolerance). Independently of the baseline,
any file whose series carry a "reuse" param (bench_throughput:
0=one-shot bfs(), 1=reused runner + workspace) must show the reused
queries_per_second no lower than one-shot by more than the tolerance on
each matching cell — workspace reuse may never cost throughput.
Likewise any file whose series carry a "backend" param (the compressed-
backend ablation: 0=plain CSR, 1=delta+varint): on the hybrid engine's
R-MAT cells — the bottom-up, bandwidth-bound configuration the backend
targets — compressed must not fall more than 2x the tolerance below
plain. And any backend=1 series whose name mentions rmat must report
bits_per_edge < 32: the compressed representation beating the plain
4 B/edge targets array on a skewed graph is the point of the encoding.
Likewise any file whose series carry a "paged" param (the semi-external
paged-backend ablation) must show the warm paged rate at >= 0.85x the
in-memory rate on the hybrid R-MAT cell, and any "prefetch" param pair
(cold cells: 0=demand faulting, 1=frontier-ahead prefetch) must show
prefetch-on no slower than prefetch-off by more than 2x the tolerance
and — when the off side records a meaningful cold signal — no more
major faults than prefetch-off: absorbing cold-start IO is the
prefetcher's job. Any series reporting both prefetch_hits and
prefetch_issued must satisfy hits <= issued.
Likewise any file whose series carry an "engine" param (the direction
ablation: the BfsEngine value, 2=bitmap, 4=hybrid) must show hybrid —
kAuto's single-socket engine — no slower than bitmap by more than the
tolerance on each low-diameter cell, and by more than 2x the tolerance
on the grid cell, where hybrid stays top-down and only noise separates
the two.
Comparing a file against itself exercises only these intra-file guards.
Independently of any baseline, a series whose params carry "faults"=0
(bench_service clean runs) must report zero "degraded" and zero "shed"
requests — degradation and shedding are fault responses, never
steady-state behaviour. Likewise a series whose params carry
"deletes"=0 (bench_live insert-only ingest) must report zero
"rebuilds" — insert-only traffic repairs tracked levels incrementally —
and any series with "delta_edges" > 0 must have "snapshots_published"
> 0, since an unpublished delta is invisible to every reader.

The schema itself is documented in docs/OBSERVABILITY.md.
"""

import json
import pathlib
import sys

REQUIRED_TOP = {
    "schema": str,
    "schema_version": int,
    "bench": str,
    "figure": str,
    "unix_time": int,
    "scale_shift": int,
    "series": list,
}


def fail(errors, path, message):
    errors.append(f"{path}: {message}")


def check_entry(errors, path, i, entry):
    where = f"series[{i}]"
    if not isinstance(entry, dict):
        fail(errors, path, f"{where} is not an object")
        return
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        fail(errors, path, f"{where}.name missing or not a string")
        return
    params = entry.get("params")
    if not isinstance(params, dict):
        fail(errors, path, f"{where}.params missing or not an object")
        return
    for k, v in params.items():
        if not isinstance(v, int) or isinstance(v, bool):
            fail(errors, path, f"{where}.params.{k} is not an integer: {v!r}")
    metrics = entry.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        fail(errors, path, f"{where}.metrics missing or empty")
        return
    for k, v in metrics.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            fail(errors, path, f"{where}.metrics.{k} is not a number: {v!r}")
        elif v < 0:
            fail(errors, path, f"{where}.metrics.{k} is negative: {v!r}")

    # Semantic spot checks per series flavour.
    if params.get("deletes") == 0 and metrics.get("rebuilds"):
        # Insert-only ingest (bench_live) repairs tracked levels through
        # incremental waves; a rebuild there means the repair path was
        # bypassed.
        fail(errors, path,
             f"{where} ({name}): rebuilds={metrics['rebuilds']!r} in a "
             f"deletes=0 series (insert-only ingest must repair, not rebuild)")
    if metrics.get("delta_edges") and not metrics.get("snapshots_published"):
        # Edges changed but no snapshot was published: readers could
        # never observe the delta.
        fail(errors, path,
             f"{where} ({name}): delta_edges={metrics['delta_edges']!r} "
             f"with snapshots_published=0")
    if "staleness_p50" in metrics and "staleness_max" in metrics:
        if metrics["staleness_p50"] > metrics["staleness_max"]:
            fail(errors, path,
                 f"{where} ({name}): staleness_p50 > staleness_max")
    if params.get("faults") == 0:
        # A fault-free service run must not degrade or shed: both are
        # fault responses, never steady-state behaviour (bench_service).
        for forbidden in ("degraded", "shed"):
            if metrics.get(forbidden):
                fail(errors, path,
                     f"{where} ({name}): {forbidden}={metrics[forbidden]!r} "
                     f"in a faults=0 series (must be 0)")
    eps = metrics.get("edges_per_second")
    if eps is not None and not eps > 0:
        fail(errors, path, f"{where} ({name}): edges_per_second not positive")
    if params.get("backend") == 1 and "rmat" in name:
        # The compressed backend exists to beat plain CSR's 4 B/edge on
        # skewed graphs; >= 32 bits/edge there means the encoder broke.
        bpe = metrics.get("bits_per_edge")
        if bpe is not None and not bpe < 32:
            fail(errors, path,
                 f"{where} ({name}): compressed bits_per_edge={bpe!r} "
                 f"not below the plain backend's 32")
    if "prefetch_hits" in metrics and "prefetch_issued" in metrics:
        # Hits are the already-resident subset of issued pages
        # (ablation_paged): more hits than issues means the paged
        # backend's accounting broke.
        if metrics["prefetch_hits"] > metrics["prefetch_issued"]:
            fail(errors, path,
                 f"{where} ({name}): prefetch_hits > prefetch_issued")
    if "bitmap_checks" in metrics and "atomic_ops" in metrics:
        if metrics["atomic_ops"] > metrics["bitmap_checks"]:
            fail(errors, path,
                 f"{where} ({name}): atomic_ops > bitmap_checks")
    if "atomic_wins" in metrics and "atomic_ops" in metrics:
        if metrics["atomic_ops"] and metrics["atomic_wins"] > metrics["atomic_ops"]:
            fail(errors, path,
                 f"{where} ({name}): atomic_wins > atomic_ops")


def check_file(errors, path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(errors, path, f"unreadable or invalid JSON: {exc}")
        return

    if not isinstance(doc, dict):
        fail(errors, path, "top level is not an object")
        return
    for key, kind in REQUIRED_TOP.items():
        value = doc.get(key)
        if value is None:
            fail(errors, path, f"missing required field '{key}'")
        elif kind is int and isinstance(value, bool):
            fail(errors, path, f"field '{key}' is a bool, expected {kind.__name__}")
        elif not isinstance(value, kind):
            fail(errors, path, f"field '{key}' is not a {kind.__name__}")
    if errors:
        return
    if doc["schema"] != "sge.bench":
        fail(errors, path, f"schema is {doc['schema']!r}, expected 'sge.bench'")
    if doc["schema_version"] != 1:
        fail(errors, path, f"unsupported schema_version {doc['schema_version']}")
    expected_name = f"BENCH_{doc['bench']}.json"
    if pathlib.Path(path).name != expected_name:
        fail(errors, path, f"file name does not match bench slug "
                           f"(expected {expected_name})")
    workload = doc.get("workload")
    if workload is not None:
        if not isinstance(workload, dict) or \
                not isinstance(workload.get("family"), str) or \
                not isinstance(workload.get("base_vertices"), int):
            fail(errors, path, "workload must be {family: str, base_vertices: int}")
    if not doc["series"]:
        fail(errors, path, "series is empty (driver added no entries)")
    for i, entry in enumerate(doc["series"]):
        check_entry(errors, path, i, entry)


def rate_cells(paths, metric="edges_per_second"):
    """(bench, name, frozen params) -> `metric`, over all files."""
    cells = {}
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(doc, dict):
            continue
        for entry in doc.get("series") or []:
            if not isinstance(entry, dict):
                continue
            eps = (entry.get("metrics") or {}).get(metric)
            if not isinstance(eps, (int, float)) or isinstance(eps, bool):
                continue
            params = entry.get("params") or {}
            key = (doc.get("bench"), entry.get("name"),
                   frozenset(params.items()))
            cells[key] = float(eps)
    return cells


def split_by_param(cells, param):
    """Regroup rate cells as (bench, name, params - param) -> {param: rate}."""
    by_cell = {}
    for (bench, name, params), rate in cells.items():
        p = dict(params)
        value = p.pop(param, None)
        if value is None:
            continue
        by_cell.setdefault((bench, name, frozenset(p.items())), {})[value] = rate
    return by_cell


def check_compare(errors, files, baseline, tolerance):
    """Rate-regression guard against a baseline run, plus the intra-file
    ordering guards."""
    current = rate_cells(files)
    base = rate_cells([baseline]) if baseline.is_file() else \
        rate_cells(sorted(baseline.glob("BENCH_*.json")))
    if not base:
        fail(errors, str(baseline), "baseline has no rate cells to compare")

    def describe(key):
        bench, name, params = key
        coords = ", ".join(f"{k}={v}" for k, v in sorted(dict(params).items()))
        return f"{bench}:{name}({coords})"

    for key, eps in sorted(current.items()):
        ref = base.get(key)
        if ref is None or ref <= 0:
            continue
        if eps < ref * (1.0 - tolerance):
            fail(errors, "compare",
                 f"{describe(key)}: rate {eps:.3g} fell below baseline "
                 f"{ref:.3g} by more than {tolerance:.0%}")

    # Reuse guard: a reused runner + workspace (reuse=1) must not serve
    # fewer queries/second than one-shot bfs() (reuse=0) on any cell of
    # bench_throughput — amortization may never turn into a cost. The
    # tolerance absorbs scheduler noise on the near-parity cells.
    qps = rate_cells(files, metric="queries_per_second")
    for key, modes in sorted(split_by_param(qps, "reuse").items()):
        oneshot, reused = modes.get(0), modes.get(1)
        if oneshot is None or reused is None or oneshot <= 0:
            continue
        if reused < oneshot * (1.0 - tolerance):
            fail(errors, "compare",
                 f"{describe(key)}: reused queries/s {reused:.3g} is more "
                 f"than {tolerance:.0%} below one-shot {oneshot:.3g}")

    # Backend guard: the compressed backend (backend=1) must hold its
    # rate against plain (backend=0) on the hybrid engine's R-MAT cells
    # — the bottom-up, bandwidth-bound configuration the encoding
    # targets. Other cells (top-down on a cached workload, uniform's
    # long gaps) legitimately pay the decode ALU, so they are reported
    # but not gated. The band is 2x the baseline tolerance: a
    # single-core CI host overstates per-level costs.
    for key, backends in sorted(split_by_param(current, "backend").items()):
        bench, name, _ = key
        if not (isinstance(name, str) and "hybrid" in name and "rmat" in name):
            continue
        plain, compressed = backends.get(0), backends.get(1)
        if plain is None or compressed is None or plain <= 0:
            continue
        if compressed < plain * (1.0 - 2.0 * tolerance):
            fail(errors, "compare",
                 f"{describe(key)}: compressed rate {compressed:.3g} is more "
                 f"than {2.0 * tolerance:.0%} below plain {plain:.3g}")

    # Paged-backend guard (ablation_paged): with the payload warm in
    # the page cache, the semi-external backend must hold >= 0.85x of
    # the in-memory rate on the hybrid R-MAT cell — the same
    # bottom-up, bandwidth-bound configuration the compressed-backend
    # guard gates, for the same reason. The remaining cells pay the
    # callback-scan tax already priced by that ablation (bitmap) or
    # sit inside single-core scheduler noise (uniform) and are
    # reported, not gated.
    for key, modes in sorted(split_by_param(current, "paged").items()):
        bench, name, _ = key
        if not (isinstance(name, str) and name.startswith("warm_hybrid")
                and "rmat" in name):
            continue
        in_memory, paged = modes.get(0), modes.get(1)
        if in_memory is None or paged is None or in_memory <= 0:
            continue
        if paged < in_memory * 0.85:
            fail(errors, "compare",
                 f"{describe(key)}: warm paged rate {paged:.3g} is below "
                 f"0.85x the in-memory rate {in_memory:.3g}")

    # Prefetch guards (ablation_paged cold cells). Rate: frontier-ahead
    # prefetch must never lose to no-prefetch beyond the 2x band — on a
    # single-CPU CI host the inline WILLNEED batch is billed at
    # (threads-1) x the barrier window; on real hardware the background
    # toucher overlaps stripe reads with the level's discovery. Major
    # faults: the prefetcher's actual job is absorbing cold-start IO, so
    # with a meaningful cold signal (off-side >= 8 majors) prefetch-on
    # must not take more major faults than prefetch-off.
    for key, modes in sorted(split_by_param(current, "prefetch").items()):
        off_rate, on_rate = modes.get(0), modes.get(1)
        if off_rate is None or on_rate is None or off_rate <= 0:
            continue
        if on_rate < off_rate * (1.0 - 2.0 * tolerance):
            fail(errors, "compare",
                 f"{describe(key)}: prefetch-on rate {on_rate:.3g} is more "
                 f"than {2.0 * tolerance:.0%} below prefetch-off "
                 f"{off_rate:.3g}")
    # Direction guard (ablation_direction): kAuto runs hybrid on one
    # socket, so hybrid (engine=4) must hold Algorithm 2's rate
    # (engine=2). Bottom-up should win outright on the low-diameter
    # cells, so they get the plain tolerance; on the 2-D grid hybrid
    # never leaves top-down and does bitmap's exact work, so its cell
    # gets the 2x band the other same-work guards use.
    for key, engines in sorted(split_by_param(current, "engine").items()):
        bench, name, _ = key
        bitmap, hybrid = engines.get(2), engines.get(4)
        if bitmap is None or hybrid is None or bitmap <= 0:
            continue
        band = 2.0 * tolerance if "grid" in str(name) else tolerance
        if hybrid < bitmap * (1.0 - band):
            fail(errors, "compare",
                 f"{describe(key)}: hybrid rate {hybrid:.3g} is more than "
                 f"{band:.0%} below bitmap {bitmap:.3g}")

    faults = rate_cells(files, metric="major_faults")
    for key, modes in sorted(split_by_param(faults, "prefetch").items()):
        off_faults, on_faults = modes.get(0), modes.get(1)
        if off_faults is None or on_faults is None or off_faults < 8:
            continue
        if on_faults > off_faults:
            fail(errors, "compare",
                 f"{describe(key)}: prefetch-on took {on_faults:.0f} major "
                 f"faults, more than prefetch-off's {off_faults:.0f}")


def main(argv):
    args = []
    baseline = None
    tolerance = 0.15
    i = 1
    while i < len(argv):
        if argv[i] == "--compare":
            i += 1
            if i >= len(argv):
                print("check_bench_json: --compare needs a path", file=sys.stderr)
                return 2
            baseline = pathlib.Path(argv[i])
        elif argv[i] == "--tolerance":
            i += 1
            if i >= len(argv):
                print("check_bench_json: --tolerance needs a value",
                      file=sys.stderr)
                return 2
            try:
                tolerance = float(argv[i])
            except ValueError:
                print(f"check_bench_json: bad tolerance {argv[i]!r}",
                      file=sys.stderr)
                return 2
        else:
            args.append(argv[i])
        i += 1
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = []
    for arg in args:
        p = pathlib.Path(arg)
        if p.is_dir():
            files.extend(sorted(p.glob("BENCH_*.json")))
        else:
            files.append(p)
    if not files:
        print("check_bench_json: no BENCH_*.json files found", file=sys.stderr)
        return 1
    errors = []
    for path in files:
        before = len(errors)
        check_file(errors, str(path))
        status = "FAIL" if len(errors) > before else "ok"
        with open(path, encoding="utf-8") as fh:
            try:
                n = len(json.load(fh).get("series", []))
            except (json.JSONDecodeError, AttributeError):
                n = 0
        print(f"  [{status}] {path} ({n} series entries)")
    if baseline is not None:
        before = len(errors)
        check_compare(errors, files, baseline, tolerance)
        status = "FAIL" if len(errors) > before else "ok"
        print(f"  [{status}] compare vs {baseline} (tolerance {tolerance:.0%})")
    for message in errors:
        print(f"check_bench_json: {message}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
