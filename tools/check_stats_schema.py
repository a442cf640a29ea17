#!/usr/bin/env python3
"""CI gate: validate a ropsim --stats-json document against the export
schema (telemetry/stats_json.h, docs/OBSERVABILITY.md).

Usage:
    check_stats_schema.py STATS_JSON [--require-epochs]
                          [--require-counter NAME]... [--require-sampling]
                          [--require-attribution]

Checks, per document:
  - top-level sections present: run, energy_mj, counters, scalars,
    histograms, epochs, refresh_blocking, checker
  - every counter value is a non-negative integer
  - every scalar has count/sum/mean/min/max, and min/max are null exactly
    when count == 0 (the "no samples" encoding)
  - every histogram has count/mean/bucket_width/buckets/p50/p95/p99, the
    bucket counts sum to `count`, and the percentiles are monotone
  - with --require-epochs: the epochs section is non-null, has at least one
    epoch, and every series has one delta per epoch
  - with --require-counter NAME: NAME exists in the counters section
  - the sampling section (schema_version 2, from --loop sampled), when
    non-null: windows/measured/functional cycle counts are non-negative
    integers, and each estimate (ipc, energy_mj_per_mcycle,
    refresh_blocked_per_mem_cycle) carries mean/stderr/ci95_half with
    ci95_half >= stderr >= 0; documents at schema_version >= 4
    additionally carry placement ("uniform" | "stratified"), workers >= 1
    (the planner's window workers), and strata: strata >= 1 exactly when
    placement is "stratified"
  - with --require-sampling: the sampling section is non-null with at
    least one window, and the document declares schema_version >= 2
  - the attribution section (schema_version 3), when present: cpu_ratio is
    a positive integer, every core's cpi_stack carries exactly the 13
    canonical categories, in canonical (export) order, as non-negative
    integers summing bit-exactly to that core's cycles, and
    rop_recovered_cycles plus the four per-cause
    requests.blocked_*_cycles totals are non-negative integers
  - the epochs section's dropped_epochs (when present) is a non-negative
    integer equal to first_epoch_index
  - with --require-attribution: the attribution section is present with at
    least one core, and the document declares schema_version >= 3

The file may also be a --compare document ({"benchmark", "modes": {...}})
or a bench sidecar (an object whose values are stats documents); every
embedded document is validated.

Exit status: 0 when every document passes, 1 otherwise. Stdlib only.
"""

import argparse
import json
import sys

REQUIRED_SECTIONS = ["run", "energy_mj", "counters", "scalars",
                     "histograms", "epochs", "refresh_blocking", "checker"]


def fail(errors, where, msg):
    errors.append(f"{where}: {msg}")


SAMPLING_ESTIMATES = ["ipc", "energy_mj_per_mcycle",
                      "refresh_blocked_per_mem_cycle"]

# Canonical CPI-stack categories, in export order (telemetry/attribution.h).
CPI_KEYS = ["retire", "stall_mlp", "stall_port", "mem_queue", "mem_bank",
            "mem_cas", "mem_bus", "refresh_rank", "refresh_bank",
            "refresh_subarray", "refresh_pause", "rop_sram", "other"]

REQUEST_BLOCKED_KEYS = ["blocked_rank_cycles", "blocked_bank_cycles",
                        "blocked_subarray_cycles", "blocked_pause_cycles"]


def check_attribution(doc, where, errors, require_attribution):
    attr = doc.get("attribution")
    if attr is None:
        if require_attribution:
            fail(errors, where,
                 "attribution section missing but --require-attribution set")
        return
    if require_attribution and doc.get("schema_version", 0) < 3:
        fail(errors, where,
             f"attribution document declares schema_version "
             f"{doc.get('schema_version')!r}, expected >= 3")
    ratio = attr.get("cpu_ratio")
    if not isinstance(ratio, int) or ratio < 1:
        fail(errors, where,
             f"attribution cpu_ratio is not a positive integer: {ratio!r}")
    cores = attr.get("cores")
    if not isinstance(cores, list):
        fail(errors, where, "attribution 'cores' is not an array")
        return
    if require_attribution and not cores:
        fail(errors, where, "attribution has zero cores")
    for entry in cores:
        core = entry.get("core")
        cyc = entry.get("cycles")
        stack = entry.get("cpi_stack")
        label = f"attribution core {core!r}"
        if not isinstance(cyc, int) or cyc < 0:
            fail(errors, where,
                 f"{label} cycles is not a non-negative integer: {cyc!r}")
            continue
        if not isinstance(stack, dict):
            fail(errors, where, f"{label} has no cpi_stack object")
            continue
        if list(stack) != CPI_KEYS:
            fail(errors, where,
                 f"{label} cpi_stack keys {list(stack)} != canonical "
                 f"categories in order {CPI_KEYS}")
            continue
        bad = [k for k, v in stack.items()
               if not isinstance(v, int) or v < 0]
        if bad:
            fail(errors, where,
                 f"{label} cpi_stack has non-integer/negative entries: {bad}")
            continue
        total = sum(stack.values())
        if total != cyc:
            fail(errors, where,
                 f"{label} cpi_stack sums to {total} but cycles = {cyc} "
                 f"(delta {total - cyc:+d})")
    rec = attr.get("rop_recovered_cycles")
    if not isinstance(rec, int) or rec < 0:
        fail(errors, where,
             f"attribution rop_recovered_cycles is not a non-negative "
             f"integer: {rec!r}")
    requests = attr.get("requests")
    if not isinstance(requests, dict):
        fail(errors, where, "attribution 'requests' is not an object")
        return
    for key in REQUEST_BLOCKED_KEYS:
        v = requests.get(key)
        if not isinstance(v, int) or v < 0:
            fail(errors, where,
                 f"attribution requests '{key}' is not a non-negative "
                 f"integer: {v!r}")


def check_sampling(doc, where, errors, require_sampling):
    sampling = doc.get("sampling")
    if sampling is None:
        if require_sampling:
            fail(errors, where,
                 "sampling section is null but --require-sampling set")
        return
    if require_sampling and doc.get("schema_version", 0) < 2:
        fail(errors, where,
             f"sampled document declares schema_version "
             f"{doc.get('schema_version')!r}, expected >= 2")
    for field in ("windows", "measured_cpu_cycles", "functional_cpu_cycles"):
        v = sampling.get(field)
        if not isinstance(v, int) or v < 0:
            fail(errors, where,
                 f"sampling '{field}' is not a non-negative integer: {v!r}")
    if not isinstance(sampling.get("ci_converged"), bool):
        fail(errors, where, "sampling 'ci_converged' is not a boolean")
    if require_sampling and sampling.get("windows", 0) < 1:
        fail(errors, where, "sampled document has zero measurement windows")
    if doc.get("schema_version", 0) >= 4:
        placement = sampling.get("placement")
        workers = sampling.get("workers")
        strata = sampling.get("strata")
        if placement not in ("uniform", "stratified"):
            fail(errors, where,
                 f"sampling 'placement' is not one of "
                 f"uniform/stratified: {placement!r}")
        for field, v in (("workers", workers), ("strata", strata)):
            if not isinstance(v, int) or v < 0:
                fail(errors, where,
                     f"sampling '{field}' is not a non-negative integer: "
                     f"{v!r}")
        if isinstance(workers, int) and isinstance(strata, int):
            if workers < 1:
                fail(errors, where,
                     f"sampling needs workers >= 1, got {workers}")
            if placement == "uniform" and strata != 0:
                fail(errors, where,
                     f"uniform placement must have strata == 0, got "
                     f"{strata}")
            if placement == "stratified" and strata < 1:
                fail(errors, where,
                     f"stratified placement needs strata >= 1, got "
                     f"{strata}")
    for name in SAMPLING_ESTIMATES:
        est = sampling.get(name)
        if not isinstance(est, dict):
            fail(errors, where, f"sampling estimate '{name}' missing")
            continue
        for field in ("mean", "stderr", "ci95_half"):
            if not isinstance(est.get(field), (int, float)):
                fail(errors, where,
                     f"sampling '{name}.{field}' is not a number: "
                     f"{est.get(field)!r}")
                break
        else:
            if not (est["ci95_half"] >= est["stderr"] >= 0):
                fail(errors, where,
                     f"sampling '{name}' violates ci95_half >= stderr >= 0: "
                     f"{est['ci95_half']}, {est['stderr']}")


def check_document(doc, where, errors, require_epochs, require_counters,
                   require_sampling=False, require_attribution=False):
    for section in REQUIRED_SECTIONS:
        if section not in doc:
            fail(errors, where, f"missing section '{section}'")
    if errors:
        return

    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(errors, where,
                 f"counter '{name}' is not a non-negative integer: {value!r}")
    for name in require_counters:
        if name not in doc["counters"]:
            fail(errors, where, f"required counter '{name}' missing")

    for name, s in doc["scalars"].items():
        for field in ("count", "sum", "mean", "min", "max"):
            if field not in s:
                fail(errors, where, f"scalar '{name}' missing '{field}'")
                break
        else:
            empty = s["count"] == 0
            for field in ("min", "max"):
                if empty and s[field] is not None:
                    fail(errors, where,
                         f"scalar '{name}' has count 0 but {field} is "
                         f"{s[field]!r} (must be null)")
                if not empty and s[field] is None:
                    fail(errors, where,
                         f"scalar '{name}' has samples but {field} is null")

    for name, h in doc["histograms"].items():
        for field in ("count", "mean", "bucket_width", "buckets",
                      "p50", "p95", "p99"):
            if field not in h:
                fail(errors, where, f"histogram '{name}' missing '{field}'")
                break
        else:
            if not isinstance(h["buckets"], list) or not h["buckets"]:
                fail(errors, where, f"histogram '{name}' has no buckets")
            elif sum(h["buckets"]) != h["count"]:
                fail(errors, where,
                     f"histogram '{name}' buckets sum to "
                     f"{sum(h['buckets'])}, count says {h['count']}")
            if not (h["p50"] <= h["p95"] <= h["p99"]):
                fail(errors, where,
                     f"histogram '{name}' percentiles not monotone: "
                     f"{h['p50']}, {h['p95']}, {h['p99']}")

    epochs = doc["epochs"]
    if require_epochs and epochs is None:
        fail(errors, where, "epochs section is null but --require-epochs set")
    if epochs is not None:
        for field in ("epoch_cycles", "first_epoch_index", "end_cycles",
                      "series"):
            if field not in epochs:
                fail(errors, where, f"epochs missing '{field}'")
                return
        n = len(epochs["end_cycles"])
        if require_epochs and n == 0:
            fail(errors, where, "epochs present but empty")
        if require_epochs and not epochs["series"]:
            fail(errors, where, "epochs has no series")
        for name, deltas in epochs["series"].items():
            if len(deltas) != n:
                fail(errors, where,
                     f"series '{name}' has {len(deltas)} deltas for "
                     f"{n} epochs")
        ends = epochs["end_cycles"]
        if any(b <= a for a, b in zip(ends, ends[1:])):
            fail(errors, where, "epoch end_cycles not strictly increasing")
        if "dropped_epochs" in epochs:
            dropped = epochs["dropped_epochs"]
            if not isinstance(dropped, int) or dropped < 0:
                fail(errors, where,
                     f"epochs dropped_epochs is not a non-negative integer: "
                     f"{dropped!r}")
            elif dropped != epochs["first_epoch_index"]:
                fail(errors, where,
                     f"epochs dropped_epochs ({dropped}) != "
                     f"first_epoch_index ({epochs['first_epoch_index']})")

    check_sampling(doc, where, errors, require_sampling)
    check_attribution(doc, where, errors, require_attribution)


def collect_documents(obj, where):
    """Yield (document, label) for a stats doc, a --compare doc, or a
    bench sidecar."""
    if "counters" in obj:
        yield obj, where
    elif "modes" in obj:
        for mode, doc in obj["modes"].items():
            yield doc, f"{where}[{mode}]"
    else:
        for label, doc in obj.items():
            if isinstance(doc, dict) and "counters" in doc:
                yield doc, f"{where}[{label}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("stats", help="ropsim --stats-json output (or a "
                                      "--compare / sidecar document)")
    parser.add_argument("--require-epochs", action="store_true",
                        help="fail unless a non-empty epoch series is present")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME", help="fail unless NAME is exported")
    parser.add_argument("--require-sampling", action="store_true",
                        help="fail unless a non-null sampling block with at "
                             "least one window is present (schema_version 2)")
    parser.add_argument("--require-attribution", action="store_true",
                        help="fail unless an attribution block with at least "
                             "one core is present (schema_version 3)")
    args = parser.parse_args()

    with open(args.stats) as f:
        obj = json.load(f)

    errors = []
    n_docs = 0
    for doc, where in collect_documents(obj, args.stats):
        n_docs += 1
        check_document(doc, where, errors, args.require_epochs,
                       args.require_counter, args.require_sampling,
                       args.require_attribution)
    if n_docs == 0:
        errors.append(f"{args.stats}: no stats documents found")

    for e in errors:
        print(f"FAIL {e}")
    if not errors:
        print(f"ok   {args.stats}: {n_docs} document(s) conform to the "
              f"stats schema")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
