#!/usr/bin/env python3
"""Render CPI stacks from ropsim --stats-json documents.

Usage:
    report_cpi.py STATS_JSON [STATS_JSON ...] [--core N] [--csv]

Each input is either a single-run document (schema_version >= 3, with an
"attribution" block), a --compare document ({"benchmark", "modes": {...}}),
or a bench sidecar; every embedded document becomes one column. For every
core the renderer prints the absolute cycle count per category, the share
of total cycles, and the CPI contribution (category cycles / instructions),
plus an ASCII bar chart of the stack. Columns are printed side by side so
`report_cpi.py baseline.json rop.json` (or one --compare document) reads as
a direct refresh-overhead comparison — the paper's Fig. 1 decomposition.

With --csv, emits one long-form CSV row per (column, core, category)
instead of the tables: label,core,category,cycles,share,cpi.

Stdlib only; exit 1 when no attribution-bearing document is found.
"""

import argparse
import json
import sys

# Canonical category order (telemetry/attribution.h); the renderer groups
# them for display but never invents or drops a key.
CPI_KEYS = ["retire", "stall_mlp", "stall_port", "mem_queue", "mem_bank",
            "mem_cas", "mem_bus", "refresh_rank", "refresh_bank",
            "refresh_subarray", "refresh_pause", "rop_sram", "other"]

REFRESH_KEYS = [k for k in CPI_KEYS if k.startswith("refresh_")]

BAR_WIDTH = 40
BAR_GLYPHS = {
    "retire": "=",
    "stall_mlp": "m",
    "stall_port": "p",
    "mem_queue": "q",
    "mem_bank": "b",
    "mem_cas": "c",
    "mem_bus": "u",
    "refresh_rank": "R",
    "refresh_bank": "B",
    "refresh_subarray": "S",
    "refresh_pause": "P",
    "rop_sram": "r",
    "other": ".",
}


def collect_documents(obj, where):
    """Yield (label, document) for a stats doc, --compare doc, or sidecar."""
    if "attribution" in obj and "run" in obj:
        yield where, obj
    elif "modes" in obj:
        for mode, doc in obj["modes"].items():
            yield mode, doc
    else:
        for label, doc in obj.items():
            if isinstance(doc, dict) and "attribution" in doc:
                yield label, doc


def core_rows(doc):
    """Yield (core_index, cycles, instructions, stack_dict) per core."""
    attr = doc.get("attribution")
    if not attr:
        return
    run_cores = doc.get("run", {}).get("cores", [])
    for entry in attr.get("cores", []):
        idx = entry["core"]
        instructions = 0
        if idx < len(run_cores):
            instructions = run_cores[idx].get("instructions", 0)
        yield idx, entry["cycles"], instructions, entry["cpi_stack"]


def render_bar(stack, cycles):
    if cycles == 0:
        return "(no cycles)"
    bar = []
    for key in CPI_KEYS:
        width = round(BAR_WIDTH * stack[key] / cycles)
        bar.append(BAR_GLYPHS[key] * width)
    return "[" + "".join(bar)[:BAR_WIDTH].ljust(BAR_WIDTH) + "]"


def render_column(label, doc, core_filter):
    attr = doc["attribution"]
    lines = [f"== {label} (cpu_ratio {attr.get('cpu_ratio', '?')}) =="]
    for idx, cycles, instructions, stack in core_rows(doc):
        if core_filter is not None and idx != core_filter:
            continue
        total = sum(stack.values())
        ipc = instructions / cycles if cycles else 0.0
        lines.append(f"core {idx}: {cycles} cycles, "
                     f"{instructions} instructions (IPC {ipc:.4f})")
        if total != cycles:
            lines.append(f"  WARNING: stack sums to {total}, "
                         f"not {cycles} (delta {total - cycles:+d})")
        lines.append(f"  {render_bar(stack, cycles)}")
        lines.append(f"  {'category':<18}{'cycles':>14}{'share':>9}"
                     f"{'cpi':>10}")
        for key in CPI_KEYS:
            v = stack[key]
            if v == 0:
                continue
            share = v / cycles if cycles else 0.0
            cpi = v / instructions if instructions else 0.0
            marker = " *" if key in REFRESH_KEYS else ""
            lines.append(f"  {key:<18}{v:>14}{share:>8.1%}{cpi:>10.4f}"
                         f"{marker}")
        refresh = sum(stack[k] for k in REFRESH_KEYS)
        if refresh:
            share = refresh / cycles if cycles else 0.0
            lines.append(f"  {'(refresh total)':<18}{refresh:>14}"
                         f"{share:>8.1%}")
    recovered = attr.get("rop_recovered_cycles", 0)
    if recovered:
        lines.append(f"rop_recovered_cycles: {recovered} "
                     f"(controller cycles served from SRAM during refresh)")
    req = attr.get("requests", {})
    blocked = {k: v for k, v in req.items() if v}
    if blocked:
        lines.append("request blocked-cycle totals (controller cycles): "
                     + ", ".join(f"{k}={v}" for k, v in blocked.items()))
    return lines


def render_csv(columns, core_filter, out):
    out.write("label,core,category,cycles,share,cpi\n")
    for label, doc in columns:
        for idx, cycles, instructions, stack in core_rows(doc):
            if core_filter is not None and idx != core_filter:
                continue
            for key in CPI_KEYS:
                v = stack[key]
                share = v / cycles if cycles else 0.0
                cpi = v / instructions if instructions else 0.0
                out.write(f"{label},{idx},{key},{v},{share:.6f},{cpi:.6f}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("stats", nargs="+",
                        help="stats JSON documents (single-run, --compare, "
                             "or sidecar)")
    parser.add_argument("--core", type=int, default=None,
                        help="render only this core index")
    parser.add_argument("--csv", action="store_true",
                        help="emit long-form CSV instead of tables")
    args = parser.parse_args()

    columns = []
    for path in args.stats:
        with open(path) as f:
            obj = json.load(f)
        for label, doc in collect_documents(obj, path):
            if doc.get("attribution"):
                columns.append((label, doc))
    if not columns:
        print("no documents with an attribution block found "
              "(need schema_version >= 3; re-run ropsim --stats-json)",
              file=sys.stderr)
        return 1

    if args.csv:
        render_csv(columns, args.core, sys.stdout)
        return 0

    blocks = [render_column(label, doc, args.core) for label, doc in columns]
    for block in blocks:
        print("\n".join(block))
        print()
    if len(columns) >= 2:
        # Refresh-overhead delta of every column against the first.
        base_label, base_doc = columns[0]
        base = {idx: sum(stack[k] for k in REFRESH_KEYS) / cycles
                for idx, cycles, _, stack in core_rows(base_doc) if cycles}
        print(f"refresh-stall share vs {base_label}:")
        for label, doc in columns[1:]:
            for idx, cycles, _, stack in core_rows(doc):
                if args.core is not None and idx != args.core:
                    continue
                if not cycles or idx not in base:
                    continue
                share = sum(stack[k] for k in REFRESH_KEYS) / cycles
                print(f"  {label} core {idx}: {share:.2%} "
                      f"(base {base[idx]:.2%}, delta "
                      f"{share - base[idx]:+.2%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
