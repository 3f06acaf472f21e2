"""Fold benchmark records into one BENCH file and check their spread.

    python3 perfbench/summarize.py --out perfbench/BENCH_seed.json [RECORD.json ...]
    python3 perfbench/summarize.py --compare BENCH_a.json BENCH_b.json

Reads the records `run.py` leaves in `.perfbench/results/` (or the files
given), groups them by workload and trace mode, and writes per metric the
median, the quartiles and their distance as a share of the median (the
spread), with the number of runs.  The table it prints marks every
end-to-end spread above a third of the metric's bound in BENCHMARK.json.

`--compare` checks that two BENCH files of the same code agree: for every
end-to-end metric, each median is within the metric's bound of the other,
taken either way round, and every spread but that of `setup_s` is within
the bound.  It exits 1 if any does not.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys


def quartiles(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def summarize(records: list) -> dict:
    groups: dict = {}
    for rec in records:
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    out: dict = {}
    for (workload, trace), recs in sorted(groups.items()):
        entry = out.setdefault(workload, {})
        metrics: dict = {}
        for rec in recs:
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
        entry["per_layer" if trace else "end_to_end"] = {
            name: {"unit": unit, **quartiles(values)}
            for name, (unit, values) in metrics.items()}
        entry.setdefault("seeds", {})["trace" if trace else "untraced"] = sorted(
            r["stamp"]["seed"] for r in recs)
        entry["failed_checks"] = entry.get("failed_checks", 0) + sum(
            r["result"]["failed"] for r in recs)
        entry["attempted_checks"] = entry.get("attempted_checks", 0) + sum(
            r["result"]["attempted"] for r in recs)
        entry["workload_params"] = recs[-1]["workload_params"]
        if trace:
            for key in ("import_ms_by_module", "op_counts_per_run", "top_self_ms"):
                entry[key] = {r["stamp"]["seed"]: r[key] for r in recs}
        else:
            entry["quality_by_seed"] = {r["stamp"]["seed"]: r["quality"] for r in recs}
    return out


def compare(first: dict, second: dict, bounds: dict) -> bool:
    """Print the shift of every end-to-end median both ways; True if all agree."""
    ok = True
    for workload, entry in first["workloads"].items():
        other = second["workloads"][workload]["end_to_end"]
        for name, a in entry["end_to_end"].items():
            b, bound = other[name], bounds[name]
            worse = max(b["median"] / a["median"], a["median"] / b["median"]) - 1.0
            spread = max(a["spread"], b["spread"])
            good = worse <= bound and (name == "setup_s" or spread <= bound)
            ok = ok and good
            print(f"{workload:12s} {name:16s} medians {a['median']:10.5g} {b['median']:10.5g} "
                  f"apart {worse:7.2%} spreads {a['spread']:6.2%} {b['spread']:6.2%} "
                  f"bound {bound:.2f} {'ok' if good else 'FAIL'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="*", type=pathlib.Path)
    parser.add_argument("--out", type=pathlib.Path)
    parser.add_argument("--compare", nargs=2, type=pathlib.Path, metavar="BENCH")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in
              json.loads(pathlib.Path("BENCHMARK.json").read_text())["end_to_end"]}
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(first, second, bounds) else 1
    paths = args.records or sorted(pathlib.Path(".perfbench/results").glob("*.json"))
    if not paths:
        print("error: no benchmark records found", file=sys.stderr)
        return 2
    records = [json.loads(p.read_text()) for p in paths]
    workloads = summarize(records)
    for workload, entry in workloads.items():
        for name, q in entry.get("end_to_end", {}).items():
            flag = " <-- above bound/3" if q["spread"] > bounds.get(name, 1.0) / 3 else ""
            print(f"{workload:12s} {name:16s} median {q['median']:12.5g} {q['unit']:3s} "
                  f"spread {q['spread']:7.2%} n={q['n']}{flag}")
    if args.out:
        stamp = dict(records[-1]["stamp"])
        stamp.pop("seed")
        args.out.write_text(json.dumps({"stamp": stamp, "workloads": workloads},
                                       indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
