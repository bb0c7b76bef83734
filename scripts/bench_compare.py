#!/usr/bin/env python3
"""Compare two BENCH_opt.json files (bench_opt_time --json) per program.

Usage: scripts/bench_compare.py BASE.json NEW.json

For every (program, kind) entry present in either file, prints the
optimizer's seconds, its per-phase seconds (analyze, search, cost) and the
schedule solver's real solves in both runs with the relative change. Real
solves are the requests the exact solvers ran:

    real LP  = lp_calls - lp_memo_hits - lp_witness_hits
    real ILP = ilp_calls - ilp_memo_hits

and the simplex pivots those solves made (lp_pivots). Fields a file does
not record (phases, witness hits and pivots predate some files) print as
"-" (witness hits count as 0). This is a report for reading, not a
gate: it always exits 0 once both files parse.
"""
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    entries = {}
    for e in doc.get("optimizations", []):
        entries[(e["program"], e["kind"])] = e
    return doc, entries


def real_lp(e):
    return e["lp_calls"] - e["lp_memo_hits"] - e.get("lp_witness_hits", 0)


def real_ilp(e):
    return e["ilp_calls"] - e["ilp_memo_hits"]


COLUMNS = [
    ("seconds", lambda e: e.get("seconds"), "{:.3f}"),
    ("analyze_s", lambda e: e.get("analyze_seconds"), "{:.3f}"),
    ("search_s", lambda e: e.get("search_seconds"), "{:.3f}"),
    ("cost_s", lambda e: e.get("cost_seconds"), "{:.3f}"),
    ("real_lp", real_lp, "{:d}"),
    ("real_ilp", real_ilp, "{:d}"),
    ("pivots", lambda e: e.get("lp_pivots"), "{:d}"),
]


def cell(base, new, fmt):
    def show(v):
        return "-" if v is None else fmt.format(v)

    text = "{} -> {}".format(show(base), show(new))
    if base is not None and new is not None and base != 0:
        text += " ({:+.0f}%)".format(100.0 * (new - base) / base)
    return text


def describe(doc):
    return "{} nproc={} {} {}".format(doc.get("host", "?"), doc.get("nproc", "?"),
                                      doc.get("build_type", "?"),
                                      doc.get("git_sha", "?"))


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base_doc, base = load(argv[1])
    new_doc, new = load(argv[2])
    print("base: {}".format(describe(base_doc)))
    print("new:  {}".format(describe(new_doc)))
    rows = [["program", "kind"] + [name for name, _, _ in COLUMNS]]
    for key in sorted(set(base) | set(new)):
        b, n = base.get(key), new.get(key)
        row = list(key)
        for _, get, fmt in COLUMNS:
            row.append(cell(get(b) if b else None, get(n) if n else None, fmt))
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
