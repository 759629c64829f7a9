#!/usr/bin/env python3
"""Self-check of the benchmark, run from the repository root:

    python3 stackbench/selfcheck.py

1. Lints BENCHMARK.json: key sets, name and unit characters, directions,
   bounds, and that every per-layer metric maps (benchlib.LAYER_MAP) to
   end-to-end metrics and workloads the benchmark really has.
2. Unit-checks the statistics and pair-alternation helpers and the
   seeded input generator.
3. Builds and runs the C++ percentile check (hist_check.cpp).
Exits nonzero on the first failing section.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def lint(spec):
    errs = []

    def need(cond, msg):
        if not cond:
            errs.append(msg)

    need(set(spec) == {"command", "paths", "run_seconds", "workloads",
                       "end_to_end", "per_layer"}, "top-level keys")
    need(1 <= len(spec["paths"]) <= 16, "paths count")
    for p in spec["paths"]:
        need(PATH.match(p) and not p.startswith("/") and ".." not in p,
             "path %r" % p)
        need((ROOT / p).is_dir(), "path %r is not a directory" % p)
    cmd = spec["command"]
    need(1 <= len(cmd) <= 32 and all(len(a) <= 200 for a in cmd), "command")
    for a in cmd[1:]:
        if "/" in a:
            need(any(a.startswith(p + "/") for p in spec["paths"]),
                 "command names %r outside paths" % a)
    need(isinstance(spec["run_seconds"], int) and
         1 <= spec["run_seconds"] <= 60, "run_seconds")
    names = set()

    def named(entry, keys, where):
        need(set(entry) == keys, "%s %r keys" % (where, entry.get("name")))
        n = entry.get("name", "")
        need(NAME.match(n) is not None, "%s name %r" % (where, n))
        need(n not in names, "duplicate name %r" % n)
        names.add(n)

    wls = spec["workloads"]
    need(2 <= len(wls) <= 8, "workload count")
    for w in wls:
        named(w, {"name", "why"}, "workload")
        need(0 < len(w["why"]) <= 200 and "\n" not in w["why"],
             "why of %s" % w["name"])
        need(w["name"] in bl.WORKLOADS, "workload %s not in benchlib"
             % w["name"])
    e2e = spec["end_to_end"]
    need(1 <= len(e2e) <= 16, "end_to_end count")
    for m in e2e:
        named(m, {"name", "unit", "better", "bound"}, "end_to_end")
        need(UNIT.match(m["unit"]) is not None, "unit of %s" % m["name"])
        need(m["better"] in ("higher", "lower"), "better of %s" % m["name"])
        need(0 < m["bound"] <= 0.25, "bound of %s" % m["name"])
    setup = [m for m in e2e if m["name"] == "setup_s"]
    need(len(setup) == 1 and setup[0]["unit"] == "s" and
         setup[0]["better"] == "lower", "setup_s")
    if setup:
        need(setup[0]["bound"] == max(m["bound"] for m in e2e),
             "setup_s must have the largest bound")
    per = spec["per_layer"]
    need(1 <= len(per) <= 128, "per_layer count")
    e2e_names = {m["name"] for m in e2e} | set(bl.E2E_REPORT_ONLY)
    wl_names = {w["name"] for w in wls}
    for m in per:
        named(m, {"name", "unit", "better"}, "per_layer")
        need(UNIT.match(m["unit"]) is not None, "unit of %s" % m["name"])
        need(m["better"] in ("higher", "lower"), "better of %s" % m["name"])
        base = bl.base_name(m["name"])
        need(base in bl.LAYER_MAP, "%s has no layer mapping" % m["name"])
        if base in bl.LAYER_MAP:
            _, moves, on, bypass = bl.LAYER_MAP[base]
            for e in moves:
                need(e in e2e_names, "%s moves unknown %s" % (m["name"], e))
            for w in on + bypass:
                need(w in wl_names, "%s names unknown workload %s"
                     % (m["name"], w))
    for base in bl.LAYER_MAP:
        need(base in names, "mapped metric %s missing" % base)
    need(len(json.dumps(spec)) <= 64 * 1024, "file size")
    runs = 4 + 22 * len(wls)
    need(runs * (spec["run_seconds"] + 6) <= 3420 - 2 * 300,
         "run budget: %d runs of %ds" % (runs, spec["run_seconds"]))
    return errs


def unit_checks():
    errs = []

    def need(cond, msg):
        if not cond:
            errs.append(msg)

    need(bl.median([3, 1, 2]) == 2.0, "median odd")
    need(bl.median([4, 1, 2, 3]) == 2.5, "median even")
    vals = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    # statistics.quantiles (exclusive): Q1 = 2.75, Q3 = 8.25, median 5.5.
    need(abs(bl.quartile_spread(vals) - 5.5 / 5.5) < 1e-12, "spread")
    need(bl.quartile_spread([7.0] * 5) == 0.0, "spread of a constant")
    orders = [bl.pair_order(k) for k in range(10)]
    need(all(set(o) == {"bare", "stack"} for o in orders), "pair sides")
    need(all(orders[k] != orders[k + 1] for k in range(9)),
         "pairs alternate")
    need(sum(o[0] == "bare" for o in orders) == 5, "each side first half")
    need(bl.pair_order(3, "untraced", "traced") == ("traced", "untraced"),
         "named sides")
    a = bl.gen_sequences("ledger", 7, 3, 64, inject=False)
    need(a == bl.gen_sequences("ledger", 7, 3, 64, inject=False),
         "same seed, same ops")
    need(a != bl.gen_sequences("ledger", 8, 3, 64, inject=False),
         "other seed, other ops")
    ms = bl.gen_sequences("misuse-storm", 7, 3, 64, inject=True)
    need(all(v >> 24 == 1 for s in ms for v in s), "one stray unlock per op")
    need(all((v & 0xFF) != (v >> 8 & 0xFF) for s in a for v in s),
         "transfers name two accounts")
    rw = bl.gen_sequences("rwcache", 7, 3, 4096, inject=False)
    writes = sum(v >> 16 for s in rw for v in s) / (3 * 4096.0)
    need(0.08 < writes < 0.12, "rwcache is 90/10")
    res = {"timer_ns": 10.0, "spans": {"pair": {"n": 5, "p50": 100.0,
                                                "p99": 300.0}},
           "probe": {"pair": {"n": 5, "p50": 50.0, "p99": 60.0}}}
    need(bl.span(res, "pair", calls=2) == 80.0, "timer cost per call")
    need(bl.spans_or_probe([res], [res], "pair") == 80.0, "span first")
    empty = {"timer_ns": 10.0, "spans": {}, "probe": res["probe"]}
    need(bl.spans_or_probe([empty], [empty], "pair") == 30.0,
         "probe fallback")
    return errs


def hist_check():
    build = ROOT / ".bench_build" / "stackbench"
    subprocess.check_call(["cmake", "-S", str(HERE), "-B", str(build)],
                          stdout=subprocess.DEVNULL)
    subprocess.check_call(["cmake", "--build", str(build), "--target",
                           "stackbench_hist_check"],
                          stdout=subprocess.DEVNULL)
    return subprocess.call([str(build / "stackbench_hist_check")])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for title, errs in (("lint", lint(spec)), ("unit", unit_checks())):
        for e in errs:
            print("selfcheck %s: %s" % (title, e))
        if errs:
            return 1
        print("selfcheck %s: ok" % title)
    return hist_check()


if __name__ == "__main__":
    sys.exit(main())
