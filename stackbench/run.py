#!/usr/bin/env python3
"""stackbench: the benchmark of the interposed resilock stack.

    python3 stackbench/run.py --workload ledger --seed 1 --seconds 10 \
        --trace 0

Run from the repository root. Builds the stack and the benchmark's two
programs into .bench_build/stackbench, generates the workload's op
sequences from --seed, then:

  --trace 0  runs stackbench_app bare (glibc) and under
             LD_PRELOAD=libresilock_preload.so in alternating pairs for
             --seconds and reports the end-to-end metrics of the stack
             side (BENCHMARK.json "end_to_end").
  --trace 1  runs the app traced and untraced under the preload, then
             the in-process cost ladder (stackbench_ladder, one process
             per rung), and reports the per-layer metrics
             (BENCHMARK.json "per_layer").

Every line but the last is a human-readable report; the last line is
one JSON object with keys correct, attempted, failed and metrics.
NOTES.md maps each metric to its layer and workload.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "stackbench"
CHILD_TIMEOUT_S = 30


def log(msg):
    print(msg, flush=True)


def fail(msg, code=1):
    print("stackbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


# ---------------------------------------------------------------------
# Build.
# ---------------------------------------------------------------------
def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no resilock source tree at %s" % ROOT, 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    out = BUILD / "build.log"
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        if not (BUILD / "CMakeCache.txt").is_file():
            rc = subprocess.call(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=f, stderr=subprocess.STDOUT)
            if rc != 0:
                fail("cmake configure failed, see %s" % out)
        rc = subprocess.call(
            ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
             "stackbench_app", "stackbench_ladder", "resilock_preload"],
            stdout=f, stderr=subprocess.STDOUT)
    if rc != 0:
        sys.stderr.write(out.read_text()[-4000:])
        fail("build failed")
    return {
        "app": BUILD / "stackbench_app",
        "ladder": BUILD / "stackbench_ladder",
        "preload": BUILD / "resilock" / "libresilock_preload.so",
    }


def environment():
    compiler = "unknown"
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            cxx = line.split("=", 1)[1]
            try:
                compiler = subprocess.run(
                    [cxx, "--version"], capture_output=True, text=True,
                    timeout=20).stdout.splitlines()[0]
            except (OSError, subprocess.SubprocessError, IndexError):
                compiler = cxx
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "glibc": os.confstr("CS_GNU_LIBC_VERSION"),
        "kernel": platform.release(),
        # The checkout need not be a git repository; the source digest
        # identifies the code under test either way.
        "commit": "src-sha256:" + h.hexdigest()[:16],
    }


# ---------------------------------------------------------------------
# Children.
# ---------------------------------------------------------------------
LIVE = {}  # pid -> pidfd of each running child


def kill_child(pidfd):
    # Through the pidfd, so a reaped child's reused pid is never hit.
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except OSError:
        pass


def run_child(argv, env_extra, workdir, preload=None):
    """Runs one child to completion. Returns (result-or-None, info).
    posix_spawn keeps run.py's own work out of the set-up window."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RESILOCK_") and k != "LD_PRELOAD"}
    env.update(env_extra)
    if preload is not None:
        env["LD_PRELOAD"] = str(preload)
    argv = [str(a) for a in argv]
    err_path = workdir / "child.stderr"
    err_fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    r, w = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, w, 1), (os.POSIX_SPAWN_DUP2, err_fd, 2),
               (os.POSIX_SPAWN_CLOSE, r)]
    try:
        t_spawn = time.monotonic_ns()  # CLOCK_MONOTONIC, as in the child
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    finally:
        os.close(w)
        os.close(err_fd)
    pidfd = os.pidfd_open(pid)
    LIVE[pid] = pidfd
    timer = threading.Timer(CHILD_TIMEOUT_S, kill_child, (pidfd,))
    timer.start()
    try:
        with os.fdopen(r, "rb") as f:
            out = f.read().decode(errors="replace")
        _, status, ru = os.wait4(pid, 0)
    finally:
        timer.cancel()
        timer.join()
        del LIVE[pid]
        os.close(pidfd)
    rc = os.waitstatus_to_exitcode(status)
    info = {"rc": rc, "t_spawn_ns": t_spawn,
            "cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss}
    res = None
    if rc == 0:
        lines = [ln for ln in out.splitlines() if ln.startswith("{")]
        if lines:
            try:
                res = json.loads(lines[-1])
            except ValueError:
                res = None
    if res is None:
        tail = err_path.read_text(errors="replace")[-800:]
        info["error"] = "rc=%s %s" % (rc, tail.strip())
    return res, info


def stop_children(*_):
    for pid, pidfd in list(LIVE.items()):
        kill_child(pidfd)
        try:
            os.waitpid(pid, 0)
        except OSError:
            pass
    sys.exit(1)


# ---------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------
class Inputs:
    def __init__(self, workload, seed, workdir):
        w = bl.WORKLOADS[workload]
        self.workload = workload
        self.w = w
        seqs = bl.gen_sequences(workload, seed, w["threads"], w["seq_len"],
                                inject=workload == "misuse-storm")
        # The bare side never injects: glibc corrupts under a stray
        # unlock, so its reference is the same ops without injection.
        bare = bl.gen_sequences(workload, seed, w["threads"], w["seq_len"],
                                inject=False)
        self.attempted = bl.attempted_ops(workload, w["rounds"], seqs)

        def put(name, text):
            path = workdir / name
            path.write_text(text)
            return path

        think = w["think"]
        self.stack = put("stack.ops", bl.ops_text(workload, w["rounds"],
                                                  think, seqs))
        self.bare = put("bare.ops", bl.ops_text(workload, w["rounds"],
                                                think, bare))
        self.ladder = put("ladder.ops", bl.ops_text(
            workload, w["ladder_rounds"], think, seqs))
        one_rounds = max(1, w["ladder_rounds"] // 2)
        self.one = put("one.ops", bl.ops_text(workload, one_rounds, think,
                                              seqs[:1]))


def child_ok(res, inputs, side):
    """Output checks of one child: the workload's invariant, every op
    done, and every injected stray unlock refused with EPERM."""
    if res is None:
        return False, "died"
    if res["check"] != "ok":
        return False, res["check"]
    if res["ops"] != inputs.attempted:
        return False, "ops %d of %d" % (res["ops"], inputs.attempted)
    if side == "stack" and res["eperm"] != res["injected"]:
        return False, "misuse not caught"
    return True, "ok"


# ---------------------------------------------------------------------
# --trace 0: the end-to-end pairs.
# ---------------------------------------------------------------------
def end_to_end(bins, inputs, seconds, workdir):
    env = dict(inputs.w["env"])
    sides = {"bare": [], "stack": []}
    ratios = []
    t_end = time.monotonic() + seconds
    k = 0
    while time.monotonic() < t_end or k < 3:
        got = {}
        for side in bl.pair_order(k):
            if side == "bare":
                res, info = run_child([bins["app"], inputs.bare], {}, workdir)
            else:
                res, info = run_child([bins["app"], inputs.stack], env,
                                      workdir, preload=bins["preload"])
            ok, why = child_ok(res, inputs, side)
            rec = {"res": res, "info": info, "ok": ok, "why": why}
            sides[side].append(rec)
            got[side] = rec
        if got["bare"]["ok"] and got["stack"]["ok"]:
            ratios.append(ops_per_s(got["bare"]) / ops_per_s(got["stack"]))
        k += 1
    return sides, ratios


def ops_per_s(rec):
    return rec["res"]["ops"] * 1e9 / rec["res"]["elapsed_ns"]


def e2e_metrics(sides, ratios, inputs):
    good = [r for r in sides["stack"] if r["ok"]]
    attempted = inputs.attempted * len(sides["stack"])
    failed = inputs.attempted * (len(sides["stack"]) - len(good))
    injected = sum(r["res"]["injected"] for r in sides["stack"]
                   if r["res"] is not None)
    caught = sum(r["res"]["eperm"] for r in sides["stack"]
                 if r["res"] is not None)
    m = {}
    if good:
        m["ops_per_s"] = bl.median([ops_per_s(r) for r in good])
        m["op_p50_ns"] = bl.median([r["res"]["lat"]["p50"] for r in good])
        m["op_p99_ns"] = bl.median([r["res"]["lat"]["p99"] for r in good])
        m["overhead_x"] = bl.median(ratios) if ratios else 0.0
        m["cpu_ns_per_op"] = bl.median(
            [r["info"]["cpu_s"] * 1e9 / r["res"]["ops"] for r in good])
        m["peak_rss_kb"] = bl.median([r["info"]["maxrss_kb"] for r in good])
        m["setup_s"] = bl.median(
            [(r["res"]["t_ready_ns"] - r["info"]["t_spawn_ns"]) / 1e9
             for r in good])
    extra = {
        "failed_share": failed / attempted if attempted else 1.0,
        "misuse_caught_share": caught / injected if injected else None,
        "samples": sum(r["res"]["lat"]["n"] for r in good),
    }
    return m, extra, attempted, failed


# ---------------------------------------------------------------------
# --trace 1: traced app, counters, ladder.
# ---------------------------------------------------------------------
COUNTER_ENV = {"RESILOCK_TELEMETRY": "1", "RESILOCK_METRICS_FORMAT": "json"}


def read_counters(stats_path, metrics_path, static_locks):
    c = {"static_locks": static_locks}
    stats = json.loads(stats_path.read_text())
    c["adopted_mutexes"] = stats["adopted_mutexes"]
    c["adopted_rwlocks"] = stats["adopted_rwlocks"]
    snap = json.loads(metrics_path.read_text())["metrics"]
    for key in bl.COUNTER_KEYS:
        if key in snap:
            c[key] = snap[key]
    missing = [k for k in bl.COUNTER_KEYS if k not in c]
    if missing:
        raise KeyError("counters missing: " + ", ".join(missing))
    return c


def traced(bins, inputs, seconds, workdir):
    env = dict(inputs.w["env"])
    t0 = time.monotonic()
    untraced, traced_runs, counters, bad = [], [], [], []
    k = 0
    # Phase 1: untraced / traced app pairs under the preload.
    while time.monotonic() < t0 + 0.35 * seconds or k < 2:
        for side in bl.pair_order(k, "untraced", "traced"):
            if side == "untraced":
                res, info = run_child([bins["app"], inputs.stack], env,
                                      workdir, preload=bins["preload"])
                ok, why = child_ok(res, inputs, "stack")
                (untraced if ok else bad).append(res if ok else why)
                continue
            stats = workdir / ("stats-%d.json" % k)
            snap = workdir / ("metrics-%d.json" % k)
            cenv = dict(env, **COUNTER_ENV)
            cenv["RESILOCK_PRELOAD_STATS_FILE"] = str(stats)
            cenv["RESILOCK_METRICS_FILE"] = str(snap)
            res, info = run_child([bins["app"], inputs.stack, "--trace"],
                                  cenv, workdir, preload=bins["preload"])
            ok, why = child_ok(res, inputs, "stack")
            if ok:
                try:
                    counters.append(read_counters(stats, snap,
                                                  res["static_locks"]))
                except (OSError, ValueError, KeyError) as e:
                    ok, why = False, "counters: %s" % e
            (traced_runs if ok else bad).append(res if ok else why)
        k += 1
    # Phase 2: the one-thread traced app, with the probe.
    app_one = []
    for _ in range(2):
        res, info = run_child([bins["app"], inputs.one, "--trace", "--probe"],
                              env, workdir, preload=bins["preload"])
        if res is None or res["check"] != "ok":
            bad.append("one-thread app: %s" % info.get("error", res and
                                                        res["check"]))
        else:
            app_one.append(res)
    # Phase 3: ladder rounds until the time is up.
    t_runs = {r: [] for r, _, _ in bl.RUNGS}
    one_runs = {r: [] for r, _, _ in bl.RUNGS}
    rnd = 0
    while time.monotonic() < t0 + seconds or rnd < 1:
        order = bl.RUNGS[rnd % len(bl.RUNGS):] + bl.RUNGS[:rnd % len(bl.RUNGS)]
        for rung, backend, renv in order:
            for ops, dest, extra in ((inputs.ladder, t_runs, []),
                                     (inputs.one, one_runs, ["--probe"])):
                res, info = run_child(
                    [bins["ladder"], ops, "--backend", backend] + extra,
                    renv, workdir)
                if res is None or res["check"] != "ok":
                    bad.append("rung %s: %s" % (
                        rung, info.get("error", res and res["check"])))
                else:
                    dest[rung].append(res)
        rnd += 1
    log("traced: %d untraced/traced app pairs, %d ladder rounds" % (k, rnd))
    return untraced, traced_runs, counters, app_one, t_runs, one_runs, bad


def merge_counters(counters):
    """Mean per traced child: a counter that differs between children
    (a racy adoption) shows as the share of children that counted it."""
    return {k: sum(c[k] for c in counters) / len(counters)
            for k in counters[0]}


def print_rungs(ladder, workload):
    T = bl.WORKLOADS[workload]["threads"]
    log("ladder (median ns per lock+unlock pair, net of timer cost; self ="
        " pair - rung beneath)")
    log("  %-10s %10s %10s %12s %12s" % ("rung", "pair@%dt" % T,
                                          "self@%dt" % T, "pair@1t",
                                          "self@1t"))
    prev = None
    for rung in ["glibc"] + bl.PAIR_CHAIN:
        pair = [ladder[s][rung]["pair"] for s in ("", "_1t")]
        if rung == "glibc":
            selfs = ["-", "-"]
        elif rung == "core":
            selfs = pair
        else:
            selfs = [pair[i] - ladder[s][prev]["pair"]
                     for i, s in enumerate(("", "_1t"))]
        log("  %-10s %10.1f %10s %12.1f %12s" % (
            rung, pair[0], fmt(selfs[0]), pair[1], fmt(selfs[1])))
        prev = rung
    log("  %-10s %10.1f %10s %12.1f %12s   (per verdict)" % (
        "decide", ladder[""]["decide"]["decide"], "",
        ladder["_1t"]["decide"]["decide"], ""))


def fmt(v):
    return v if isinstance(v, str) else "%.1f" % v


# ---------------------------------------------------------------------
def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(bl.WORKLOADS) + ["all"],
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bins = build()
    env = environment()
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    for workload in workloads:
        run_one(spec, bins, env, workload, args)


def run_one(spec, bins, env, workload, args):
    workdir = BUILD / "runs" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = Inputs(workload, args.seed, workdir)
        log("stackbench workload=%s seed=%d seconds=%g trace=%d threads=%d"
            % (workload, args.seed, args.seconds, args.trace,
               inputs.w["threads"]))
        log("env " + " ".join("%s=%s" % (k, json.dumps(v))
                              for k, v in env.items()))
        if args.trace == 0:
            result = run_e2e(spec, bins, inputs, args.seconds, workdir)
        else:
            result = run_traced(spec, bins, inputs, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)


def run_e2e(spec, bins, inputs, seconds, workdir):
    sides, ratios = end_to_end(bins, inputs, seconds, workdir)
    m, extra, attempted, failed = e2e_metrics(sides, ratios, inputs)
    units = {e["name"]: e["unit"] for e in spec["end_to_end"]}
    units.update(bl.E2E_REPORT_ONLY)
    for name in [e["name"] for e in spec["end_to_end"]]:
        note = ""
        if name.startswith("op_p"):
            note = "  (%d samples)" % extra["samples"]
        log("e2e %-20s %14.4f %s%s" % (name, m.get(name, float("nan")),
                                       units[name], note))
    log("e2e %-20s %14.4f share  (%d of %d ops)" % (
        "failed_share", extra["failed_share"], failed, attempted))
    if extra["misuse_caught_share"] is not None:
        log("e2e %-20s %14.4f share" % ("misuse_caught_share",
                                        extra["misuse_caught_share"]))
    bare = sides["bare"]
    log("bare (context only): %d runs, %d ok, ops_per_s median %.1f" % (
        len(bare), sum(r["ok"] for r in bare),
        bl.median([ops_per_s(r) for r in bare if r["ok"]] or [0])))
    for side in ("bare", "stack"):
        for r in sides[side]:
            if not r["ok"]:
                log("%s run failed: %s %s" % (side, r["why"],
                                              r["info"].get("error", "")))
    correct = (failed == 0 and len(m) == len(spec["end_to_end"]) and
               extra["misuse_caught_share"] in (None, 1.0))
    metrics = {e["name"]: {"value": m.get(e["name"], 0.0), "unit": e["unit"]}
               for e in spec["end_to_end"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_traced(spec, bins, inputs, seconds, workdir):
    (untraced, traced_runs, counters, app_one, t_runs, one_runs,
     bad) = traced(bins, inputs, seconds, workdir)
    n_runs = len(untraced) + len(traced_runs) + len(bad)
    attempted = inputs.attempted * n_runs
    failed = inputs.attempted * len(bad)
    complete = (untraced and traced_runs and app_one and
                all(t_runs[r] and one_runs[r] for r, _, _ in bl.RUNGS))
    for b in bad:
        log("failed: %s" % b)
    metrics = {}
    if complete:
        ladder = bl.ladder_values(t_runs, one_runs, inputs.workload)
        ops = [r["ops"] * 1e9 / r["elapsed_ns"] for r in untraced]
        tops = [r["ops"] * 1e9 / r["elapsed_ns"] for r in traced_runs]
        m = bl.layer_metrics(inputs.workload, ladder, traced_runs, app_one,
                             bl.median(ops), bl.median(tops))
        counts = bl.counter_metrics(merge_counters(counters))
        m.update(counts)
        print_rungs(ladder, inputs.workload)
        log("preload pair %.1f ns @%dt, %.1f ns @1t; preload self %.1f /"
            " %.1f ns" % (m["preload.pair_ns"], inputs.w["threads"],
                          m["preload.pair_ns_1t"], m["preload.self_ns"],
                          m["preload.self_ns_1t"]))
        log("layer.unowned_ns %.1f" % m["layer.unowned_ns"])
        log("counters " + " ".join("%s=%g" % kv for kv in counts.items()))
        log("trace.overhead_x %.4f (untraced %.1f ops/s over traced %.1f)"
            % (m["trace.overhead_x"], bl.median(ops), bl.median(tops)))
        for e in spec["per_layer"]:
            metrics[e["name"]] = {"value": m[e["name"]], "unit": e["unit"]}
    return {"correct": bool(complete) and not bad, "attempted": attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    main()
