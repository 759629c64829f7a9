"""Pure parts of run.py: seeded inputs, the workload and
rung tables, statistics, and the metric arithmetic. run.py does the
building and process handling; selfcheck.py tests this module."""

import statistics

M64 = (1 << 64) - 1

# ---------------------------------------------------------------------
# Workloads. Every process runs `threads` threads of its own; with the
# telemetry collector that is at most 4 (nproc on the reference box).
# `rounds` replays each thread's sequence so one child does a fixed
# amount of work; the ladder replays it `ladder_rounds` times.
# ---------------------------------------------------------------------
FULL_STACK = {"RESILOCK_PARK": "1", "RESILOCK_LOCKSTAT": "1",
              "RESILOCK_TELEMETRY": "1"}

WORKLOADS = {
    "ledger": dict(threads=3, seq_len=4096, rounds=24, ladder_rounds=4,
                   think=128, env={}, top="shim"),
    "rwcache": dict(threads=3, seq_len=4096, rounds=20, ladder_rounds=4,
                    think=256, env={}, top="shim"),
    "pipeline": dict(threads=3, seq_len=4096, rounds=12, ladder_rounds=4,
                     think=0, env={}, top="shim"),
    "misuse-storm": dict(threads=3, seq_len=4096, rounds=16,
                         ladder_rounds=4, think=128, env=FULL_STACK,
                         top="telemetry"),
}

# The ladder: one process per rung, each adding one layer to the rung
# beneath it. Rungs are selected only through public entry points (the
# backend) and documented RESILOCK_* knobs (the env).
RUNGS = [
    ("glibc", "glibc", {}),
    ("core", "registry:MCS", {"RESILOCK_SHIELD": "0"}),
    ("shield", "registry:shield<MCS>", {"RESILOCK_LOCKDEP": "off"}),
    ("lockdep", "registry:shield<MCS>", {}),
    ("shim", "rl", {}),
    ("lockstat", "rl", {"RESILOCK_LOCKSTAT": "1"}),
    ("park", "rl", {"RESILOCK_LOCKSTAT": "1", "RESILOCK_PARK": "1"}),
    ("telemetry", "rl", dict(FULL_STACK)),
    ("decide", "decide", {}),
]
PAIR_CHAIN = ["core", "shield", "lockdep", "shim", "lockstat", "park",
              "telemetry"]


# ---------------------------------------------------------------------
# Seeded inputs.
# ---------------------------------------------------------------------
class Rng:
    """splitmix64: the same seed gives the same stream on any Python."""

    def __init__(self, seed):
        self.s = seed & M64

    def next(self):
        self.s = (self.s + 0x9E3779B97F4A7C15) & M64
        z = self.s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def uniform(self):
        return (self.next() >> 11) / float(1 << 53)


def thread_rng(workload, seed, tid):
    salt = sum(ord(c) * 131 ** k for k, c in enumerate(workload)) & M64
    return Rng((seed * 0x100000001B3) ^ salt ^ ((tid + 1) << 40))


def gen_sequences(workload, seed, threads, seq_len, inject):
    """Per-thread op codes (see workload.hpp for the encoding)."""
    seqs = []
    for tid in range(threads):
        r = thread_rng(workload, seed, tid)
        ops = []
        if workload in ("ledger", "misuse-storm"):
            for _ in range(seq_len):
                i = 0 if r.uniform() < 0.25 else r.below(64)
                j = r.below(64)
                if j == i:
                    j = (j + 1) % 64
                ops.append(i | j << 8 | r.below(100) << 16 |
                           (1 << 24 if inject else 0))
        elif workload == "rwcache":
            for _ in range(seq_len):
                write = 1 if r.uniform() < 0.1 else 0
                ops.append(r.below(256) | write << 16)
        elif workload == "pipeline":
            if tid == 0:
                ops = [r.below(65536) for _ in range(seq_len)]
        else:
            raise ValueError("unknown workload " + workload)
        seqs.append(ops)
    return seqs


def ops_text(workload, rounds, think, seqs):
    lines = ["stackbench-ops 1 %s %d %d %d" % (workload, len(seqs), rounds,
                                               think)]
    for s in seqs:
        lines.append(" ".join([str(len(s))] + [str(v) for v in s]))
    return "\n".join(lines) + "\n"


def attempted_ops(workload, rounds, seqs):
    if workload == "pipeline":
        return len(seqs[0]) * rounds
    return sum(len(s) for s in seqs) * rounds


# ---------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------
def median(values):
    return float(statistics.median(values))


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def pair_order(k, first="bare", second="stack"):
    """Side order of the k-th pair: alternates every pair."""
    return (first, second) if k % 2 == 0 else (second, first)


# ---------------------------------------------------------------------
# Metric arithmetic over child results (the parsed JSON lines).
# ---------------------------------------------------------------------
def span(res, kind, q="p50", calls=1):
    """A span percentile from one child, net of its timer cost."""
    s = res["spans"].get(kind)
    if not s or s["n"] == 0:
        return None
    return s[q] - calls * res["timer_ns"]


def probe(res, kind, calls=1):
    s = res["probe"].get(kind)
    if not s or s["n"] == 0:
        return None
    return s["p50"] - calls * res["timer_ns"]


CALLS = {"pair": 2, "rd_pair": 2, "wr_pair": 2}


def spans_or_probe(t_results, one_results, kind):
    """Median over processes of a span kind: from the T-thread runs when
    their pattern makes the call, else from the one-thread probe."""
    calls = CALLS.get(kind, 1)
    vals = [span(r, kind, calls=calls) for r in t_results]
    vals = [v for v in vals if v is not None]
    if vals:
        return median(vals)
    vals = [probe(r, kind, calls=calls) for r in one_results]
    vals = [v for v in vals if v is not None]
    return median(vals) if vals else 0.0


def ladder_values(t_runs, one_runs, workload):
    """Per-rung medians. t_runs / one_runs: {rung: [child results]}.
    Returns {suffix: {rung: {kind: ns}}} for suffix "" and "_1t"."""
    out = {}
    for suffix in ("", "_1t"):
        table = {}
        for rung, _, _ in RUNGS:
            t = t_runs[rung] if suffix == "" else one_runs[rung]
            one = one_runs[rung]
            row = {}
            for kind in ("pair", "unlock_call", "misuse", "decide"):
                row[kind] = spans_or_probe(t, one, kind)
            if workload == "rwcache":
                row["rw"] = row["pair"]
            else:
                row["rw"] = (spans_or_probe([], one, "rd_pair") +
                             spans_or_probe([], one, "wr_pair")) / 2
            table[rung] = row
        out[suffix] = table
    return out


def layer_metrics(workload, ladder, app_t, app_one, untraced_ops,
                  traced_ops):
    """Every per-layer time metric. ladder: ladder_values(); app_t and
    app_one: traced stackbench_app results under the preload at T
    threads and at one thread (with the probe)."""
    m = {}
    top = WORKLOADS[workload]["top"]
    for suffix, app in (("", app_t), ("_1t", app_one)):
        L = ladder[suffix]

        def d(a, b, kind="pair"):
            return L[a][kind] - L[b][kind]

        m["glibc.pair_ns" + suffix] = L["glibc"]["pair"]
        m["core.pair_ns" + suffix] = L["core"]["pair"]
        m["shield.self_ns" + suffix] = d("shield", "core")
        m["shield.rw_self_ns" + suffix] = d("shield", "core", "rw")
        m["shield.misuse_path_ns" + suffix] = L["shield"]["misuse"]
        m["lockdep.self_ns" + suffix] = d("lockdep", "shield")
        m["shim.self_ns" + suffix] = d("shim", "lockdep")
        m["lockstat.self_ns" + suffix] = d("lockstat", "shim")
        m["park.self_ns" + suffix] = d("park", "lockstat")
        m["park.wake_ns" + suffix] = d("park", "lockstat", "unlock_call")
        m["telemetry.self_ns" + suffix] = d("telemetry", "park")
        m["telemetry.emit_ns" + suffix] = d("telemetry", "park", "misuse")
        m["response.decide_ns" + suffix] = L["decide"]["decide"]
        pair = spans_or_probe(app, app_one, "pair")
        m["preload.pair_ns" + suffix] = pair
        m["preload.self_ns" + suffix] = pair - L[top]["pair"]
        for kind in ("rd_pair", "wr_pair", "cond_signal", "cond_wait"):
            m["preload.%s_ns%s" % (kind, suffix)] = spans_or_probe(
                app, app_one, kind)
    waits = [span(r, "lock_call", "p50") for r in app_t]
    m["lock.wait_ns_p50"] = median([v for v in waits if v is not None])
    waits = [span(r, "lock_call", "p99") for r in app_t]
    m["lock.wait_ns_p99"] = median([v for v in waits if v is not None])
    # The T-thread rungs own the in-process stack; the preload entry is
    # charged its one-thread cost. What is left has no owning rung.
    m["layer.unowned_ns"] = m["preload.self_ns"] - m["preload.self_ns_1t"]
    m["trace.overhead_x"] = untraced_ops / traced_ops
    return m


def ratio(num, den):
    return float(num) / den if den else 0.0


def counter_metrics(c):
    """Layer counters from the preload stats file and the JSON metrics
    snapshot, reported as counts (ratios of counts where named so)."""
    return {
        "preload.self_adoptions": c["adopted_mutexes"] + c["adopted_rwlocks"]
        - c["static_locks"],
        "lockdep.edges": c["lockdep.edges"],
        "lockdep.classes_live": c["lockdep.classes_live"],
        "response.decisions": c["response.decisions"],
        "response.action.suppress": c["response.action.suppress"],
        "park.parks": c["park.parks"],
        "park.wakes": c["park.wakes"],
        "park.useful_wake_ratio": ratio(
            c["park.wakes"], c["park.wakes"] + c["park.wakes_spurious"]),
        "lockstat.acquisitions": c["lockstat.acquisitions"],
        "lockstat.contention_ratio": ratio(c["lockstat.contentions"],
                                           c["lockstat.acquisitions"]),
        "trace.events_emitted": c["trace.events_emitted"],
        "trace.events_dropped": c["trace.events_dropped"],
        "telemetry.delivered_ratio": ratio(c["collector.events_delivered"],
                                           c["trace.events_emitted"]),
    }


COUNTER_KEYS = ["adopted_mutexes", "adopted_rwlocks", "lockdep.edges",
                "lockdep.classes_live", "response.decisions",
                "response.action.suppress", "park.parks", "park.wakes",
                "park.wakes_spurious", "lockstat.acquisitions",
                "lockstat.contentions", "trace.events_emitted",
                "trace.events_dropped", "collector.events_delivered"]


# ---------------------------------------------------------------------
# Which end-to-end metric each per-layer metric should move, on which
# workload, and where the prediction is no change (NOTES.md has the
# prose). A "_1t" name maps like its base name.
# ---------------------------------------------------------------------
E2E_REPORT_ONLY = {
    # Printed by every run but kept out of BENCHMARK.json: both read a
    # constant (0 and 1) on a correct stack, and the result line's
    # "failed" and "correct" already carry them.
    "failed_share": "share",
    "misuse_caught_share": "share",
}

ALL = ["ledger", "rwcache", "pipeline", "misuse-storm"]
MS = ["misuse-storm"]
NOT_MS = ["ledger", "rwcache", "pipeline"]

LAYER_MAP = {
    "glibc.pair_ns": ("reference", [], ALL, []),
    "preload.pair_ns": ("interpose", ["op_p50_ns", "ops_per_s"], ["ledger"],
                        ["pipeline"]),
    "preload.self_ns": ("interpose", ["op_p50_ns", "ops_per_s"], ["ledger"],
                        ["pipeline"]),
    "preload.rd_pair_ns": ("interpose", ["op_p50_ns"], ["rwcache"],
                           ["ledger"]),
    "preload.wr_pair_ns": ("interpose", ["op_p50_ns"], ["rwcache"],
                           ["ledger"]),
    "preload.cond_signal_ns": ("interpose", ["ops_per_s", "cpu_ns_per_op"],
                               ["pipeline"], ["ledger", "rwcache"]),
    "preload.cond_wait_ns": ("interpose", ["ops_per_s", "cpu_ns_per_op"],
                             ["pipeline"], ["ledger", "rwcache"]),
    "preload.self_adoptions": ("interpose", ["failed_share"], ALL, []),
    "shim.self_ns": ("interpose", ["op_p50_ns"], ["ledger"], ["pipeline"]),
    "core.pair_ns": ("core", ["op_p99_ns"], ["ledger"], ["rwcache"]),
    "lock.wait_ns_p50": ("core", ["op_p99_ns"], ["ledger"], ["rwcache"]),
    "lock.wait_ns_p99": ("core", ["op_p99_ns"], ["ledger"], ["rwcache"]),
    "shield.self_ns": ("shield", ["op_p50_ns"], ["ledger", "rwcache"],
                       ["pipeline"]),
    "shield.rw_self_ns": ("shield", ["op_p50_ns"], ["ledger", "rwcache"],
                          ["pipeline"]),
    "shield.misuse_path_ns": ("shield", ["ops_per_s"], MS, ["ledger"]),
    "lockdep.self_ns": ("lockdep", ["op_p50_ns"], ["ledger"], ["rwcache"]),
    "lockdep.edges": ("lockdep", ["op_p50_ns"], ["ledger"], ["rwcache"]),
    "lockdep.classes_live": ("lockdep", ["op_p50_ns"], ["ledger"],
                             ["rwcache"]),
    "response.decide_ns": ("response", ["ops_per_s"], MS, NOT_MS),
    "response.decisions": ("response", ["ops_per_s"], MS, NOT_MS),
    "response.action.suppress": ("response", ["ops_per_s"], MS, NOT_MS),
    "park.parks": ("park", ["cpu_ns_per_op", "op_p99_ns"], MS, NOT_MS),
    "park.wakes": ("park", ["cpu_ns_per_op", "op_p99_ns"], MS, NOT_MS),
    "park.useful_wake_ratio": ("park", ["cpu_ns_per_op", "op_p99_ns"], MS,
                               NOT_MS),
    "park.wake_ns": ("park", ["cpu_ns_per_op", "op_p99_ns"], MS, NOT_MS),
    "park.self_ns": ("park", ["cpu_ns_per_op", "op_p99_ns"], MS, NOT_MS),
    "lockstat.self_ns": ("observe", ["ops_per_s"], MS, NOT_MS),
    "lockstat.acquisitions": ("observe", ["ops_per_s"], MS, NOT_MS),
    "lockstat.contention_ratio": ("observe", ["ops_per_s"], MS, NOT_MS),
    "telemetry.emit_ns": ("telemetry", ["ops_per_s"], MS, NOT_MS),
    "telemetry.self_ns": ("telemetry", ["ops_per_s"], MS, NOT_MS),
    "trace.events_emitted": ("telemetry", ["ops_per_s"], MS, NOT_MS),
    "trace.events_dropped": ("telemetry", ["ops_per_s"], MS, NOT_MS),
    "telemetry.delivered_ratio": ("telemetry", ["ops_per_s"], MS, NOT_MS),
    "layer.unowned_ns": ("unowned", [], ALL, []),
    "trace.overhead_x": ("tracing", [], ALL, []),
}


def base_name(name):
    return name[:-3] if name.endswith("_1t") else name
