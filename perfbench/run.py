#!/usr/bin/env python3
"""perfbench: simulator speed of microscale on three workloads.

    python3 perfbench/run.py --workload teastore-saturated --seed 1 \\
        --seconds 35 --trace 0

Builds its own Release msim from the repository's sources (see
perfbench/native/CMakeLists.txt), then runs the workload as a closed
loop of one: msim processes back to back, one at a time, until
--seconds is spent. Every msim run ("rep") is checked (see check_rep)
and fingerprinted; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": reps, "failed": failed reps,
     "metrics": {name: {"value": v, "unit": u}, ...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of the link-wrapped msim_traced build. --coverage runs one
traced rep of every workload and lists the wrapped entry points that
none of them calls. perfbench/README.md explains the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NATIVE = os.path.join(HERE, "native")

# Mean think time of msim's closed-loop users (loadgen
# ClosedLoopParams::meanThink); msim has no flag for it.
THINK_S = 0.25
# Little's law gate: implied N = X * (R + Z) within this share of the
# configured users. Steady windows land within 2.5%; the warm-up
# transient of too-short windows lands 5-20% off.
LITTLE_TOLERANCE = 0.05
# Set-up reps per --trace 0 run: the workload's world with a tiny
# window, so the run samples set-up several times cheaply.
SETUP_REPS = 15
SETUP_WINDOW_S = 0.001
# Every run makes at least this many full reps, so fingerprints can be
# compared between reps of one seed.
MIN_REPS = 2
# A single msim process may not take longer than this; a run with a
# hung rep stops without a result, well inside the 180 s a run may take.
REP_TIMEOUT_S = 60

WORKLOADS = {
    # The paper's operating point: 128 logical CPUs saturated by 3000
    # closed-loop users.
    "teastore-saturated": {
        "args": ["--machine", "rome128", "--placement", "os-default",
                 "--users", "3000"],
        "warmup_s": 0.8, "measure_s": 0.8, "users": 3000,
    },
    # Deep RPC fan-out at ~11% utilisation: event core and mesh, not
    # the scheduler.
    "socialnet-hedged": {
        "args": ["--machine", "rome128", "--app", "socialnet",
                 "--fan-depth", "4", "--fan-width", "4",
                 "--straggler", "10", "--hedge-delay", "1.2",
                 "--hedge-budget", "0.5", "--open-loop-rps", "1200"],
        "warmup_s": 1.0, "measure_s": 4.0, "users": None,
    },
    # 4 x small8 over the LAN fabric with sharded, quorum-replicated
    # data: fabric sends, cache tier, quorum reads and writes.
    "cluster-quorum": {
        "args": ["--machine", "small8", "--nodes", "4", "--fabric", "lan",
                 "--shards", "4", "--cache-nodes", "2",
                 "--data-replication", "2", "--users", "600"],
        "warmup_s": 1.0, "measure_s": 3.0, "users": 600, "quorum": True,
    },
}

# Per-layer metrics: layers that schedule and cancel events.
EVENT_LAYERS = ["core", "sim", "cpu", "os", "net", "svc", "cluster"]


class BenchError(Exception):
    """The benchmark cannot produce a result (no numbers are printed)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def cmake_cache(bdir):
    cache = {}
    path = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.exists(path):
        return cache
    with open(path) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def build():
    """Configure and build msim_bench and msim_traced; return their paths."""
    for need in ("src/CMakeLists.txt", "tools/msim.cpp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"no {need} under {ROOT}: run from a "
                             "microscale checkout")
    bdir = build_dir()
    if cmake_cache(bdir).get("CMAKE_HOME_DIRECTORY") not in (None, NATIVE):
        shutil.rmtree(bdir)  # configured for another checkout
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", NATIVE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    # Flags come from native/CMakeLists.txt alone, not the environment.
    env = {k: v for k, v in os.environ.items()
           if k not in ("CXXFLAGS", "CPPFLAGS", "LDFLAGS")}
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    cache = cmake_cache(bdir)
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("build tree is not Release: "
                         f"{cache.get('CMAKE_BUILD_TYPE')!r}")
    return {v: os.path.join(bdir, f"msim_{v}") for v in ("bench", "traced")}


def check_stamp(probe, variant):
    """Refuse numbers from any build but the pinned Release one."""
    flags = probe.get("flags", "").split()
    problems = []
    if probe.get("variant") != variant:
        problems.append(f"variant {probe.get('variant')!r}")
    if probe.get("build_type") != "Release":
        problems.append(f"build type {probe.get('build_type')!r}")
    if "-O3" not in flags or "-DNDEBUG" not in flags:
        problems.append(f"flags {probe.get('flags')!r}")
    if probe.get("ndebug") is not True:
        problems.append("NDEBUG unset")
    if probe.get("sanitizers") != "none" or \
            any(f.startswith("-fsanitize") for f in flags):
        problems.append("sanitizers on")
    if problems:
        raise BenchError("unpinned build: " + ", ".join(problems))


# ----------------------------------------------------------------- reps

def msim_args(workload, seed, window_s=None):
    w = WORKLOADS[workload]
    warmup = w["warmup_s"] if window_s is None else window_s
    measure = w["measure_s"] if window_s is None else window_s
    args = w["args"] + ["--seed", str(seed), "--warmup-s", str(warmup),
                        "--measure-s", str(measure), "--jobs", "1",
                        "--json"]
    return args, warmup + measure


def run_rep(binary, variant, args, workdir):
    """Run one msim process; return its outputs, probe report and RSS."""
    out_path = os.path.join(workdir, "out.json")
    probe_path = os.path.join(workdir, "probe.json")
    for p in (out_path, probe_path):
        if os.path.exists(p):
            os.remove(p)
    env = dict(os.environ, PERFBENCH_PROBE_OUT=probe_path)
    with open(out_path, "w") as out, \
            open(os.path.join(workdir, "err.txt"), "w") as err:
        proc = subprocess.Popen([binary] + args, stdout=out, stderr=err,
                                env=env, cwd=workdir)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(REP_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        raise BenchError(f"msim ran longer than {REP_TIMEOUT_S} s: "
                         + " ".join(args))
    rep = {"rc": proc.returncode, "result": None, "probe": None}
    try:
        with open(out_path) as f:
            rep["result"] = json.load(f)
        with open(probe_path) as f:
            rep["probe"] = json.load(f)
    except (OSError, ValueError):
        pass
    if rep["probe"] is not None:
        check_stamp(rep["probe"], variant)
    return rep


def fingerprint(result):
    """Digest of msim's whole JSON result (it holds no wall-clock data)."""
    canon = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def check_rep(rep, workload, sim_s, steady):
    """Return why a rep is wrong, or None. Fingerprints are compared later.

    `steady` marks a full-window rep, whose closed loop must satisfy
    Little's law; set-up reps are too short to reach steady state.
    """
    if rep["rc"] != 0:
        return f"exit code {rep['rc']}"
    res, probe = rep["result"], rep["probe"]
    if res is None or probe is None:
        return "missing msim result or probe report"
    if probe["loop_calls"] < 2 or probe["loop_ns"] <= 0:
        return "event loop not observed"
    if probe["sim_end_ticks"] < round(sim_s * 1e9):
        return f"simulation stopped at {probe['sim_end_ticks']} ns"
    # msim counts events up to the end of the measure window; a drain
    # (a third loop call) fires more after it.
    counted, fired = res.get("events_processed", -1), probe["events_fired"]
    if counted > fired or (probe["loop_calls"] == 2 and counted != fired):
        return f"msim counted {counted} events, the probe saw {fired}"
    w = WORKLOADS[workload]
    if steady and not res.get("throughput_rps", 0) > 0:
        return "no throughput"
    if w["users"] and steady:
        implied = res["throughput_rps"] * (
            res["latency"]["mean_ms"] / 1e3 + THINK_S)
        if abs(implied / w["users"] - 1) > LITTLE_TOLERANCE:
            return (f"Little's law: implied N={implied:.0f} for "
                    f"{w['users']} users")
    if w.get("quorum"):
        rp = res.get("replication", {})
        if not (rp.get("consistency_checked") == 1
                and rp.get("lost_acked_writes") == 0
                and rp.get("stale_quorum_reads") == 0):
            return ("quorum check: lost="
                    f"{rp.get('lost_acked_writes')} "
                    f"stale={rp.get('stale_quorum_reads')}")
    return None


def gate_fingerprints(reps):
    """Fail reps whose fingerprint differs from the group's majority."""
    prints = [fingerprint(r["result"]) for r in reps if not r["why"]]
    if not prints:
        return
    ref = max(set(prints), key=prints.count)
    for r in reps:
        if not r["why"] and fingerprint(r["result"]) != ref:
            r["why"] = "fingerprint differs from the other reps"


class Runner:
    """Runs reps of one workload and seed, recording each outcome."""

    def __init__(self, workload, seed, binaries, workdir):
        self.workload = workload
        self.seed = seed
        self.binaries = binaries
        self.workdir = workdir
        self.reps = []

    def rep(self, variant, kind, window_s=None):
        args, sim_s = msim_args(self.workload, self.seed, window_s)
        t0 = time.monotonic()
        r = run_rep(self.binaries[variant], variant, args, self.workdir)
        r.update(kind=kind, variant=variant, sim_s=sim_s,
                 wall_s=time.monotonic() - t0)
        r["why"] = check_rep(r, self.workload, sim_s, window_s is None)
        self.reps.append(r)
        return r

    def of(self, kind, variant=None):
        return [r for r in self.reps if r["kind"] == kind
                and (variant is None or r["variant"] == variant)]

    def full_reps(self, deadline, variants):
        """Full reps, cycling over `variants`, until the deadline."""
        longest = 0.0
        i = 0
        while True:
            done = len(self.of("full"))
            if done >= MIN_REPS * len(variants) and \
                    time.monotonic() + longest > deadline:
                break
            r = self.rep(variants[i % len(variants)], "full")
            longest = max(longest, r["wall_s"])
            i += 1

    @property
    def failed(self):
        return [r for r in self.reps if r["why"]]


def sim_rate(r):
    return r["sim_s"] / (r["probe"]["loop_ns"] / 1e9)


def rss_mb(r):
    return r["probe"]["peak_rss_kb"] / 1024.0


def median_of(reps, fn):
    values = [fn(r) for r in reps if not r["why"]]
    if not values:
        raise BenchError("no correct rep to measure")
    return statistics.median(values)


# -------------------------------------------------------------- metrics

def end_to_end(runner):
    full = runner.of("full")
    return {
        "sim_s_per_wall_s": (median_of(full, sim_rate), "sim-s/s"),
        "setup_s": (median_of(runner.reps,
                              lambda r: r["probe"]["setup_ns"] / 1e9), "s"),
        "peak_rss_mb": (median_of(full, rss_mb), "MiB"),
    }


def entry_table(probe):
    """Entries summed by name (overloads share one)."""
    table = {}
    for e in probe["entries"]:
        t = table.setdefault(e["name"], {
            "timed": e["timed"], "present": True, "calls": 0,
            "self_ns": 0, "by_layer": dict.fromkeys(e["by_layer"], 0)})
        t["present"] = t["present"] and e["present"]
        t["calls"] += e["calls"]
        t["self_ns"] += e["self_ns"]
        for layer, n in e["by_layer"].items():
            t["by_layer"][layer] += n
    return table


LOOP_ENTRIES = ("sim.Simulation.runUntil", "sim.Simulation.run")
EVENT_ENTRIES = ("sim.Simulation.heapPush", "sim.Simulation.cancelEvent")


def per_layer(traced, untraced):
    """Per-layer metrics: median over traced reps of each value."""
    samples = {}
    for r in traced:
        if r["why"]:
            continue
        probe = r["probe"]
        loop_s = probe["loop_ns"] / 1e9
        table = entry_table(probe)
        fired = probe["events_fired"]
        push = table["sim.Simulation.heapPush"]
        cancel = table["sim.Simulation.cancelEvent"]
        m = {
            "sim.events_fired": (fired, "count"),
            "sim.events_scheduled": (push["calls"], "count"),
            "sim.events_cancelled": (cancel["calls"], "count"),
            "sim.fired_per_scheduled":
                (fired / max(push["calls"], 1), "ratio"),
        }
        for layer in EVENT_LAYERS:
            m[f"sim.scheduled_by.{layer}"] = (push["by_layer"][layer],
                                              "count")
            m[f"sim.cancelled_by.{layer}"] = (cancel["by_layer"][layer],
                                              "count")
        residual = sum(table[n]["self_ns"] for n in LOOP_ENTRIES) / 1e9
        m["sim.residual_s"] = (residual, "s")
        m["sim.residual_share"] = (residual / loop_s, "fraction")
        for name, t in table.items():
            if name in LOOP_ENTRIES or name in EVENT_ENTRIES:
                continue
            m[f"{name}.calls"] = (t["calls"], "count")
            if t["timed"]:
                m[f"{name}.self_s"] = (t["self_ns"] / 1e9, "s")
                m[f"{name}.share"] = (t["self_ns"] / 1e9 / loop_s,
                                      "fraction")
        m["cpu.scheduled_per_startRun"] = (
            push["by_layer"]["cpu"] / max(table["cpu.startRun"]["calls"], 1),
            "ratio")
        m["base.CpuMask.next_per_event"] = (
            table["base.CpuMask.next"]["calls"] / max(fired, 1), "ratio")
        m["trace.entries_absent"] = (
            sum(not t["present"] for t in table.values()), "count")
        m["trace.entries_not_called"] = (
            sum(t["present"] and not t["calls"] for t in table.values()),
            "count")
        for k, v in m.items():
            samples.setdefault(k, []).append(v)
    if not samples:
        raise BenchError("no correct traced rep")
    metrics = {k: (statistics.median(x for x, _ in v), v[0][1])
               for k, v in samples.items()}
    metrics["trace_overhead"] = (
        median_of(traced, lambda r: r["probe"]["loop_ns"])
        / median_of(untraced, lambda r: r["probe"]["loop_ns"]), "ratio")
    return metrics


def coverage_lines(probe):
    table = entry_table(probe)
    absent = sorted(n for n, t in table.items() if not t["present"])
    idle = sorted(n for n, t in table.items()
                  if t["present"] and not t["calls"])
    return absent, idle


# ----------------------------------------------------------------- main

def stamp_line(workload, seed, probe):
    return (f"perfbench workload={workload} seed={seed} "
            f"build={probe['build_type']} flags=\"{probe['flags']}\" "
            f"compiler=\"{probe['compiler']}\" "
            f"nproc={len(os.sched_getaffinity(0))} "
            f"cpu=\"{probe.get('cpu', 'unknown')}\"")


def fingerprint_line(result):
    lat = result["latency"]
    sched = result["sched"]
    return (f"fingerprint {fingerprint(result)}: "
            f"tput={result['throughput_rps']} req/s "
            f"p50={lat['p50_ms']:.3f} ms p99={lat['p99_ms']:.3f} ms "
            f"events={result['events_processed']} "
            f"cpus_busy={result['total']['cpus_busy']:.3f} "
            f"wakeups={sched['wakeups']} "
            f"context_switches={sched['context_switches']} "
            f"migrations={sched['migrations']}")


def measure(args, binaries, workdir):
    runner = Runner(args.workload, args.seed, binaries, workdir)
    deadline = time.monotonic() + args.seconds
    if args.trace:
        runner.full_reps(deadline, ["bench", "traced"])
    else:
        for _ in range(SETUP_REPS):
            runner.rep("bench", "setup", SETUP_WINDOW_S)
        gate_fingerprints(runner.of("setup"))
        runner.full_reps(deadline, ["bench"])
    full = runner.of("full")
    gate_fingerprints(full)

    first = next((r for r in runner.reps if r["probe"]), None)
    if first:
        print(stamp_line(args.workload, args.seed, first["probe"]))
    good = next((r for r in full if not r["why"]), None)
    if good:
        print(fingerprint_line(good["result"]))
    for i, r in enumerate(runner.reps):
        seen = r["probe"] is not None and r["probe"]["loop_ns"] > 0
        figures = (f"sim/wall={sim_rate(r):.3f} "
                   f"setup={r['probe']['setup_ns'] / 1e9:.4f} s "
                   f"rss={rss_mb(r):.1f} MiB " if seen else "")
        print(f"rep {i + 1} {r['kind']}/{r['variant']}: {figures}"
              f"{'FAILED: ' + r['why'] if r['why'] else 'ok'}")

    if args.trace:
        traced = runner.of("full", "traced")
        untraced = runner.of("full", "bench")
        metrics = per_layer(traced, untraced)
        good = next(r for r in traced if not r["why"])
        absent, idle = coverage_lines(good["probe"])
        print(f"absent entry points: {', '.join(absent) or 'none'}")
        print(f"entry points not called on {args.workload}: "
              f"{', '.join(idle) or 'none'}")
        same = {fingerprint(r["result"]) for r in traced} == \
            {fingerprint(r["result"]) for r in untraced}
        print(f"sim.residual_share "
              f"{metrics['sim.residual_share'][0]:.3f} of traced wall; "
              f"traced fingerprint "
              f"{'equals' if same else 'differs from'} untraced")
    else:
        metrics = end_to_end(runner)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    failed = len(runner.failed)
    print(f"failed_share {failed / len(runner.reps):.6g} fraction "
          f"({failed} of {len(runner.reps)} runs)")
    return {
        "correct": failed == 0,
        "attempted": len(runner.reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def coverage(seed, binaries, workdir):
    """List wrapped entry points that are absent or that no workload calls."""
    absent, never = set(), None
    for workload in WORKLOADS:
        r = Runner(workload, seed, binaries, workdir).rep("traced", "full")
        if r["why"]:
            raise BenchError(f"{workload}: traced rep failed: {r['why']}")
        a, idle = coverage_lines(r["probe"])
        print(f"{workload}: not called: {', '.join(idle) or 'none'}")
        absent |= set(a)
        never = set(idle) if never is None else never & set(idle)
    print(f"absent entry points: {', '.join(sorted(absent)) or 'none'}")
    print(f"entry points no workload calls: "
          f"{', '.join(sorted(never)) or 'none'}")
    return 1 if absent or never else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--coverage", action="store_true",
                    help="list wrapped entry points no workload calls")
    args = ap.parse_args()
    if not args.coverage and not args.workload:
        ap.error("--workload is required")

    workdir = os.path.join(build_dir(), "runs", str(os.getpid()))
    try:
        binaries = build()
        os.makedirs(workdir, exist_ok=True)
        if args.coverage:
            return coverage(args.seed, binaries, workdir)
        result = measure(args, binaries, workdir)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
