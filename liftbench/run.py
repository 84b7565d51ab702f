#!/usr/bin/env python3
"""liftbench: the STAGG lift benchmark, with a traced serving session.

Run from the repository root:

    python3 liftbench/run.py --workload lift_search --seed 1 --seconds 30 --trace 0

Builds the repository's libraries, the `stagg` CLI and the benchmark driver
(liftbench/CMakeLists.txt) into .bench_build/, runs one workload, checks every
output against its expectation and prints one JSON result line last:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the spans under .bench_build/liftbench-traces/).
See liftbench/README.md for the workloads and what each metric means.
"""

import argparse
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
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "liftbench")
STAGG = os.path.join(BUILD, "stagg", "stagg")
# The expectation files of the correctness gate; --expected and
# --inline-expected replace them (the benchmark's tests pass altered copies).
EXPECTED = os.path.join(ROOT, "tests", "expected_sweep.csv")
INLINE_EXPECTED = os.path.join(HERE, "inline_expected.csv")
expectations = {"sweep": EXPECTED, "inline": INLINE_EXPECTED}

WORKLOADS = ("lift_search", "lift_quick")
# Set-up is measured this many times per run and the median reported: it
# includes one untimed pass, which is short on lift_quick. Each spawn starts
# on another CPU (the driver's --cpu-offset), so the reps cover the CPUs.
SETUP_REPS = {"lift_search": 5, "lift_quick": 7}
# Build jobs, serve client connections and server lift workers: at most 4,
# never more than the host has cores.
PARALLEL = max(1, min(4, len(os.sched_getaffinity(0))))


def log(msg):
    print("liftbench: " + msg, file=sys.stderr, flush=True)


class Failure(Exception):
    pass


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(EXPECTED)):
        log("the STAGG sources are not next to liftbench/; run from a full "
            "checkout of the repository")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    return subprocess.call(
        ["cmake", "--build", BUILD, "--target", "liftbench", "stagg_cli",
         "-j", str(PARALLEL)], stdout=sys.stderr) == 0


def driver(*args):
    return [DRIVER, *args, "--expected", expectations["sweep"],
            "--inline-expected", expectations["inline"]]


def last_json(text, what):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise Failure(what + " printed no result")
    return json.loads(lines[-1])


def run_driver(args, what):
    """Runs the driver to completion; returns its result object."""
    proc = subprocess.run(driver(*args), stdout=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1):
        raise Failure("%s exited with %d" % (what, proc.returncode))
    return last_json(proc.stdout, what)


def spawn_until(cmd, marker, what, stderr=None):
    """Starts cmd and reads its stdout up to the first line containing marker.
    Returns (process, seconds from spawn to that line, the line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr,
                            text=True)
    for line in proc.stdout:
        if marker in line:
            return proc, time.perf_counter() - start, line
    proc.wait()
    raise Failure("%s exited with %d before printing %r"
                  % (what, proc.returncode, marker))


def stop(proc, timeout=20):
    """SIGTERM (graceful drain), then SIGKILL; always waits."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def trace_path(name, seed):
    d = os.path.join(BUILD, "liftbench-traces")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, "%s-seed%d.json" % (name, seed))


def merge(result, other):
    result["metrics"].update(other["metrics"])
    result["correct"] = result["correct"] and other["correct"]
    result["attempted"] += other["attempted"]
    result["failed"] += other["failed"]


def lift_run(name, seed, seconds):
    """The end-to-end run: set-up measured over several spawns, then the
    timed passes of the last one. Set-up is the CPU time a spawn has used
    when it prints "ready" (process start plus the warm-up pass), scaled to
    the reference machine like the passes (see src/Calibration.h); the
    spawn prints it on that line."""
    common = ["--workload", name, "--seed", str(seed), "--seconds",
              str(seconds)]
    setups = []
    for rep in range(SETUP_REPS[name]):
        last = rep + 1 == SETUP_REPS[name]
        cmd = driver("lift", *common, "--cpu-offset", str(rep),
                     *([] if last else ["--setup-only"]))
        proc, _, line = spawn_until(cmd, "ready", "lift")
        setups.append(float(line.split()[1]))
        out = proc.communicate()[0]
        if proc.returncode not in (0, 1):
            raise Failure("lift exited with %d" % proc.returncode)
        result = last_json(out, "lift")
        if not result["correct"]:
            return result
    result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                    "unit": "s"}
    return result


class Server:
    """One `stagg serve --listen` instance on a result-cache journal."""

    def __init__(self, workdir, journal, tag):
        self.log = open(os.path.join(workdir, "server-%s.log" % tag), "w")
        cmd = [STAGG, "serve", "--listen", "127.0.0.1:0", "--threads",
               str(PARALLEL), "--search-threads", "1", "--cache-file",
               journal]
        self.proc, self.setup_s, line = spawn_until(cmd, "listening on",
                                                    "stagg serve", self.log)
        self.port = int(line.strip().rsplit(":", 1)[1])
        # Keep draining stdout so the server can never block on it.
        self.drainer = threading.Thread(target=self.proc.stdout.read,
                                        daemon=True)
        self.drainer.start()

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise Failure("no VmHWM for the server")

    def stop(self):
        code = stop(self.proc)
        self.drainer.join()
        self.log.close()
        if code != 0:
            raise Failure("stagg serve exited with %d on SIGTERM" % code)


def serve_session(seed, seconds):
    """Serves the lift_quick kernels: one server warms a journal and is
    drained, a second one replays it at start-up and serves the traced
    client. Returns the client's result with the server's metrics added."""
    workdir = os.path.join(BUILD, "liftbench-runs", "serve-%d-%d"
                           % (seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    client = ["--seed", str(seed), "--conns", str(PARALLEL)]
    servers = []
    try:
        warm_journal = os.path.join(workdir, "warm.jsonl")
        servers.append(Server(workdir, warm_journal, "warm"))
        warm = run_driver(["serve-warm", "--port", str(servers[-1].port),
                           *client], "serve-warm")
        if not warm["correct"]:
            return warm
        servers.pop().stop()

        servers.append(Server(workdir, warm_journal, "timed"))
        setup_s = servers[-1].setup_s
        result = run_driver(
            ["serve-client", "--port", str(servers[-1].port), *client,
             "--seconds", str(seconds), "--trace-out",
             trace_path("serve", seed)], "serve-client")
        rss = servers[-1].peak_rss_mb()
        servers.pop().stop()
    finally:
        for s in servers:
            stop(s.proc)
    shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"]["serve.setup_s"] = {"value": setup_s, "unit": "s"}
    result["metrics"]["serve.peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return result


def traced_run(name, seed, seconds):
    """The per-layer run: the traced lift pipeline, and for lift_quick the
    traced serving session over the same kernels."""
    share = seconds / 2 if name == "lift_quick" else seconds
    result = run_driver(["layers", "--workload", name, "--seed", str(seed),
                         "--seconds", str(share), "--trace-out",
                         trace_path(name, seed)], "layers")
    if name == "lift_quick":
        merge(result, serve_session(seed, seconds - share))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", default=EXPECTED)
    ap.add_argument("--inline-expected", default=INLINE_EXPECTED)
    args = ap.parse_args()
    expectations["sweep"] = os.path.abspath(args.expected)
    expectations["inline"] = os.path.abspath(args.inline_expected)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 2
    if not build():
        log("build failed")
        return 2
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, args.seconds)
        else:
            result = lift_run(args.workload, args.seed, args.seconds)
    except (Failure, OSError, ValueError) as e:
        log(str(e))
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            value = got[m["name"]]["value"]
        elif args.trace:
            # Layers a workload does not drive (ingest, VM and serving on
            # lift_search) read 0.
            value = 0
        elif not result["correct"]:
            # A run stops at the first spawn whose outputs were wrong; the
            # result line then carries the metrics measured so far.
            continue
        else:
            log("no value for %s" % m["name"])
            return 2
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
