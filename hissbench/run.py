#!/usr/bin/env python3
"""Repository benchmark: regenerates paper-shaped grids and figure harnesses.

Run from the repository root:

    python3 hissbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

    interference    13 PARSEC x 6 GPU apps, demand paged    (ExperimentBatch)
    baseline        the 19 pinned "no SSR" denominator cells (ExperimentBatch)
    ssr_campaign    192 GPU-only SSR cells: build, cold run, resume, merge
    serial_figures  fig4 / fig9 / sec4c harnesses, stdout compared byte-exact

The script builds the driver (hissbench/driver.cc) and the three
harnesses from one CMake binary directory under .bench_build/ (the
benchmark's CMakeLists.txt pulls in the repository's project, so both
link the same library), then measures whole passes for
--seconds seconds in a fresh temporary directory. Every pass is checked
against the committed references in hissbench/references/. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

Other modes:
    --selftest   show that a perturbed reference is reported as a failure
    --record     rewrite hissbench/references/ from the current code
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH_DIR = "hissbench"
BUILD_DIR = ".bench_build"
REFERENCE_DIR = os.path.join(BENCH_DIR, "references")
DIGESTS = os.path.join(REFERENCE_DIR, "digests.json")
GRID_WORKLOADS = ("interference", "baseline", "ssr_campaign")
WORKLOADS = GRID_WORKLOADS + ("serial_figures",)
HARNESSES = (
    ("fig4", "fig4_cc6_residency"),
    ("fig9", "fig9_sleep_mitigations"),
    ("sec4c", "sec4c_interrupt_analysis"),
)
REFERENCE_SEEDS = range(1, 17)  # must match kReferenceSeeds in driver.cc
SETUP_SAMPLES = 9  # set-up samples per harness and pass, as in driver.cc
HARNESS_TIMEOUT_S = 150

class BenchError(Exception):
    """A failure that makes the run unusable (no result is printed)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def jobs():
    return min(4, os.cpu_count() or 1)


CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")


def driver_path():
    return os.path.join(CMAKE_DIR, "hissbench_driver")


def harness_path(binary):
    return os.path.join(CMAKE_DIR, "repo", "bench", binary)


def run_quiet(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise BenchError("build step failed: " + " ".join(cmd))


def build():
    """Configure (once) and build the driver and the three harnesses."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join(BENCH_DIR, "CMakeLists.txt")):
        if not os.path.isfile(needed):
            raise BenchError("not a repository checkout: %s missing" % needed)
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_quiet(["cmake", "--build", CMAKE_DIR, "-j", str(jobs()), "--target",
               "hissbench_driver"] + [binary for _, binary in HARNESSES])


def metric_units(kind):
    """Metric name -> unit for "end_to_end" or "per_layer"."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def read_reference(name):
    with open(os.path.join(REFERENCE_DIR, name + ".stdout"), "rb") as f:
        return f.read()


def run_driver(workload, seed, seconds, tmp, extra=()):
    """Run the driver to completion and return its JSON records."""
    cmd = [driver_path(), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--jobs", str(jobs()), "--tmp", tmp]
    result = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE,
                            stderr=sys.stderr, timeout=170)
    if result.returncode != 0:
        raise BenchError("driver exited with %d" % result.returncode)
    return [json.loads(line) for line in result.stdout.decode().splitlines()
            if line.startswith("{")]


class Tally:
    """Operations attempted/failed and whether every check passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.correct = False


def check_pass(workload, record, digests, tally):
    """Count a pass's cells, failing them all on a reference mismatch."""
    seed = str(record["sim_seed"])
    expected = digests.get(workload, {}).get(seed)
    got = record["digest"]
    failed = record["failed"]
    for error in record["errors"]:
        log("hissbench: %s seed %s: %s" % (workload, seed, error))
    if expected is None:
        log("hissbench: %s seed %s has no reference; digest %s"
            % (workload, seed, got))
        failed = record["attempted"]
    elif expected != got:
        log("hissbench: %s seed %s digest %s != reference %s"
            % (workload, seed, got, expected))
        failed = record["attempted"]
    print("# %s seed=%s digest=%s wall_s=%.4f cpu_s=%.4f resume_s=%.4f"
          % (workload, seed, got, record["wall_s"], record["cpu_s"],
             record["resume_s"]))
    tally.record(record["attempted"], failed)


def run_grid(args, tmp, digests, tally):
    if args.trace:
        records = run_driver(args.workload, args.seed, args.seconds,
                             os.path.join(tmp, "run"), ["--trace"])
    else:
        records = run_driver(args.workload, args.seed, args.seconds,
                             os.path.join(tmp, "run"))
    passes = [r for r in records if r["type"] == "pass"]
    end = [r for r in records if r["type"] == "end"]
    if not passes or not end:
        raise BenchError("driver printed no passes")
    for r in records:
        if r["type"] == "fingerprint":
            print("# fingerprint " + json.dumps(r, sort_keys=True))
    for p in passes:
        check_pass(args.workload, p, digests, tally)
    if args.trace:
        traces = [r for r in records if r["type"] == "trace"]
        if not traces:
            raise BenchError("driver printed no trace")
        metrics = traces[0]["metrics"]
        print("# tracing overhead: traced/untraced wall_s = %.4f"
              % metrics["trace.overhead_ratio"])
        return metrics
    cells = [ms for p in passes for ms in p["cell_ms"]]
    if args.workload == "ssr_campaign":
        print("# resume_s (resume pass + merge) median = %.6f"
              % statistics.median(p["resume_s"] for p in passes))
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "cell_ms_p50": statistics.median(cells),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": end[0]["peak_rss_mb"],
    }


class Harness:
    """One finished harness run, timed and checked by run_harness."""

    def __init__(self, code, out, wall, setup, cpu, rss):
        self.code = code      # exit code
        self.out = out        # stdout bytes
        self.wall = wall      # s, spawn to exit
        self.setup = setup    # s, spawn to the first byte on stderr
        self.cpu = cpu        # s, the child's user + sys
        self.rss = rss        # MiB, the child's peak


def run_harness(binary):
    """Run one harness to completion and time it.

    Its set-up ends at its first stderr byte: each harness prints an
    unbuffered progress note on stderr just before it starts its first
    simulation. stdout is a pipe, so it arrives only at exit. os.wait4
    gives this child's own CPU time and peak RSS, which the process-wide
    RUSAGE_CHILDREN would mix with the compiler's.
    """
    start = time.monotonic()
    proc = subprocess.Popen([harness_path(binary), "--jobs", str(jobs())],
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    first_err = []

    def drain_stderr():
        if proc.stderr.read(1):
            first_err.append(time.monotonic())
        proc.stderr.read()

    reader = threading.Thread(target=drain_stderr)
    reader.start()
    watchdog = threading.Timer(HARNESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        reader.join()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    end = time.monotonic()
    setup = (first_err[0] if first_err else end) - start
    return Harness(proc.returncode, out, end - start, setup,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def harness_setup(binary):
    """One more set-up sample: spawn a harness, and kill it at its
    first stderr byte, where run_harness ends its set-up."""
    start = time.monotonic()
    proc = subprocess.Popen([harness_path(binary), "--jobs", str(jobs())],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    try:
        proc.stderr.read(1)
        return time.monotonic() - start
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def check_capture(binary, code, out, reference):
    """A harness run passes only with exit 0 and byte-exact stdout."""
    ok = code == 0 and out == reference
    if not ok:
        log("hissbench: %s exit %d, stdout %s the reference"
            % (binary, code,
               "matches" if out == reference else "differs from"))
    return ok


def figures_pass(tally):
    """All three harnesses serially, each checked byte for byte.

    A harness's set-up is a few ms of process start, so one sample is
    mostly scheduler noise: after its run, each harness is started
    SETUP_SAMPLES - 1 more times for set-up alone, and the pass adds up
    the three medians.
    """
    result = {"wall_s": 0.0, "cpu_s": 0.0, "setup_s": 0.0, "ms": [],
              "rss": 0.0}
    for name, binary in HARNESSES:
        h = run_harness(binary)
        ok = check_capture(binary, h.code, h.out, read_reference(binary))
        tally.record(1, 0 if ok else 1)
        result["wall_s"] += h.wall
        result["cpu_s"] += h.cpu
        result["setup_s"] += statistics.median(
            [h.setup] + [harness_setup(binary)
                         for _ in range(SETUP_SAMPLES - 1)])
        result["ms"].append(1e3 * h.wall)
        result["rss"] = max(result["rss"], h.rss)
        result[name] = h.wall
    print("# serial_figures pass wall_s=%.4f cpu_s=%.4f setup_s=%.6f"
          % (result["wall_s"], result["cpu_s"], result["setup_s"]))
    return result


def run_figures(args, tally):
    if args.trace:
        # The harnesses are timed from outside; nothing inside them is
        # mirrored, so there is no traced pass and no tracing overhead.
        p = figures_pass(tally)
        metrics = {"bench.%s_s" % name: p[name] for name, _ in HARNESSES}
        metrics["bench.cpu_per_wall"] = p["cpu_s"] / p["wall_s"]
        metrics["trace.overhead_ratio"] = 1.0
        print("# tracing overhead: none, serial_figures has no traced mirror")
        return metrics
    # A pass is about half of --seconds, so stopping before a pass would
    # overrun (as the grid workloads do) would leave a single pass; run
    # whole passes until --seconds have gone by instead.
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        passes.append(figures_pass(tally))
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "cell_ms_p50": statistics.median(ms for p in passes
                                         for ms in p["ms"]),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": max(p["rss"] for p in passes),
    }


def measure(args):
    """One benchmark run; returns the result object."""
    digests = load_digests()
    tally = Tally()
    root = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run.", dir=root)
    try:
        if args.workload == "serial_figures":
            values = run_figures(args, tally)
        else:
            values = run_grid(args, tmp, digests, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.trace:
        units = metric_units("per_layer")
        values = {name: values.get(name, 0.0) for name in units}
    else:
        units = metric_units("end_to_end")
    return {
        "correct": tally.correct and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def record_references():
    """Rewrite the digests and harness captures from the current code."""
    digests = {}
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
        for workload in GRID_WORKLOADS:
            digests[workload] = {}
            for seed in REFERENCE_SEEDS:
                # Pass 0 of --seed s simulates seed 1 + s % 16.
                records = run_driver(workload, seed - 1, 0.001,
                                     os.path.join(tmp, "%s.%d"
                                                  % (workload, seed)))
                p = [r for r in records if r["type"] == "pass"][0]
                if p["failed"] or p["sim_seed"] != seed:
                    raise BenchError("%s seed %d failed: %s"
                                     % (workload, seed, p["errors"]))
                digests[workload][str(seed)] = p["digest"]
                log("recorded %s seed %d %s" % (workload, seed, p["digest"]))
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    for _, binary in HARNESSES:
        h = run_harness(binary)
        if h.code != 0:
            raise BenchError("%s exited with %d" % (binary, h.code))
        with open(os.path.join(REFERENCE_DIR, binary + ".stdout"), "wb") as f:
            f.write(h.out)


def selftest():
    """A correct run passes; a perturbed reference is a failure."""
    digests = load_digests()
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
        records = run_driver("interference", 0, 0.001, tmp)
    record = [r for r in records if r["type"] == "pass"][0]

    good = Tally()
    check_pass("interference", record, digests, good)
    perturbed = json.loads(json.dumps(digests))
    seed = str(record["sim_seed"])
    digest = perturbed["interference"][seed]
    flipped = "0" if digest[0] != "0" else "1"
    perturbed["interference"][seed] = flipped + digest[1:]
    bad = Tally()
    check_pass("interference", record, perturbed, bad)

    binary = HARNESSES[0][1]
    h = run_harness(binary)
    capture = read_reference(binary)
    damaged = capture[:-2] + bytes([capture[-2] ^ 1]) + capture[-1:]
    checks = {
        "committed digest accepted": good.correct and good.failed == 0,
        "perturbed digest rejected": not bad.correct
        and bad.failed == record["attempted"],
        "committed capture accepted":
        check_capture(binary, h.code, h.out, capture),
        "perturbed capture rejected":
        not check_capture(binary, h.code, h.out, damaged),
    }
    for name, ok in checks.items():
        print("selftest %s: %s" % ("ok  " if ok else "FAIL", name))
    return all(checks.values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        build()
        if args.selftest:
            return 0 if selftest() else 1
        if args.record:
            record_references()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("hissbench: %s" % e)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
