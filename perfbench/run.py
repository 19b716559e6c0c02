"""The spheregrid benchmark: one workload, measured from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload recursive-n0 --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of that checkout, never from an
installed copy.  Fresh processes are timed from start to ``ready`` for
``setup_s``, before, during and after the workload process (see
``worker.py``), which pauses after each operation so that a set-up
process can be timed while nothing else runs.
Human-readable lines come first, the environment record among them; the
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  Spans of a traced run are written to
``perfbench/out/``.  See ``perfbench/README.md`` for the workloads and
what each metric is expected to move.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "spheregrid"
OUT = HERE / "out"

#: every pool the child processes could start is pinned to one thread
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: timed set-up processes before and again after the workload process,
#: besides one at each of its pauses; one untimed start before them all
#: fills the caches
SETUP_PROBES = 3

#: least time between two set-up processes timed at the pauses, so that
#: short operations do not make a run mostly set-up
PAUSE_PROBE_GAP_S = 2.0

#: wall-clock limit for the whole run
DEADLINE_S = 170.0

# References computed at the benchmark's first commit (17 significant
# digits).  Separation, covering and mesh ratio are checked to REL_TOL.
RECURSIVE_REF = {
    "separation": 0.010193051806914478,
    "covering": 0.00642144600902507,
    "mesh_ratio": 0.6299826715948866,
}

#: single-pass pairs with n > 0 and gcd(m, n) = 1, N near 94k
SKEW_PAIRS = {
    (73, 37): {"separation": 0.010427438945738438, "covering": 0.007376863387126742,
               "mesh_ratio": 0.7074472864827056},
    (68, 43): {"separation": 0.01037651834090387, "covering": 0.007376944402838496,
               "mesh_ratio": 0.7109267444513484},
    (85, 22): {"separation": 0.010526175700583847, "covering": 0.007308561083266688,
               "mesh_ratio": 0.6943225432633915},
    (90, 13): {"separation": 0.010755472483012252, "covering": 0.007363158361263482,
               "mesh_ratio": 0.6845964575608587},
}

RECURSIVE_PAIRS = [(1, 1), (4, 0), (4, 0), (4, 0)]


def workload_spec(name, seed):
    """The JSON-ready inputs of one workload, made from the seed.

    Each case is a pair sequence with its references; a run visits its
    cases in turn.  The seed orders single-skew's pairs and picks
    metrics-in's rotation and permutation; recursive-n0 has no input
    that varies.
    """
    rng = random.Random(seed)
    if name == "recursive-n0":
        return {"kind": "generate", "base": "icosa",
                "cases": [{"pairs": RECURSIVE_PAIRS, "ref": RECURSIVE_REF}]}
    if name == "single-skew":
        pairs = sorted(SKEW_PAIRS)
        rng.shuffle(pairs)
        return {"kind": "generate", "base": "icosa",
                "cases": [{"pairs": [p], "ref": SKEW_PAIRS[p]} for p in pairs]}
    if name == "metrics-in":
        return {"kind": "metrics-in", "base": "icosa", "input_seed": rng.getrandbits(64),
                "cases": [{"pairs": RECURSIVE_PAIRS, "ref": RECURSIVE_REF}]}
    raise KeyError(name)


WORKLOADS = ("recursive-n0", "single-skew", "metrics-in")


def child_env():
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_worker(args, deadline):
    """Start ``worker.py``; returns (process, seconds from start to ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc, deadline)
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def stop(proc, deadline):
    """Wait for a worker to end; returns its stdout.

    At the deadline, or if this process is interrupted or terminated
    meanwhile, the worker is killed and waited for first.
    """
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return out


def drive(proc, deadline, setup):
    """Read the workload process's output until it ends; returns it.

    At an ``idle`` line, one fresh set-up process is timed into ``setup``
    before the workload process is told to go on, unless the last one
    was timed less than ``PAUSE_PROBE_GAP_S`` before.  At the deadline the
    workload process is killed.
    """
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    out = []
    last = time.monotonic()
    try:
        for line in proc.stdout:
            if line == "idle\n":
                if time.monotonic() - last >= PAUSE_PROBE_GAP_S:
                    setup += setup_samples(1, deadline)
                    last = time.monotonic()
                proc.stdin.write("go\n")
                proc.stdin.flush()
            else:
                out.append(line)
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    return "".join(out)


def setup_samples(count, deadline):
    """Seconds from start to ``ready`` of ``count`` fresh processes."""
    samples = []
    for _ in range(count):
        proc, ready = start_worker(["--probe"], deadline)
        stop(proc, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        samples.append(ready)
    return samples


def prepare(spec, workdir, deadline):
    """Write the workload's input files in a process of their own."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--prepare", "--spec", json.dumps(spec),
         "--workdir", workdir],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
    )
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"input preparation exited {proc.returncode}")


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in PACKAGE.glob("*.py"))


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(res):
    return {
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        **res["versions"],
        "commit": git_commit(),
        "src_spheregrid_lines": src_lines(),
    }


def end_to_end(res, setup):
    """End-to-end metrics from one untraced worker result."""
    med = res["medians"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_s": (med["op_s"], "s"),
        "first_call_s": (med["first_call_s"], "s"),
        "second_call_s": (med["second_call_s"], "s"),
        "points_per_s": (statistics.fmean(res["n"]) / med["op_s"], "points/s"),
        "peak_rss_mib": (res["peak_rss_kib"] / 1024.0, "MiB"),
    }


LAYER_UNITS = {
    "_s": "s", "_share": "ratio", ".rows": "count", ".us_per_row": "us",
    ".max_residual": "1", ".nodes_per_face": "count", ".hull_faces": "count",
    ".bytes_read": "bytes", ".bytes_written": "bytes", ".overhead": "ratio",
}


def layer_unit(name):
    return next(u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix))


def report_lines(name, res, setup):
    """What a reader wants beside the JSON line: call names, tail, failures."""
    lines = [f"workload {name}: N = {', '.join(map(str, res['n']))}, "
             f"{res['attempted']} operations, {res['failed']} failed, "
             f"fail_ratio = {res['failed'] / res['attempted']:.4g}"]
    lines += [f"  failure: {f}" for f in res["failures"]]
    if setup:
        lines.append(f"setup_s median {statistics.median(setup):.4f} s of {len(setup)} fresh "
                     f"processes: {' '.join(f'{t:.3f}' for t in setup)}")
    times = [t for _, t in res["samples"]]
    for call, col in zip(res["calls"] + ["op"], [*zip(*times), [sum(t) for t in times]]):
        if not col:
            continue
        s = sorted(col)
        tail = (f"p{100.0 * (len(s) - 10) / len(s):.0f} {s[-11]:.4f} s" if len(s) > 10
                else "no percentile has 10 samples beyond it")
        lines.append(f"{call}_s median {statistics.median(s):.4f} s, {tail}, "
                     f"n = {len(s)} samples")
    return lines


def measure(spec, name, seconds, trace):
    """Run one workload; returns (report lines, result dict or None)."""
    deadline = time.monotonic() + DEADLINE_S
    # set-up is an end-to-end metric; a traced run does not sample it
    setup = [] if trace else setup_samples(1 + SETUP_PROBES, deadline)[1:]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if spec["kind"] == "metrics-in":
            prepare(spec, workdir, deadline)
        proc, ready = start_worker(
            ["--spec", json.dumps(spec), "--seconds", str(seconds),
             "--trace", str(int(trace)), "--workdir", workdir], deadline)
        out = drive(proc, deadline, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    if not trace:
        setup += [ready] + setup_samples(SETUP_PROBES, deadline)
    res = json.loads(out.strip().splitlines()[-1])
    lines = report_lines(name, res, setup)
    lines.append("environment " + json.dumps(environment(res)))
    if not res["samples"]:
        return lines, None
    if trace:
        metrics = {k: (v, layer_unit(k)) for k, v in res["layers"].items()}
        spans = OUT / f"spans-{name}-{os.getpid()}.json"
        spans.write_text(json.dumps({"columns": ["op", "id", "parent", "name", "start", "end"],
                                     "spans": res["spans"]}))
        lines.append(f"spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(res, setup)
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one spheregrid benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    spec = workload_spec(args.workload, args.seed)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        lines, result = measure(spec, args.workload, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    if result is None:
        print("error: no operation completed", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
