"""Stage timings of ``generate`` and ``evaluate``, one configuration a process.

Usage, from the root of a checkout:

    python3 bench/stages.py --out BENCH.json
    python3 bench/stages.py --config "icosa 1,1;(4,0)^2" --out smoke.json
    python3 bench/stages.py --tree base=../base/src --tree change=src --out BENCH.json

Each ``--tree LABEL=SRC`` names a ``src`` directory to import the package
from (default: this checkout's ``src``); ``--config`` picks entries of
``CONFIGS``, which fixes each one's number of runs.  Every run is a fresh
process with OpenMP, OpenBLAS and MKL at 1 thread; the package still takes
its own second thread where it sees 2 CPUs.  A run records the ``generate`` and
``evaluate`` wall times, ``ru_maxrss`` after each, and the SHA-256 of the
int64 faces and of the points, which must equal ``EXPECTED``.  Stage times
come from wrappers set around the package's private stage functions from
outside; a stage's key is its path of callers, so a nested call is listed
under its caller, and each pass of ``subdivide_mesh`` is a path of its
own.  qhull calls are counted by options and outcome, their seconds
summed over the threads that ran them.  The runs of a configuration
alternate between the trees, the first tree changing each time.  The file
also records nproc, the thread pins, the versions, and each tree's commit,
source digest and ``src`` line count.  Exit status 1 when a digest differs.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: (block, base, sequence, runs): the north-star configurations, then the large
#: passes: the lattice template's high-water (octa 700,0) and the refused route
#: on both bases, whose peak RSS is bimodal, so it runs 5 times
CONFIGS = [
    ("north-star", "icosa", "1,1;(4,0)^2", 1),
    ("north-star", "icosa", "64,0", 1),
    ("north-star", "icosa", "1,1;(4,0)^3", 1),
    ("north-star", "icosa", "1,1;(4,0)^4", 3),
    ("large", "octa", "700,0", 3),
    ("large", "tetra", "500,0", 5),
    ("large", "tetra", "1000,0", 5),
    ("large", "icosa", "200,0", 5),
    ("large", "icosa", "443,0", 5),
]

#: SHA-256 of each configuration's int64 faces and float64 points, as every
#: commit from 9055ab0 on gives them
EXPECTED = {
    "icosa 1,1;(4,0)^2": [
        "7678cff7503907568e6116dd34931f5bbcde97ac3cb9d418ab3199f121d8b937",
        "82b2c00f03c62b89aa30374807ddb01f3cad377a7e58f20eedeaab518f42646b",
    ],
    "icosa 64,0": [
        "83b27b13489b35426e61cf0c95ba656797149cdb2a16946797744f5343532f4f",
        "4550a1595955ba1a2df03b54fb7408df41e3ee494ccc162eef0ee52a00f3f096",
    ],
    "icosa 1,1;(4,0)^3": [
        "c26fb6b3fd08d66f42454fc2456bed68c8ad4b0f98809f08246d90a6c5683dcc",
        "ac5f6f4ccca3b2dea2e64b378e4c7690d48fc5891e87febd0c0e633b47312a62",
    ],
    "icosa 1,1;(4,0)^4": [
        "18a40a77c74affdbd20aa1cefd119b96dcbea72b759f75cc0c04bd1590673031",
        "f455f9235777921049e939f97ea59b8431abf7887fd0ef1cc6e3341988da05b6",
    ],
    "octa 700,0": [
        "8eea6725d75e061b9a5c7c18b303a0943e61c9a657e248976ac0b41f594473fe",
        "5c5fb4f6363704b0ec73a3a78867ef5fec6e7c62bc2f82e453cd6b21d80d3f13",
    ],
    "tetra 500,0": [
        "b99a8649519d0d9e48366663111130404a9bf200d8a77ff8216f75a2d829e8fb",
        "3429402b7ea5ccbc49b4eb6663716d3770b0f0bed1391fee86fac08e381c209c",
    ],
    "tetra 1000,0": [
        "5e96a1a6a48a4221b3c785d027350420783233811b3c10cd5816de5d63cf5f1d",
        "95e01669a54ff46136590a87f38ced1935b52d77404991b0365cf9b777f65d47",
    ],
    "icosa 200,0": [
        "3ff5ca55ee25ed339a33d6be66a68db560f0ac20bf0ebcdac69f577f1b3f0e25",
        "957e2fc6099267cc7bd54ffff69bec506fb367f4e56962993ccbb44033f94c9d",
    ],
    "icosa 443,0": [
        "325d963dfa1b388523b325153ce8df410a2e6f072a930e7548d0a70a2fe6d4ee",
        "bb84599eb9e61e6554a815c69106d193fdabca6689557cee1a94eb1ac30df614",
    ],
}

#: the functions wrapped in each module, where the tree has them
STAGES = {
    "meshgen": ["subdivide_mesh", "_solve_interior", "_lattice_faces", "_half_edges",
                "_canonical_permutation", "_is_hull", "_face_checks", "_canonical_faces",
                "convex_hull_triangulation", "_lune_hull", "_qhull_faces"],
    "metrics": ["_face_scan"],
}


def sha256(array, dtype):
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def child(base, seq):
    """Run one configuration in this process; print its record as one JSON line."""
    import spheregrid
    import spheregrid.meshgen as meshgen
    import spheregrid.metrics as metrics

    local, lock = threading.local(), threading.Lock()
    stages, passes, qhull = {}, [], {}

    def timed(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if name == "subdivide_mesh":  # each pass a path of its own
                stack.append(f"{name}[{len(passes)}]")
                passes.append({"pair": list(args[1]), "n_in": len(args[0].vertices)})
                this = passes[-1]
            else:
                stack.append(name)
            start = time.perf_counter()
            try:
                out = real(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                key = "/".join(stack)
                stack.pop()
                with lock:
                    entry = stages.setdefault(key, {"s": 0.0, "calls": 0})
                    entry["s"] += seconds
                    entry["calls"] += 1
            if name == "subdivide_mesh":
                this.update(n_out=out.n, s=seconds)
            return out

        setattr(module, name, call)

    real_hull = meshgen.ConvexHull

    def counting(points, qhull_options=None):
        start, raised = time.perf_counter(), True
        try:
            hull = real_hull(points, qhull_options=qhull_options)
            raised = False
            return hull
        finally:
            key = f"{qhull_options} {'raised' if raised else 'ok'}"
            with lock:
                entry = qhull.setdefault(key, {"calls": 0, "points": 0, "s": 0.0})
                entry["calls"] += 1
                entry["points"] += len(points)
                entry["s"] += time.perf_counter() - start

    wrapped = []
    for module in (meshgen, metrics):
        for name in STAGES[module.__name__.rpartition(".")[2]]:
            if hasattr(module, name):
                timed(module, name)
                wrapped.append(f"{module.__name__.rpartition('.')[2]}.{name}")
    meshgen.ConvexHull = counting

    pairs = spheregrid.parse_sequence(seq)
    local.stack = ["generate"]
    start = time.perf_counter()
    cfg = spheregrid.generate(base, pairs)
    generate_s = time.perf_counter() - start
    rss_generate = rss_mib()
    local.stack = ["evaluate"]
    start = time.perf_counter()
    report = spheregrid.evaluate(cfg)
    evaluate_s = time.perf_counter() - start
    rss_evaluate = rss_mib()
    print(json.dumps({
        "n": cfg.n,
        "generate_s": generate_s,
        "evaluate_s": evaluate_s,
        "rss_generate_mib": rss_generate,
        "rss_evaluate_mib": rss_evaluate,
        "bytes_per_point": rss_evaluate * 2**20 / cfg.n,
        "mesh_ratio": report.mesh_ratio,
        "faces_sha256": sha256(cfg.mesh.faces, "<i8"),
        "points_sha256": sha256(cfg.points, "<f8"),
        "passes": passes,
        "stages": stages,
        "qhull": qhull,
        "wrapped": wrapped,
    }))


def tree_record(src):
    """Commit, source digest and line count of the package under ``src``."""
    files = sorted((src / "spheregrid").glob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", str(src), "status", "--porcelain", "--", "."],
                           capture_output=True, text=True)
    return {
        "commit": git.stdout.strip() or None,
        "src_dirty": bool(dirty.stdout.strip()) if git.returncode == 0 else None,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(path.read_text(encoding="utf-8").splitlines()) for path in files),
    }


def machine():
    import numpy
    import scipy

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": cpus,
        "cpu_count": os.cpu_count(),
        "memory_gib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "thread_pins": THREAD_PINS,
        "package_threads": 2 if cpus >= 2 else 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_one(src, base, seq):
    env = dict(os.environ, **THREAD_PINS, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, __file__, "--child", base, seq], env=env,
                         capture_output=True, text=True)
    if out.returncode != 0:
        return {"error": out.stderr.strip().splitlines()[-1:]}
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(runs):
    """Per tree and configuration: median, min and max of each measured figure."""
    rows = {}
    for run in runs:
        if "error" not in run:
            rows.setdefault((run["tree"], run["config"]), []).append(run)
    out = []
    for (tree, config), group in rows.items():
        row = {"tree": tree, "config": config, "runs": len(group)}
        for key in ("generate_s", "evaluate_s", "rss_generate_mib", "rss_evaluate_mib",
                    "bytes_per_point"):
            values = [run[key] for run in group]
            row[key] = {"median": statistics.median(values), "min": min(values),
                        "max": max(values)}
        out.append(row)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC")
    parser.add_argument("--config", action="append", default=[], choices=list(EXPECTED),
                        metavar='"BASE SEQ"', help="run only these configurations")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    trees = dict(t.partition("=")[::2] for t in args.tree) or {"this": str(ROOT / "src")}
    trees = {label: Path(src).resolve() for label, src in trees.items()}
    configs = [c for c in CONFIGS if not args.config or f"{c[1]} {c[2]}" in args.config]
    record = {"machine": machine(),
              "trees": {label: tree_record(src) for label, src in trees.items()},
              "runs": []}
    correct = True
    for block, base, seq, runs in configs:
        config = f"{base} {seq}"
        for k in range(runs):
            labels = list(trees)
            labels = labels[k % len(labels):] + labels[:k % len(labels)]
            for label in labels:
                run = {"tree": label, "config": config, "block": block, "run": k,
                       **run_one(trees[label], base, seq)}
                run["correct"] = "error" not in run and (
                    EXPECTED[config] == [run["faces_sha256"], run["points_sha256"]])
                correct &= run["correct"]
                record["runs"].append(run)
                print(f"{label:>8} {config:<22} run {k}: " + (
                    f"generate {run['generate_s']:.3f} s, evaluate {run['evaluate_s']:.3f} s, "
                    f"peak {run['rss_evaluate_mib']:.0f} MiB, correct {run['correct']}"
                    if "error" not in run else f"error {run['error']}"), flush=True)
    record["summary"] = summary(record["runs"])
    record["correct"] = correct
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:  # one run, started by run_one
        child(*sys.argv[2:])
    else:
        sys.exit(main())
