#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run it.

    python3 perfbench/run.py --workload grid|serve-cold|fleet-hot|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The OCaml program under perfbench/_ml is
built out of tree in .bench_build/ws, next to copies of lib/, bin/ and
dune-project, so the repository's own `dune build` never sees it.  The
last line of standard output is the JSON result; everything else
(build output, progress) goes before it or to standard error.  With
--workload all, each workload runs in its own process and the results
are merged into one.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")

# (source relative to ROOT, destination relative to WS)
MIRRORS = [
    ("dune-project", "dune-project"),
    ("lib", "lib"),
    ("bin", "bin"),
    (os.path.join("perfbench", "_ml"), "perfbench"),
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def same(a, b):
    if not os.path.isfile(b) or os.path.getsize(a) != os.path.getsize(b):
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def mirror(src, dst):
    """Make dst a copy of src, touching only files whose bytes differ."""
    if os.path.isfile(src):
        if not same(src, dst):
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copyfile(src, dst)
        return
    wanted = set()
    for d, dirs, files in os.walk(src):
        dirs[:] = [x for x in dirs if not x.startswith(("_", "."))]
        rel = os.path.relpath(d, src)
        for f in files:
            r = os.path.normpath(os.path.join(rel, f))
            wanted.add(r)
            mirror(os.path.join(d, f), os.path.join(dst, r))
    for d, dirs, files in os.walk(dst):
        rel = os.path.relpath(d, dst)
        for f in files:
            r = os.path.normpath(os.path.join(rel, f))
            if r not in wanted:
                os.remove(os.path.join(d, f))


def build():
    for src, _ in MIRRORS:
        if not os.path.exists(os.path.join(ROOT, src)):
            fail("%s is missing: run from a full checkout of the repository" % src)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    for src, dst in MIRRORS:
        mirror(os.path.join(ROOT, src), os.path.join(WS, dst))
    targets = ["./perfbench/perfbench.exe", "./perfbench/selftest.exe", "./bin/ogc.exe"]
    r = subprocess.run(["dune", "build", "--root", WS] + targets,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(WS, "_build", "default")


# Workloads run with the benchmark and every process it starts confined
# to one CPU (see perfbench/README.md, "Load sized to nproc").
PINNED = {"fleet-hot"}
WORKLOADS = ["grid", "serve-cold", "fleet-hot"]


def run_workload(cmd, workload, capture):
    """Run perfbench.exe on one workload; returns (exit code, stdout lines
    if captured)."""
    pin = None
    if workload in PINNED:
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    sys.stdout.flush()
    p = subprocess.Popen(cmd + ["--workload", workload], cwd=ROOT, preexec_fn=pin,
                         stdout=subprocess.PIPE if capture else None, text=True)
    lines = []
    if capture:
        for line in p.stdout:
            lines.append(line)
            if len(lines) > 1:
                sys.stdout.write(lines[-2])
    return p.wait(), lines


def run_all(cmd):
    """Every workload in turn; one result whose metric names are prefixed
    with the workload's."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        code, lines = run_workload(cmd, w, capture=True)
        if code != 0 or not lines:
            print("perfbench: %s failed" % w, file=sys.stderr)
            return code or 1
        r = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and r["correct"]
        merged["attempted"] += r["attempted"]
        merged["failed"] += r["failed"]
        for k, v in r["metrics"].items():
            merged["metrics"][w + "." + k] = v
    print(json.dumps(merged))
    return 0


def main(argv):
    out = build()
    run_dir = os.path.join(BUILD, "run")
    os.makedirs(run_dir, exist_ok=True)
    rel = lambda p: os.path.relpath(p, ROOT)
    if argv == ["--selftest"]:
        sys.stdout.flush()
        return subprocess.run([os.path.join(out, "perfbench", "selftest.exe")],
                              cwd=ROOT).returncode
    if "--workload" not in argv[:-1]:
        fail("--workload grid|serve-cold|fleet-hot|all is required")
    i = argv.index("--workload")
    workload, rest = argv[i + 1], argv[:i] + argv[i + 2:]
    cmd = [os.path.join(out, "perfbench", "perfbench.exe"),
           "--ogc", rel(os.path.join(out, "bin", "ogc.exe")),
           "--dir", rel(run_dir)] + rest
    if workload == "all":
        return run_all(cmd)
    return run_workload(cmd, workload, capture=False)[0]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
