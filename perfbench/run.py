#!/usr/bin/env python3
"""Builds jpar's end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset
(Release, only the libraries the benchmark links). Each run gets a fresh
temporary directory under the build directory; it holds the corpus files,
their .jtape/.jcol/.jstats sidecars and any spill files, and is deleted
when the run ends, however it ends. Every process the run starts is
stopped and waited for before this script exits.

    python3 perfbench/run.py --self-test    # the truth and checks test

The last line of standard output is the benchmark's JSON result; the
build log goes to standard error.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check and
# clean-up.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def revision():
    """The git revision, or a digest of src/ in a checkout without git."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()[:12]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def stop_group(proc):
    """Kills whatever is left of the run's process group, reaps the
    benchmark process and waits for the rest of the group to be gone."""
    pgid = proc.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    # A SIGTERM unwinds through the clean-up below instead of skipping it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--span-file", help="where a traced run writes its spans "
                   "(default: the run's temporary directory)")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")

    bdir = build_dir()
    if not build(bdir):
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(bdir, "perfbench_test")]).returncode

    runs = os.path.join(bdir, "runs")
    os.makedirs(runs, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=args.workload + "-", dir=runs)
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--dir", tmp, "--revision", revision()]
    if args.span_file:
        cmd += ["--span-file", os.path.abspath(args.span_file)]
    env = dict(os.environ, TMPDIR=tmp)
    proc = None
    try:
        proc = subprocess.Popen(cmd, env=env, start_new_session=True)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"run exceeded {RUN_TIMEOUT_S} s; stopped")
            return 1
    finally:
        if proc is not None:
            stop_group(proc)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
