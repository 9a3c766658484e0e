#!/usr/bin/env python3
"""Run one workload of the Session benchmark (see README.md).

    python3 perfbench/run.py --workload q1_repeat --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Builds the benchmark package
(perfbench/CMakeLists.txt, which pulls in the repo's library) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), pins the
environment, runs the workload, and prints the benchmark's report. The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics. Exits nonzero when a result was wrong, a request failed, or the
sources are missing.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("q1_repeat", "join_sort", "join_sort_spill", "adhoc")

# Variables that change what the engine does; unset for every run.
PINNED_UNSET = (
    "AVM_TRACE_CACHE_DIR",
    "AVM_MEMORY_BUDGET",
    "AVM_KERNEL_TIER",
    "AVM_JIT_TIER",
    "AVM_JIT_UPGRADE_AFTER",
    "AVM_VERIFY",
    "AVM_CXX",
    "AVM_SPILL_DIR",
)

# setup_s is the median over the measured run's own set-up and this many
# extra set-up-only processes (a process caches compiled traces, so
# set-up repeats only in fresh processes).
EXTRA_SETUPS = 2
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 110


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    base = Path(target) if target else ROOT / ".bench_build"
    return base.resolve() / "perfbench"


def build(out):
    """Configure and build the benchmark; returns the binary path."""
    out.mkdir(parents=True, exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    cmds = []
    if not (out / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(out), *gen,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", str(out), "--target", "avm_perfbench",
                 "-j", str(os.cpu_count() or 1)])
    for cmd in cmds:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    return out / "avm_perfbench"


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def become_subreaper():
    """Adopt orphaned descendants (background JIT compiles that outlive the
    benchmark process) so they can be killed and reaped."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_all(deadline_s=10.0):
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.02)


def run_binary(cmd, env, timeout):
    """Run the benchmark binary in its own process group; afterwards kill
    whatever it left running and reap it. Returns (exit code, stdout)."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = ""
        log(f"timed out after {timeout}s: {' '.join(cmd)}")
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    code = p.wait()
    reap_all()
    return (code if out else 1), out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every input (the benchmark's own tests)")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt the first checked result (tests)")
    args = ap.parse_args()

    if not (ROOT / "src" / "engine" / "session.h").is_file():
        raise SystemExit(f"no engine sources under {ROOT / 'src'}")
    out_dir = build_dir()
    binary = build(out_dir)

    become_subreaper()
    env = dict(os.environ)
    was_set = [v for v in PINNED_UNSET if v in env]
    for v in PINNED_UNSET:
        env.pop(v, None)
    # Spill files and JIT scratch go to a private directory, removed at exit.
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["AVM_SPILL_DIR"] = str(tmp)
    env_note = ("unset " + ",".join(PINNED_UNSET) +
                (" (were set: " + ",".join(was_set) + ")" if was_set else "") +
                "; TMPDIR and AVM_SPILL_DIR private, removed at exit")
    traces = out_dir / "traces"
    traces.mkdir(exist_ok=True)

    common = [str(binary), "--workload", args.workload, "--seed",
              str(args.seed), "--scale", str(args.scale)]
    try:
        setups = []
        if not args.trace:
            for _ in range(EXTRA_SETUPS):
                code, out = run_binary(
                    common + ["--seconds", "1", "--trace", "0",
                              "--setup-only"], env, SETUP_TIMEOUT_S)
                if code != 0:
                    raise SystemExit("set-up-only run failed")
                setups.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        cmd = common + ["--seconds", str(args.seconds), "--trace",
                        str(args.trace), "--git-sha", git_sha(),
                        "--env-note", env_note, "--trace-out",
                        str(traces / f"{args.workload}-seed{args.seed}.json")]
        if args.corrupt:
            cmd.append("--corrupt")
        code, out = run_binary(cmd, env, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit("the benchmark printed nothing")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        print("setup_s runs " + " ".join(f"{s:.4f}" for s in setups))
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
