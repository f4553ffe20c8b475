#!/usr/bin/env python3
"""octo-cfs benchmark.

    python3 perfbench/run.py --workload readme|causal|vacuum-3d|all --seed N --seconds S --trace 0|1

Run from anywhere; the program is the checkout's `src/` tree, run as
`python -m octo_cfs.cli` with PYTHONPATH=src.

--trace 0 (end to end): one closed-loop client runs the workload's CLI calls
in order, one fresh process at a time, and checks every output. It repeats the
whole pass while another pass still fits in S seconds (at least one pass) and
reports medians over passes: wall_s, query_s and peak_rss_mb, and setup_s,
the median of bare `--version` starts spread over the first pass. build_s,
container_mb and fail_rate are in the report lines only.

--trace 1 (per layer): the same calls in this process through `cli.main`,
each once plain and once with spans around every public octo_cfs function
(see tracer.py), back to back; trace.overhead_s is the traced minus the plain
wall time.
On vacuum-3d it also calls lattice.vacuum_local_correlation in a child with a
capped address space, which records the known out-of-memory defect in
lattice.vacuum_local_correlation_failed.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

NPROC = len(os.sched_getaffinity(0))
# one BLAS/OpenMP thread count for this process and every child; numpy reads
# it when it loads, so it is set before the imports below
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import numpy  # noqa: E402
import scipy  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402
from workloads import VACUUM_3D_PROBE, WORKLOADS, CheckError, prepare  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_STARTS = 5
IMPORT_STARTS = 3
#: Address-space cap of the vacuum_local_correlation probe: far above the
#: 1+3 L=T=8 working set (<1 GiB), far below its 9 GiB block_diag.
PROBE_CAP_BYTES = 4 << 30
MB = 1e6


# ---------------------------------------------------------------- processes

def run_cli(argv, workdir: Path, env) -> dict:
    """One `python -m octo_cfs.cli` call: exit code, wall seconds, max RSS bytes, stdout, stderr."""
    out_path, err_path = workdir / ".stdout", workdir / ".stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "octo_cfs.cli", *argv], cwd=workdir, env=env,
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall, "rss": usage.ru_maxrss * 1024,
            "out": out_path.read_text(), "err": err_path.read_text()}


def judge(op, rc, out, err, state):
    """None when the call exited 0 and its output passed the check, else the reason."""
    if rc != 0:
        return f"exit {rc}: {err.strip()[-300:]}"
    try:
        op.check(out, state)
    except (CheckError, KeyError, TypeError, IndexError) as exc:
        return f"check failed: {type(exc).__name__}: {exc}"
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # calls load cached bytecode, as an installed octo-cfs does, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# ---------------------------------------------------------------- end to end

def version_start(workdir, env, errors):
    """Seconds of one bare `--version` start."""
    r = run_cli(["--version"], workdir, env)
    if r["rc"] != 0 or not r["out"].startswith("octo-cfs"):
        errors.append(f"--version: exit {r['rc']}: {r['err'].strip()[-300:]}")
    return r["wall"]


def e2e_pass(ops, workdir, env, errors, setup=None):
    """One pass over the ops. With a `setup` list, SETUP_STARTS `--version` starts are
    spread over the pass and their seconds appended, so that the median of setup_s
    samples the whole run rather than one moment of it."""
    state = {}
    rec = {"wall": 0.0, "build": 0.0, "query": 0.0, "rss": 0, "container": 0, "ops": []}
    starts_before = [k * len(ops) // SETUP_STARTS for k in range(SETUP_STARTS)] if setup is not None else []
    for i, op in enumerate(ops):
        for _ in range(starts_before.count(i)):
            setup.append(version_start(workdir, env, errors))
        r = run_cli(op.argv, workdir, env)
        rec["wall"] += r["wall"]
        rec[op.kind] += r["wall"]
        rec["rss"] = max(rec["rss"], r["rss"])
        for name in op.writes:
            path = workdir / name
            rec["container"] += path.stat().st_size if path.exists() else 0
        reason = judge(op, r["rc"], r["out"], r["err"], state)
        if reason:
            errors.append(f"{' '.join(op.argv[:2])}: {reason}")
        rec["ops"].append((op, r["wall"], r["rss"], reason))
    for op in ops:
        for name in op.writes:
            (workdir / name).unlink(missing_ok=True)
    return rec


def end_to_end(workload, seed, seconds, workdir):
    env = child_env()
    ops = prepare(workload, seed, workdir)
    errors = []
    version_start(workdir, env, errors)  # unmeasured: warms the page cache and writes .pyc files
    setup = []
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(e2e_pass(ops, workdir, env, errors, setup=None if passes else setup))
        elapsed = perf_counter() - t0
        if elapsed + passes[-1]["wall"] > seconds:
            break
    attempted = 1 + SETUP_STARTS + len(ops) * len(passes)

    def med(key):
        return statistics.median(p[key] for p in passes)

    metrics = {
        "wall_s": (med("wall"), "s"),
        "query_s": (med("query"), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (med("rss") / MB, "MB"),
    }
    report = dict(metrics)
    report["build_s"] = (med("build"), "s")
    report["container_mb"] = (med("container") / MB, "MB")
    report["fail_rate"] = (len(errors) / attempted, "ratio")
    print(f"passes: {len(passes)} (medians over passes); setup: median of {len(setup)} --version starts; "
          f"ops: {len(errors)} failed of {attempted} attempted")
    for op, wall, rss, reason in passes[-1]["ops"]:
        print(f"  {op.kind:5} {wall:8.3f} s {rss / MB:8.1f} MB  {' '.join(op.argv)[:90]}"
              + (f"  FAILED: {reason}" if reason else ""))
    return metrics, report, attempted, errors


# ---------------------------------------------------------------- traced

def import_seconds(workdir, env):
    """Seconds to `import octo_cfs.cli` in fresh interpreters, after one unmeasured start."""
    code = "import time; t = time.perf_counter(); import octo_cfs.cli; print(time.perf_counter() - t)"
    times = []
    for i in range(1 + IMPORT_STARTS):
        r = subprocess.run([sys.executable, "-c", code], cwd=workdir, env=env, capture_output=True, text=True,
                           check=True)
        if i:
            times.append(float(r.stdout))
    return statistics.median(times)


def inprocess_op(cli, op, state):
    """One call through cli.main in this process: (wall seconds, failure reason or None)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash of the program is a failed op, not a benchmark error
            rc, err = 1, io.StringIO(traceback.format_exc())
    wall = perf_counter() - t0
    return wall, judge(op, rc, out.getvalue(), err.getvalue(), state)


def vlc_probe(workdir, env):
    """(seconds, failed) of lattice.vacuum_local_correlation at the vacuum-3d lattice, in a capped child."""
    t0 = perf_counter()
    r = subprocess.run([sys.executable, str(HERE / "vlc_probe.py"), json.dumps(VACUUM_3D_PROBE),
                        str(PROBE_CAP_BYTES)], cwd=workdir, env=env, capture_output=True, text=True)
    wall = perf_counter() - t0
    try:
        result = json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"vacuum_local_correlation probe: exit {r.returncode}: {r.stderr.strip()[-300:]}")
        return wall, 1
    print(f"vacuum_local_correlation probe: {result['seconds']:.3f} s, error: {result['error']}")
    return result["seconds"], int(r.returncode != 0 or result["error"] is not None)


def traced(workload, seed, workdir):
    env = child_env()
    ops = prepare(workload, seed, workdir)
    import_s = import_seconds(workdir, env)
    sys.path.insert(0, str(SRC))
    import octo_cfs.cli as cli

    # each call runs plain and traced back to back; the mode that has gone first
    # for fewer seconds goes first, so the second run's warm caches favour
    # neither side of trace.overhead_s
    tracer = Tracer()
    switch = instrument(tracer)
    walls = {False: 0.0, True: 0.0}
    led = {False: 0.0, True: 0.0}
    states = {False: {}, True: {}}
    errors = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for op in ops:
            lead = led[True] < led[False]
            for on in (lead, not lead):
                switch(on)
                wall, reason = inprocess_op(cli, op, states[on])
                switch(False)
                walls[on] += wall
                led[on] += wall if on == lead else 0.0
                if reason:
                    errors.append(f"{' '.join(op.argv[:2])} (traced={on}): {reason}")
    finally:
        switch(False)
        os.chdir(cwd)
    plain_wall, traced_wall = walls[False], walls[True]
    metrics = tracer.metrics()
    probe_s, probe_failed = vlc_probe(workdir, env) if workload == "vacuum-3d" else (0.0, 0)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["lattice.vacuum_local_correlation_s"] = (probe_s, "s")
    metrics["lattice.vacuum_local_correlation_failed"] = (probe_failed, "count")
    metrics["lattice.failed"] = (metrics["lattice.failed"][0] + probe_failed, "count")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    print(f"in-process calls: {plain_wall:.3f} s plain, {traced_wall:.3f} s traced")
    print("most self time:  name  calls  total_s  self_s  failed")
    for name, calls, total, self_s, failed in tracer.top():
        print(f"  {name:44} {calls:8d} {total:9.4f} {self_s:9.4f} {failed:5d}")
    attempted = 2 * len(ops)
    return metrics, dict(metrics), attempted, errors


# ---------------------------------------------------------------- main

def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = r.stdout.strip() or commit
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run_workload(workload, seed, seconds, trace) -> dict:
    workdir = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}")
        if trace:
            metrics, report, attempted, errors = traced(workload, seed, workdir)
        else:
            metrics, report, attempted, errors = end_to_end(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for name, (value, unit) in sorted(report.items()):
        print(f"  {name:40} {value:>16.6g} {unit}")
    for e in errors:
        print(f"FAILED {e}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "octo_cfs" / "cli.py").is_file():
        print(f"error: no octo_cfs sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
