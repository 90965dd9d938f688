#!/usr/bin/env python3
"""Benchmark of the cartanlab CLI.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each run

1. builds the workload's documents from the seed (``cartanlab gen`` plus the
   twisted, relabeled and tampered copies of perfbench/docs.py), several
   times, and reports the median as ``setup_s``;
2. runs the workload's command list as one closed-loop client, each command
   in a fresh ``python -m cartanlab`` process, pass after pass for as long
   as another pass fits in ``--seconds`` (at least one pass), checks every
   verdict against values derived from the mathematics
   (perfbench/workloads.py), and times a fixed reference computation
   between commands; per command, the median over passes is reported, in
   seconds and as a multiple of the reference time around it;
3. with ``--trace 1``, runs one more pass in-process through
   ``cartanlab.cli.main`` with spans and counters wrapped around the
   package's public functions (perfbench/tracer.py), checks that its
   verdicts equal the untraced ones, and reports the per-layer metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  Documents, the full result and the spans are
written under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import docs
import workloads
from tracer import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
# One BLAS thread: on a box of few cores, more threads measure the scheduler
# and the other tenants, not the program.
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0  # children still running then are killed, so a run ends within 180 s
MIB = 1 << 20


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return self.end - time.monotonic()


# -- environment -----------------------------------------------------------


def nproc():
    return len(os.sched_getaffinity(0))


def controlled_env(threads):
    """The environment every child gets: no CARTANLAB_GUARD, a fixed BLAS
    thread count, and the checkout's sources on the path."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k != "CARTANLAB_GUARD" and not k.startswith(("OPENBLAS_", "OMP_", "MKL_"))
    }
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    return env


def environment_record(seed, threads):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "seed": seed,
        "platform": platform.platform(),
    }


# -- running one command ---------------------------------------------------


class Outcome:
    def __init__(self, cmd, code, stdout, wall, cpu, rss_mb):
        self.cmd = cmd
        self.code = code
        self.stdout = stdout
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.problems = workloads.check(cmd, code, stdout)


def run_child(argv, cwd, env, deadline):
    """Run ``python -m cartanlab argv`` to completion through launch.py.

    Returns (exit code, stdout, wall s, user+sys s, max RSS MiB) of the
    command alone.  The command and its launcher share a new process group,
    which is killed when the run's deadline passes; a killed command
    reports exit code "killed".
    """
    report = cwd / ".report"
    report.unlink(missing_ok=True)
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCH), str(report), sys.executable, "-m", "cartanlab", *argv],
            cwd=cwd,
            env=env,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(max(deadline.left(), 0.0), stop, (proc,))
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode != 0:  # killed, interrupted, or the launcher failed
                stop(proc)
        elapsed = time.perf_counter() - t0
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    try:
        code, wall, cpu, rss_kib = report.read_text(encoding="ascii").split()
    except FileNotFoundError:
        return "killed", text, elapsed, 0.0, 0.0
    return int(code), text, float(wall), float(cpu), int(rss_kib) / 1024


def stop(proc):
    """SIGKILL the launcher's process group and wait until all of it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    while True:  # the orphaned command is reaped by init; wait for that
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# -- set-up ----------------------------------------------------------------


def build_documents(workload, seed, dest, env, deadline):
    """Carry out the workload's set-up recipe in ``dest``."""
    dest.mkdir(parents=True)
    for step in workloads.SETUP[workload]:
        kind, out = step[0], step[1]
        if kind == "gen":
            code, _, _, _, _ = run_child(["gen", *step[2], "--out", out], dest, env, deadline)
            if code != 0:
                raise RuntimeError(f"cartanlab gen {' '.join(step[2])} exited {code}")
            continue
        src = docs.load(dest / step[2])
        rng = docs.rng_for(seed, step[-1])
        if kind == "twist":
            doc = docs.twist(src, step[3], rng)
        elif kind == "relabel":
            doc = docs.relabel(src, rng)
        else:
            doc = docs.tamper(src, rng)
        docs.save(doc, dest / out)
    for name in (".stdout", ".stderr", ".report"):
        (dest / name).unlink(missing_ok=True)


def digest(directory):
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup(workload, seed, base, env, deadline):
    """Build the documents SETUP_REPEATS times; return (dir, median s)."""
    times = []
    digests = set()
    for i in range(SETUP_REPEATS):
        dest = base / f"docs{i}"
        t0 = time.perf_counter()
        build_documents(workload, seed, dest, env, deadline)
        times.append(time.perf_counter() - t0)
        digests.add(digest(dest))
        if i:
            shutil.rmtree(base / f"docs{i - 1}")
    if len(digests) != 1:
        raise RuntimeError("the same seed built different documents")
    return dest, statistics.median(times)


# -- the untraced passes ---------------------------------------------------


def reference():
    """Time a fixed piece of dictionary work shaped like cartanlab's
    ``compose`` loops: 24 partial maps of up to 4096 points, each composed
    with 8 of them.  It belongs to the benchmark, not to the code under test,
    so a change to cartanlab leaves it alone.
    """
    t0 = time.perf_counter()
    maps = [{j: (j * (m + 3) + 1) % 4096 for j in range(0, 4096, 1 + m % 3)} for m in range(24)]
    total = 0
    for s in maps:
        for t in maps[:8]:
            total += len({y: s[x] for y, x in t.items() if x in s})
    if total != REFERENCE_TOTAL:
        raise RuntimeError(f"reference computation gave {total}, expected {REFERENCE_TOTAL}")
    return time.perf_counter() - t0


REFERENCE_TOTAL = 265200


def run_pass(workload, docdir, env, deadline):
    """Run the command list once, timing the reference before the first
    command and after each one; each outcome keeps the mean of the two
    reference times that bracket it."""
    outcomes = []
    before = reference()
    for cmd in workloads.COMMANDS[workload]:
        code, text, wall, cpu, rss = run_child(cmd.argv, docdir, env, deadline)
        after = reference()
        outcome = Outcome(cmd, code, text, wall, cpu, rss)
        outcome.ref = (before + after) / 2
        outcomes.append(outcome)
        before = after
    return sum(o.wall for o in outcomes), outcomes


def pass_metrics(wall, outcomes):
    return {
        "wall_s": wall,
        "cpu_s": sum(o.cpu for o in outcomes),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "ref_s": statistics.median(o.ref for o in outcomes),
    }


def run_metrics(passes):
    """End-to-end metrics over the passes of one run.

    Per command, the median over passes; summed over the command list.
    ``wall_ref`` divides each command's wall time by the reference time
    measured around it.  The host's other tenants slow everything by 10-50%
    for seconds to minutes at a time; the ratio cancels most of that, so it
    is the steady measure of the program's speed.  ``wall_s`` and ``cpu_s``
    are the same medians in seconds.
    """
    columns = list(zip(*(outs for _, outs in passes)))
    walls = [statistics.median(o.wall for o in col) for col in columns]
    m = {
        "wall_ref": sum(statistics.median(o.wall / o.ref for o in col) for col in columns),
        "wall_s": sum(walls),
        "cpu_s": sum(statistics.median(o.cpu for o in col) for col in columns),
        "peak_rss_mb": max(o.rss_mb for col in columns for o in col),
        "ref_s": statistics.median(o.ref for col in columns for o in col),
    }
    for sub in dict.fromkeys(col[0].cmd.sub for col in columns):
        m[f"{sub}_s"] = sum(w for w, col in zip(walls, columns) if col[0].cmd.sub == sub)
    return m


# -- the traced pass -------------------------------------------------------


def traced_pass(workload, docdir, gendir, deadline):
    """One in-process pass under the tracer; returns (tracer, outcomes,
    per-command wall times, problems)."""
    sys.path.insert(0, str(SRC))
    import cartanlab.cli as cli

    tracer = Tracer()
    tracer.install()
    jobs = [(gendir, ["gen", *s[2], "--out", s[1]], None) for s in workloads.SETUP[workload] if s[0] == "gen"]
    jobs += [(docdir, cmd.argv, cmd) for cmd in workloads.COMMANDS[workload]]
    outcomes, walls, problems = [], [], []
    here = Path.cwd()
    gendir.mkdir()
    try:
        for i, (cwd, argv, cmd) in enumerate(jobs):
            if deadline.left() <= 0:
                problems.append("traced pass ran out of time")
                break
            os.chdir(cwd)
            sink, errs = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errs):
                t0 = time.perf_counter()
                with tracer.command(i, " ".join(argv)):
                    try:
                        code = cli.main(argv)
                    except Exception as exc:  # report it as a wrong verdict and go on
                        code = f"raised {exc!r}"
                wall = time.perf_counter() - t0
            os.chdir(here)
            walls.append((cmd, wall))
            if cmd is not None:
                outcomes.append(Outcome(cmd, code, sink.getvalue(), wall, 0.0, 0.0))
    finally:
        os.chdir(here)
        tracer.uninstall()
    return tracer, outcomes, walls, problems


def layer_metrics(tracer, command_wall, untraced_wall):
    inc = tracer.inclusive
    count = tracer.counts.get
    selfs = tracer.self_times()

    def self_of(*names):
        return sum(selfs[i] for i, rec in enumerate(tracer.spans) if rec[0] in names)

    def direct(*names):
        return sum(
            rec[2] - rec[1]
            for rec in tracer.spans
            if rec[0] in names and rec[3] >= 0 and tracer.spans[rec[3]][0].startswith("command:")
        )

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "cli.parse_s": (self_of("cli.parse", "cli.build_extension"), "s"),
        "cli.input_mb": (tracer.input_bytes / MIB, "MB"),
        "generators.build_s": (
            inc("generators.rook_monoid", "generators.eqrel_monoid", "generators.product_monoid"),
            "s",
        ),
        "semigroup_core.compose_calls": (count("semigroup_core.compose", 0), "count"),
        "semigroup_core.natural_leq_calls": (count("semigroup_core.natural_leq", 0), "count"),
        "semigroup_core.classify_s": (inc("semigroup_core.classify"), "s"),
        "boolean_monoid.check_axioms_s": (inc("boolean_monoid.check_axioms"), "s"),
        "extension.validate_cocycle_s": (inc("extension.validate_cocycle"), "s"),
        "extension.entry_at_calls": (count("extension.entry_at", 0), "count"),
        "extension.cohomologous_s": (inc("extension.cohomologous"), "s"),
        "extension.validate_section_s": (inc("extension.validate_section"), "s"),
        "extension.section_s": (inc("extension.order_preserving_section"), "s"),
        "extension.equivalent_s": (inc("extension.extensions_equivalent"), "s"),
        "extension.multiply_calls": (count("extension.multiply", 0), "count"),
        "kernel_rep.lambda_s": (inc("kernel_rep.lambda_matrix"), "s"),
        "kernel_rep.lambda_calls": (tracer.calls("kernel_rep.lambda_matrix"), "count"),
        "vn_oracle.commutant_s": (inc("vn_oracle.commutant_dimension"), "s"),
        "vn_oracle.masa_s": (inc("vn_oracle.masa_check"), "s"),
        "vn_oracle.span_s": (inc("vn_oracle.span_basis"), "s"),
        "vn_oracle.expectation_s": (inc("vn_oracle.expectation_properties"), "s"),
        "vn_oracle.svd_calls": (tracer.calls("numpy.linalg.svd"), "count"),
        "vn_oracle.svd_s": (inc("numpy.linalg.svd"), "s"),
        "vn_oracle.svd_factor_mb": (tracer.svd_factor_bytes / MIB, "MB-computed"),
        "vn_oracle.recovery_s": (inc("vn_oracle.recover_extension"), "s"),
        "vn_oracle.recovery_yield": (
            ratio(count("vn_oracle.recovered_nonzero", 0), count("vn_oracle.recovery_svd", 0)),
            "ratio",
        ),
        "spectral_bimodule.enumerate_s": (inc("spectral_bimodule.enumerate_spectral_sets"), "s"),
        "spectral_bimodule.enumerate_calls": (
            tracer.calls("spectral_bimodule.enumerate_spectral_sets"),
            "count",
        ),
        "spectral_bimodule.closure_calls": (tracer.calls("spectral_bimodule.spectral_closure"), "count"),
        "spectral_bimodule.verify_subdiagonal_s": (inc("spectral_bimodule.verify_subdiagonal"), "s"),
        "spectral_bimodule.roundtrip_s": (direct("spectral_bimodule.psi", "spectral_bimodule.theta"), "s"),
        "spectral_bimodule.msd_yield": (
            ratio(count("spectral_bimodule.msd_members", 0), count("spectral_bimodule.msd_scanned", 0)),
            "ratio",
        ),
        "trace.overhead_s": (command_wall - untraced_wall, "s"),
    }


def self_time_problems(tracer, walls):
    """Per command, the span self times must add up to no more than the
    command's wall time."""
    selfs = tracer.self_times()
    totals = {}
    for i, rec in enumerate(tracer.spans):
        totals[rec[4]] = totals.get(rec[4], 0.0) + selfs[i]
    problems = []
    for i, (_, wall) in enumerate(walls):
        if totals.get(i, 0.0) > wall + 1e-9:
            problems.append(f"command {i}: span self times {totals[i]:.6f} s exceed wall {wall:.6f} s")
    return problems


# -- reporting -------------------------------------------------------------


def show(name, value, unit):
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<40} {text:>14} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cartanlab" / "__main__.py").is_file():
        print(f"perfbench: no cartanlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    deadline = Deadline(RUN_LIMIT_S)
    threads = min(BLAS_THREADS, nproc())
    env = controlled_env(threads)
    os.environ.pop("CARTANLAB_GUARD", None)
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(threads)

    base = WORK / args.workload
    base.mkdir(parents=True, exist_ok=True)
    for old in base.glob("docs*"):
        shutil.rmtree(old)
    shutil.rmtree(base / "traced_gen", ignore_errors=True)
    try:
        docdir, setup_s = setup(args.workload, args.seed, base, env, deadline)
    except (RuntimeError, OSError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    record = {"environment": environment_record(args.seed, threads), "workload": args.workload}
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in record["environment"].items()))

    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(args.workload, docdir, env, deadline))
        last = passes[-1][0]
        if time.perf_counter() - t0 + last > args.seconds or deadline.left() < 2 * last:
            break
    all_outcomes = [o for _, outs in passes for o in outs]
    print("  command, exit code of the first pass, fastest and slowest wall s, max RSS:")
    for col in zip(*(outs for _, outs in passes)):
        o = col[0]
        bad = [p for x in col for p in x.problems]
        state = "ok" if not bad else "WRONG: " + "; ".join(dict.fromkeys(bad))
        walls = [x.wall for x in col]
        print(
            f"  [{o.cmd.sub:<9}] {o.cmd.label():<50} exit {o.code}"
            f"  {min(walls):7.3f} {max(walls):7.3f} s  {max(x.rss_mb for x in col):6.1f} MB  {state}"
        )

    per_pass = [pass_metrics(wall, outs) for wall, outs in passes]
    e2e = run_metrics(passes)
    e2e["setup_s"] = setup_s
    failed = sum(bool(o.problems) for o in all_outcomes)
    attempted = len(all_outcomes)
    e2e["failed_frac"] = failed / attempted
    units = {"wall_ref": "ref", "peak_rss_mb": "MB", "failed_frac": "ratio"}
    print(f"end-to-end ({len(passes)} pass(es), per command the median over passes):")
    for name, value in e2e.items():
        show(name, value, units.get(name, "s"))
    record["end_to_end"] = e2e
    record["passes"] = per_pass
    record["commands"] = [
        {"argv": o.cmd.argv, "code": o.code, "wall_s": o.wall, "cpu_s": o.cpu, "rss_mb": o.rss_mb, "problems": o.problems}
        for o in all_outcomes
    ]

    if args.trace:
        tracer, traced, walls, problems = traced_pass(args.workload, docdir, base / "traced_gen", deadline)
        for cmd_out, plain in zip(traced, passes[0][1]):
            if workloads.verdict(cmd_out.code, cmd_out.stdout) != workloads.verdict(plain.code, plain.stdout):
                problems.append(f"traced verdict differs: {plain.cmd.label()}")
        for step in workloads.SETUP[args.workload]:
            if step[0] == "gen" and (base / "traced_gen" / step[1]).read_bytes() != (docdir / step[1]).read_bytes():
                problems.append(f"traced gen differs: {step[1]}")
        problems += [f"traced {o.cmd.label()}: {'; '.join(o.problems)}" for o in traced if o.problems]
        attempted += len(traced)
        failed += sum(bool(o.problems) for o in traced)
        timing_problems = self_time_problems(tracer, walls)
        print(f"span self times within command wall: {'FAIL' if timing_problems else 'pass'} ({len(walls)} commands)")
        problems += timing_problems
        command_wall = sum(w for cmd, w in walls if cmd is not None)
        layers = layer_metrics(tracer, command_wall, e2e["wall_s"])
        print(f"per-layer (one traced pass, {command_wall:.3f} s of commands):")
        for name, (value, unit) in layers.items():
            show(name, value, unit)
        print("spans (calls, inclusive s, self s):")
        for name, (calls, inc, self_s) in tracer.table().items():
            print(f"  {name:<48} {calls:>8} {inc:12.4f} {self_s:12.4f}")
        for name, value in sorted(tracer.counts.items()):
            print(f"  {name:<48} {value:>8}")
        for p in problems:
            print(f"  PROBLEM: {p}")
        values = record["per_layer"] = {k: v for k, (v, _) in layers.items()}
        record["trace_problems"] = problems
        with open(base / f"trace-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    else:
        values = e2e
    # BENCHMARK.json names the metrics of the final line: its end-to-end list
    # without tracing, its per-layer list with it.
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    shutil.rmtree(base / "traced_gen", ignore_errors=True)
    with open(base / f"result-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    correct = failed == 0 and not record.get("trace_problems")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
