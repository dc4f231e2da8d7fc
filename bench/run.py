"""costress benchmark: CLI verification jobs, run back to back.

    python3 bench/run.py --workload galerkin --seed 1 --seconds 30 --trace 0

One process and one client in a closed loop: the workload's jobs (see
``workloads.py``) run one after another through ``costress.cli.run``, each
writing into its own temporary directory under ``.benchrun/``.  Passes over
the job list repeat until ``--seconds`` is spent, with at least two passes
so that every job's CSV can be compared byte for byte across passes.  BLAS
keeps its default thread count; the benchmark starts no threads.

On a shared machine the speed a process sees drifts (by up to 2x over
minutes on a 2-vCPU VM), so a job's wall time alone does not repeat from
run to run.  A fixed reference kernel (numpy only, no costress code) is
timed before and after every job, and the gated ``pass_ref`` is the pass
time in units of that kernel's time: the median over passes of pass time
/ the pass's median kernel time.  A faster costress lowers it; a machine
that slows down for a while does not move it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for the first half of ``--seconds`` (at least one), then traced
passes with every costress layer wrapped (see ``tracer.py``), at least
one, and prints the per-layer metrics.  Human-readable lines
come first; the last line of stdout is one JSON object.  The exit code is
1 when a job fails or a CSV differs between passes, 2 when the costress
source tree is not found next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from tracer import CALLS, POINTS, SELF, TOTAL, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".benchrun"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: units of BENCHMARK.json's metrics and of the two printed beside them;
#: the per-command ``<command>_s`` times are in seconds
UNITS = {"margin_digits": "digits", "fail_ratio": "ratio",
         **{m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}}

#: fresh-process set-up: interpreter start, package import, config build
SETUP_REPEATS = 7
_SETUP_PROBE = """
import sys
src, bench, workload, seed, out = sys.argv[1:]
sys.path[:0] = [src, bench]
import costress.cli
import workloads
workloads.write_configs(workloads.build(workload, int(seed)), out)
"""
MIN_PASSES = 2
#: a check with gap 0 counts as this many digits of margin
MARGIN_CAP = 16.0
#: reference kernel: 3 x 3 products in a Python loop, like costress's
#: pointwise code, plus an array contraction, like its batched code; the
#: loop takes about two thirds of the time, the mix that tracked both the
#: oracle-pointwise and the galerkin job times best
_REF_A, _REF_B = np.random.default_rng(0).random((2, 3, 3))
_REF_M = np.random.default_rng(1).random((64, 8192))
REF_LOOPS = 3000
REF_SAMPLES = 3


@dataclass
class JobResult:
    seconds: float
    csv: bytes | None
    report_bytes: int
    problems: list[str]
    margin: tuple[float, str] | None  # (digits, check name) of the worst check


@dataclass
class PassResult:
    traced: bool
    jobs: list[JobResult] = field(default_factory=list)
    #: reference kernel times, taken before the first job and after each job
    refs: list[float] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    solver_counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(j.seconds for j in self.jobs)

    @property
    def relative(self) -> float:
        """Pass time in units of the reference kernel's median time."""
        return self.seconds / statistics.median(self.refs)


def import_cli():
    """Import ``costress.cli`` from this checkout's source tree, or exit 2."""
    if not (SRC / "costress" / "cli.py").is_file():
        print(f"error: no costress source tree at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import costress
    import costress.cli

    if Path(costress.__file__).resolve().parent != (SRC / "costress").resolve():
        print(f"error: costress imported from {costress.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return costress.cli


def blas_threads() -> str:
    """OpenBLAS's thread count, read from the loaded library if possible."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(lib), symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return str(getter())
    return "unknown"


def reference_samples() -> list[float]:
    """Times of REF_SAMPLES runs of the reference kernel."""
    times = []
    for _ in range(REF_SAMPLES):
        start = time.perf_counter()
        total = 0.0
        for _ in range(REF_LOOPS):
            c = _REF_A @ _REF_B
            total += float(np.trace(c)) + float(np.sum(c * c))
        np.einsum("pq,rq->pr", _REF_M, _REF_M)
        times.append(time.perf_counter() - start)
    return times


def measure_setup(workload: str, seed: int, run_dir: Path) -> list[float]:
    times = []
    for i in range(SETUP_REPEATS):
        out = run_dir / f"setup{i}"
        out.mkdir()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH),
                        workload, str(seed), str(out)],
                       check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def worst_margin(checks: list[dict]) -> tuple[float, str] | None:
    """Fewest digits log10(tol / gap) over the passed checks held to a
    finite positive tolerance with gap <= tol.  That excludes the inverted
    checks (which pass when the gap is large) and tol = 0 or inf."""
    worst = None
    for c in checks:
        gap, tol = float(c["gap"]), float(c["tolerance"])
        if not (c["passed"] and 0.0 < tol < math.inf and gap <= tol):
            continue
        digits = min(MARGIN_CAP, math.log10(tol / gap)) if gap > 0.0 else MARGIN_CAP
        if worst is None or digits < worst[0]:
            worst = (digits, f"{c['name']} (gap {gap:.2g}, tol {tol:.2g})")
    return worst


def run_job(cli, job: workloads.Job, config: Path, run_dir: Path) -> JobResult:
    out = Path(tempfile.mkdtemp(dir=run_dir))
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # one line per check
            start = time.perf_counter()
            code = cli.run(job.command, str(config), str(out))
            seconds = time.perf_counter() - start
        csv_path = out / f"{job.command}.csv"
        csv = csv_path.read_bytes() if csv_path.is_file() else None
        report_path = out / "report.json"
        report = (json.loads(report_path.read_text(encoding="utf-8"))
                  if report_path.is_file() else {"checks": []})
        report_bytes = sum(p.stat().st_size for p in out.iterdir())
    finally:
        shutil.rmtree(out)
    problems = [c["name"] for c in report["checks"] if not c["passed"]]
    if "error" in report:
        problems.append(report["error"])
    if code != 0 and not problems:
        problems.append(f"exit code {code}")
    return JobResult(seconds, csv, report_bytes, problems,
                     worst_margin(report["checks"]))


def run_pass(cli, jobs, configs, run_dir, tracer=None) -> PassResult:
    result = PassResult(traced=tracer is not None)
    if tracer is not None:
        tracer.reset()
    result.refs += reference_samples()
    for i, (job, config) in enumerate(zip(jobs, configs)):
        if tracer is not None:
            tracer.job = f"job{i}"
        result.jobs.append(run_job(cli, job, config, run_dir))
        result.refs += reference_samples()
    if tracer is not None:
        result.solver_counts = dict(tracer.solver_counts)
        result.layers = layer_metrics(tracer, result)
    return result


# -- per-layer metrics --------------------------------------------------------


def _prefix(*prefixes):
    return lambda name: name.startswith(prefixes)


def _frame(name):
    return name.startswith("surfaces.") and name.endswith((".frame", ".frames_batch"))


def _counts(p, key, reduce=sum):
    return reduce([c.get(key, 0) for c in p.solver_counts.values()] or [0])


ORACLE = "on oracle-pointwise"
AUDIT = "on boundary-audit"
GALERKIN = "on galerkin"

# per-layer metric: (value(tracer, pass), end-to-end metric it should move);
# names and units are BENCHMARK.json's
PER_LAYER = {
    "tensors.calls": (lambda t, p: t.total(CALLS, _prefix("tensors.")),
                      f"verify-operators_s, energy-report_s {ORACLE}"),
    "tensors.self_s": (lambda t, p: t.total(SELF, _prefix("tensors.")),
                       f"verify-operators_s, energy-report_s {ORACLE}"),
    "fields.eval.calls": (lambda t, p: t.total(CALLS, _prefix("fields.eval.")),
                          f"verify-kinematics_s {ORACLE} (one point per call), "
                          f"hd-postulate_s {AUDIT} (batched)"),
    "fields.eval.points": (lambda t, p: t.total(POINTS, _prefix("fields.eval.")),
                           f"verify-kinematics_s {ORACLE}, hd-postulate_s {AUDIT}"),
    "fields.eval.self_s": (lambda t, p: t.total(SELF, _prefix("fields.eval.")),
                           f"verify-kinematics_s {ORACLE}, hd-postulate_s {AUDIT}"),
    "fields.fd_oracle.calls": (lambda t, p: t.total(CALLS, _prefix("fields.fd_derivative_oracle")),
                               f"verify-kinematics_s {ORACLE}"),
    "fields.fd_oracle.self_s": (lambda t, p: t.total(SELF, _prefix("fields.fd_derivative_oracle")),
                                f"verify-kinematics_s {ORACLE}"),
    "constitutive.calls": (lambda t, p: t.total(CALLS, _prefix("constitutive.")),
                           f"hd-postulate_s {AUDIT}, energy-report_s {ORACLE}"),
    "constitutive.points": (lambda t, p: t.total(POINTS, _prefix("constitutive.")),
                            f"hd-postulate_s {AUDIT}, energy-report_s {ORACLE}"),
    "constitutive.self_s": (lambda t, p: t.total(SELF, _prefix("constitutive.")),
                            f"hd-postulate_s {AUDIT}, energy-report_s {ORACLE}"),
    "surfaces.frame.calls": (lambda t, p: t.total(CALLS, _frame), f"hd-postulate_s {AUDIT}"),
    "surfaces.frame.points": (lambda t, p: t.total(POINTS, _frame), f"hd-postulate_s {AUDIT}"),
    "surfaces.self_s": (lambda t, p: t.total(SELF, _prefix("surfaces.")),
                        f"hd-postulate_s {AUDIT}"),
    "boundary.hd_postulate_s": (
        lambda t, p: t.total(TOTAL, _prefix("boundary.hd_postulate_report")),
        f"hd-postulate_s, pass_ref {AUDIT}"),
    "boundary.self_s": (lambda t, p: t.total(SELF, _prefix("boundary.")),
                        f"hd-postulate_s, pass_ref {AUDIT}"),
    "solver.tables.calls": (lambda t, p: t.total(CALLS, _prefix("solver._dof_tables")),
                            f"cosserat-limit_s, peak_rss_mb {GALERKIN}"),
    "solver.tables_mb": (lambda t, p: _counts(p, "tables_mb", max),
                         f"peak_rss_mb, bvp-solve_s {GALERKIN}"),
    "solver.gram_gflop": (lambda t, p: _counts(p, "gram_flop") / 1e9,
                          f"bvp-solve_s, cosserat-limit_s {GALERKIN}"),
    "solver.assemble_s": (lambda t, p: t.total(TOTAL, _prefix("solver.assemble")),
                          f"bvp-solve_s {GALERKIN}"),
    "solver.korn_s": (lambda t, p: t.total(TOTAL, _prefix("solver.korn_constant")),
                      f"bvp-solve_s {GALERKIN}"),
    "solver.factor_s": (lambda t, p: t.total(TOTAL, _prefix("solver.linalg.factor.")),
                        f"bvp-solve_s, cosserat-limit_s {GALERKIN}"),
    "solver.eigen_s": (lambda t, p: t.total(TOTAL, _prefix("solver.linalg.eigen.")),
                       f"bvp-solve_s, cosserat-limit_s {GALERKIN}"),
    "solver.cosserat_s": (lambda t, p: t.total(TOTAL, _prefix("solver.cosserat_limit_sweep")),
                          f"cosserat-limit_s {GALERKIN}"),
    "solver.self_s": (lambda t, p: t.total(SELF, _prefix("solver.")),
                      f"bvp-solve_s, cosserat-limit_s {GALERKIN}"),
    "cli.self_s": (lambda t, p: t.total(SELF, _prefix("cli.")), f"pass_ref {ORACLE}"),
    "cli.report_bytes": (lambda t, p: sum(j.report_bytes for j in p.jobs),
                         f"pass_ref {ORACLE} (conformal-demo writes the largest report)"),
}
#: traced pass_ref / untraced pass_ref, the one per-layer metric not of a layer
TRACE_OVERHEAD = "trace.overhead"


def layer_metrics(tracer, result: PassResult) -> dict:
    return {name: value(tracer, result) for name, (value, _) in PER_LAYER.items()}


# -- reporting ----------------------------------------------------------------


def job_median(passes, j: int) -> float:
    return statistics.median(r.jobs[j].seconds for r in passes)


def metric_line(name: str, value: float, note: str = "") -> str:
    return f"{name:32s} {value:12.6g} {UNITS.get(name, 's'):6s} {note}".rstrip()


def check_passes(jobs, passes) -> list[tuple[int, int, str]]:
    """(pass, job, problem) for every failed job and every CSV that
    differs from the first pass's CSV of the same job."""
    broken = []
    for p, result in enumerate(passes):
        for j, (job, r) in enumerate(zip(jobs, result.jobs)):
            if r.problems:
                broken.append((p, j, f"{job.label}: " + "; ".join(r.problems)))
            elif r.csv != passes[0].jobs[j].csv:
                broken.append((p, j, f"{job.label}: CSV differs from pass 0"))
    return broken


def end_to_end(jobs, passes, setup) -> dict:
    note = f"sum over jobs of the job's median of {len(passes)} passes"
    per_command = {}
    for j, job in enumerate(jobs):
        key = f"{job.command}_s"
        per_command[key] = per_command.get(key, 0.0) + job_median(passes, j)
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_ref": statistics.median(r.relative for r in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    ref = statistics.median(t for r in passes for t in r.refs)
    print(metric_line("setup_s", metrics["setup_s"], f"median of {len(setup)}"))
    print(metric_line("pass_ref", metrics["pass_ref"], f"median of {len(passes)} passes "
                      "of pass time / the pass's median reference kernel time"))
    print(metric_line("pass_s", sum(per_command.values()),
                      f"{note}; reference kernel {ref * 1e3:.4g} ms (median)"))
    for name, value in per_command.items():
        print(metric_line(name, value, note))
    print(metric_line("peak_rss_mb", metrics["peak_rss_mb"]))
    return metrics


def per_layer(jobs, passes) -> dict:
    traced = [r for r in passes if r.traced]
    untraced = [r for r in passes if not r.traced]
    metrics = {}
    for name, (_, moves) in PER_LAYER.items():
        metrics[name] = statistics.median(r.layers[name] for r in traced)
        print(metric_line(name, metrics[name], f"-> {moves}"))
    metrics[TRACE_OVERHEAD] = (statistics.median(r.relative for r in traced)
                               / statistics.median(r.relative for r in untraced))
    print(metric_line(TRACE_OVERHEAD, metrics[TRACE_OVERHEAD],
                      f"-> pass_ref on every workload ({len(traced)} traced, "
                      f"{len(untraced)} untraced passes)"))
    for key, counts in traced[0].solver_counts.items():
        job = jobs[int(key.removeprefix("job"))]
        if "dofs" in counts:
            print(f"computed from array shapes, {job.label}: {counts['dofs']} dofs, "
                  f"{counts['quad_points']} quadrature points, "
                  f"{counts['tables_mb']:.1f} MB dof tables, "
                  f"{counts['gram_flop'] / 1e9:.2f} GFLOP in Gram einsums")
    return metrics


# -- main -----------------------------------------------------------------------


def main(argv=None, build=workloads.build) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    tracer = Tracer() if args.trace else None
    try:
        setup = [] if args.trace else measure_setup(args.workload, args.seed, run_dir)
        jobs = build(args.workload, args.seed)
        (run_dir / "configs").mkdir()
        configs = workloads.write_configs(jobs, run_dir / "configs")
        threads = blas_threads()

        passes: list[PassResult] = []
        walls = []
        start = time.perf_counter()
        elapsed = estimate = 0.0
        while True:
            # trace the second half, and at least the last pass that fits
            traced = (tracer is not None and bool(passes)
                      and (elapsed >= args.seconds / 2
                           or elapsed + 2 * estimate > args.seconds))
            if traced and not passes[-1].traced:
                tracer.install()
            passes.append(run_pass(cli, jobs, configs, run_dir,
                                   tracer if traced else None))
            walls.append(time.perf_counter() - start - elapsed)
            elapsed += walls[-1]
            estimate = statistics.median(walls)
            if (len(passes) >= MIN_PASSES and elapsed + estimate > args.seconds
                    and (tracer is None or traced)):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run_dir)

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(jobs)} jobs, closed loop, 1 client; BLAS threads {threads} "
          f"(nproc {os.cpu_count()})")
    broken = check_passes(jobs, passes)
    attempted = len(passes) * len(jobs)
    failed = len({(p, j) for p, j, _ in broken})
    for p, j, problem in broken:
        print(f"FAILED pass {p} job {j}: {problem}")
    margins = [(r.margin, job.label) for job, r in zip(jobs, passes[0].jobs) if r.margin]
    if margins:
        (digits, check), label = min(margins)
        print(metric_line("margin_digits", digits, f"worst check: {label} {check}"))
    print(metric_line("fail_ratio", failed / attempted, f"{failed} of {attempted} jobs"))

    if tracer is None:
        metrics = end_to_end(jobs, passes, setup)
    else:
        metrics = per_layer(jobs, passes)
    correct = not broken
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
