"""Self-test of the benchmark at tiny job sizes.

    python3 bench/selftest.py

Runs ``run.py``'s main on every workload with the tiny job lists of
``workloads.py``, untraced and traced, and checks that

* the JSON result carries exactly the metrics BENCHMARK.json lists, with
  their units, and every one of them (plus the per-command times,
  ``margin_digits`` and ``fail_ratio``) is printed by name;
* the layers a workload bypasses read zero calls in the traced run, and
  the ones it exercises do not;
* the computed dof-table size is 27 doubles per dof and quadrature point;
* a job forced to fail (``tolerances.operators: 0``) counts in
  ``fail_ratio`` and makes the run exit 1;
* in a directory holding only BENCHMARK.json and the benchmark, the run
  exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BYPASSED = {
    "oracle-pointwise": ("surfaces", "boundary", "solver"),
    "boundary-audit": ("solver",),
    "galerkin": ("surfaces", "boundary"),
}
EXERCISED = {
    "oracle-pointwise": ("tensors.calls", "fields.eval.calls", "fields.fd_oracle.calls",
                         "constitutive.calls", "cli.report_bytes"),
    "boundary-audit": ("surfaces.frame.calls", "fields.eval.points", "constitutive.points",
                       "boundary.hd_postulate_s"),
    "galerkin": ("solver.tables.calls", "solver.gram_gflop", "solver.assemble_s"),
}

failures = []


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def tiny(workload, seed):
    return workloads.build(workload, seed, tiny=True)


def run_main(workload, trace, build=tiny):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)], build=build)
    lines = out.getvalue().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def printed(lines, name):
    return any(line.split()[:1] == [name] for line in lines)


def check_metrics(workload, trace, code, lines, result):
    spec = SPEC["per_layer" if trace else "end_to_end"]
    tag = f"{workload} trace {trace}"
    expect(code == 0 and result["correct"] and result["failed"] == 0,
           f"{tag}: every job passes, exit 0")
    expect({k: v["unit"] for k, v in result["metrics"].items()}
           == {m["name"]: m["unit"] for m in spec},
           f"{tag}: JSON metrics are the BENCHMARK.json list with units")
    names = [m["name"] for m in spec] + ["margin_digits", "fail_ratio"]
    if not trace:
        names += [f"{j.command}_s" for j in tiny(workload, 3)]
    missing = [n for n in names if not printed(lines, n)]
    expect(not missing, f"{tag}: every metric printed by name {missing or ''}")


def main() -> int:
    for workload in workloads.WORKLOADS:
        check_metrics(workload, 0, *run_main(workload, 0))
        code, lines, result = run_main(workload, 1)
        check_metrics(workload, 1, code, lines, result)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        zero = [k for k in metrics if k.startswith(BYPASSED[workload]) and metrics[k] != 0]
        expect(not zero, f"{workload}: bypassed layers {BYPASSED[workload]} read zero {zero}")
        idle = [k for k in EXERCISED[workload] if not metrics[k] > 0]
        expect(not idle, f"{workload}: exercised layers read non-zero {idle}")
        if workload == "galerkin":
            n = max(j.config["n_modes"] for j in tiny(workload, 3))
            dofs, points = 3 * n**3, (n + 6) ** 3  # default order N + 6
            expect(abs(metrics["solver.tables_mb"] - 27 * dofs * points * 8 / 1e6) < 1e-9,
                   f"galerkin: dof tables of N={n} are 27 x {dofs} dofs x {points} points x 8 B")

    def failing(workload, seed):
        bad = workloads.Job("verify-operators",
                            {"seed": seed, "cases": 20, "tolerances": {"operators": 0}})
        return tiny(workload, seed) + [bad]

    code, lines, result = run_main("galerkin", 0, build=failing)
    passes = result["attempted"] // len(failing("galerkin", 3))
    expect(code == 1 and not result["correct"] and result["failed"] == passes,
           "forced failure: one failed job per pass, exit 1")
    ratio = [line.split()[1] for line in lines if line.startswith("fail_ratio")]
    expect(ratio == [f"{passes / result['attempted']:.6g}"],
           f"forced failure: fail_ratio printed as {ratio}")
    expect(any(line.startswith("FAILED") and "verify-operators" in line for line in lines),
           "forced failure: the broken job and check are named")

    bare = run.RUNS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "galerkin",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           f"bare directory: exit {proc.returncode}, no result printed")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
