"""Closed-loop benchmark of akkt: time to a checked verdict, per workload.

    python3 perfbench/run.py --workload {catalog,ladder,branches} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the package is imported from
./src; nothing is built).  One worker process runs the workload's ops
one at a time, with no threads of its own, for as many whole passes as
fit in S seconds (at least one).

--trace 0 prints the end-to-end metrics: `wall_s` (median wall time of
one pass over the ops), `setup_s` (median over fresh interpreters of
`import akkt` plus building the inputs), `peak_rss_mb`, `ops_ok_frac`,
`verdicts_right_frac` and `stat_met_frac`.  Both times are corrected
for host speed (see hostspeed.py); the uncorrected medians go to the
environment line.

--trace 1 runs a separate traced pass that times every binding of the
package's public layer functions from outside, then an untraced pass,
and prints the per-layer metrics.  A second such worker on the same
seed, run alongside, must reproduce every count exactly.

Every verdict is checked against the workload's planted or analytic
truth; the last stdout line is the JSON result, and the exit status is
non-zero when a verdict is wrong, a count does not repeat, or a traced
pass differs bitwise from an untraced one.  The line before it records
the pinned environment (see compare.py).
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("catalog", "ladder", "branches")
SETUP_PROBES = 13          # cold imports vary by +-15% from one start to the next
RUN_BUDGET_S = 175          # the whole run, every child included
T0 = time.monotonic()
# The child environment: hash order feeds the compile_tape cache, and
# BLAS threads would make a single-threaded benchmark use other cores.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_ok_frac": "frac",
    "verdicts_right_frac": "frac",
    "stat_met_frac": "frac",
}

# Per-layer metric units; every name is printed on every workload.
PER_LAYER = {
    "setup.import_s": "s",
    "setup.import_scipy_optimize_s": "s",
    "setup.build_s": "s",
    "expr.parse_expr.calls": "count",
    "cli.main.calls": "count",
    "cli.main.s": "s",
    "cli.report_bytes": "B",
    "penalty.generate_akkt_sequence.s": "s",
    "penalty.solve_subproblem.calls": "count",
    "penalty.solve_subproblem.s": "s",
    "penalty.solve_subproblem.self_s": "s",
    "penalty.inner_iters": "count",
    "penalty.rounds": "count",
    "penalty.polish_steps": "count",
    "penalty.records": "count",
    "penalty.stat_met_frac": "frac",
    "penalty.stationarity_model.calls": "count",
    "penalty.stationarity_model.s": "s",
    "penalty.extract_multipliers.s": "s",
    "kernels.subgrad_round.calls": "count",
    "kernels.subgrad_round.s": "s",
    "kernels.subgrad_round.iters": "count",
    "kernels.eval_phi_k.calls": "count",
    "kernels.eval_phi_k.s": "s",
    "kernels.eval_tape.calls": "count",
    "kernels.eval_tape.s": "s",
    "kernels.tape_instr": "count",
    "kernels.instr_per_s": "1/s",
    "tape.eval_grad.calls": "count",
    "tape.eval_grad.s": "s",
    "tape.compile_tape.hits": "count",
    "tape.compile_tape.misses": "count",
    "tape.eval_batch.calls": "count",
    "tape.eval_batch.rows": "count",
    "tape.eval_batch.s": "s",
    "problem.value_and_gradients.calls": "count",
    "problem.value_and_gradients.s": "s",
    "subdiff.subdifferential.calls": "count",
    "subdiff.subdifferential.s": "s",
    "minnorm.min_norm_point.calls": "count",
    "minnorm.min_norm_point.s": "s",
    "minnorm.wolfe_iters": "count",
    "minnorm.residual_general.calls": "count",
    "minnorm.residual_general.s": "s",
    "minnorm.residual_prime.calls": "count",
    "minnorm.residual_prime.s": "s",
    "minnorm.sign_branches": "count",
    "certify.check_akkt_conditions.calls": "count",
    "certify.check_akkt_conditions.s": "s",
    "certify.kkt_from_akkt.s": "s",
    "certify.check_kkt.s": "s",
    "certify.weak_efficiency_oracle.calls": "count",
    "certify.weak_efficiency_oracle.s": "s",
    "certify.weak_efficiency_oracle.points": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
    "op.count": "count",
    "op.p50_s": "s",
    "op.max_s": "s",
}

# What each workload was built to load, checked on the traced pass: a
# share outside its range fails the run.  (metric, low, high); times are
# shares of trace.wall_s.
DESIGN = {
    "catalog": [("cli.main.calls", 1, float("inf")), ("tape.eval_batch.rows", 1, float("inf"))],
    "ladder": [("penalty.solve_subproblem.s", 0.9, 1.0), ("minnorm.min_norm_point.s", 0.0, 0.05)],
    "branches": [("minnorm.min_norm_point.s", 0.8, 1.0),
                 ("penalty.solve_subproblem.calls", 0, 0)],
}

# Counts that must repeat exactly across two traced workers on one seed.
REPEATABLE = tuple(
    name for name, unit in PER_LAYER.items()
    if unit == "count" and not name.startswith("op.")
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (exit status 2)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_children(*argss, extra=()) -> list:
    """Run workers side by side to completion; returns [(parsed stdout
    JSON, stderr)] in order.  Every worker has ended when this returns."""
    procs = [subprocess.Popen([sys.executable, *extra, WORKER, *map(str, args)],
                              env=child_env(), cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for args in argss]
    outputs = []
    try:
        for args, proc in zip(argss, procs):
            left = RUN_BUDGET_S - (time.monotonic() - T0)
            try:
                out, err = proc.communicate(timeout=max(left, 1.0))
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker {args[0]} overran the {RUN_BUDGET_S} s budget") from None
            if proc.returncode != 0:
                tail = err.strip().splitlines()[-5:]
                raise BenchError(f"worker {args[0]} exited {proc.returncode}: " + " | ".join(tail))
            outputs.append((json.loads(out.strip().splitlines()[-1]), err))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
    return outputs


def run_child(args, extra=()) -> tuple:
    """Run one worker to completion; returns (parsed stdout JSON, stderr)."""
    return run_children(args, extra=extra)[0]


def setup_probes(workload, seed, probes=SETUP_PROBES) -> list:
    """Cold set-ups, each with its host-speed corrected total under
    "scaled_s" (see hostspeed.py)."""
    return [run_child(["setup", workload, seed])[0] for _ in range(probes)]


def scipy_optimize_import_s(workload, seed) -> float:
    """Cumulative import time of scipy.optimize inside one cold set-up,
    from -X importtime; 0 when akkt no longer imports it."""
    _, err = run_child(["setup", workload, seed], extra=("-X", "importtime"))
    for line in err.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(2) == "scipy.optimize":
            return int(m.group(1)) * 1e-6
    return 0.0


def commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree.  git
    may not look above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != ROOT:
        return "unknown"
    return lines[1]


def environment(worker_env) -> dict:
    return {**worker_env, "pinned": PINNED_ENV, "nproc": os.cpu_count(),
            "commit": commit()}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def verdict_problems(res, label="") -> list:
    """Wrong verdicts fail the run, except the known program failures
    listed in workloads.KNOWN_WRONG; those still count against
    verdicts_right_frac and are reported on stderr."""
    for name in res["known_wrong_ops"]:
        print(f"known program failure{label}: wrong verdict at {name}", file=sys.stderr)
    return [f"wrong verdicts{label}: {res['wrong_ops']}"] if res["wrong_ops"] else []


def end_to_end(workload, seed, seconds) -> tuple:
    probes = setup_probes(workload, seed)
    res, _ = run_child(["run", workload, seed, seconds])
    problems = list(res["self_check"]) + verdict_problems(res)
    attempted = res["attempted"]
    values = {
        "wall_s": statistics.median(res["scaled_passes"]),
        "setup_s": statistics.median(p["scaled_s"] for p in probes),
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_ok_frac": res["ok"] / attempted,
        "verdicts_right_frac": res["right"] / attempted,
        # vacuously 1 on a workload that runs no penalty solve
        "stat_met_frac": res["stat_met"] / res["records"] if res["records"] else 1.0,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - res["ok"],
        "metrics": {k: metric(values[k], u) for k, u in END_TO_END.items()},
    }
    env = dict(res["env"], uncorrected={
        "wall_s": statistics.median(res["passes"]),
        "setup_s": statistics.median(p["import_s"] + p["build_s"] for p in probes),
        "reference_s": res["reference_s"],
        "passes": len(res["passes"]),
    })
    return result, problems, env


def per_layer(workload, seed) -> tuple:
    # fewer probes than the timed run, to leave the budget to the ladder
    probes = setup_probes(workload, seed, probes=5)
    # Two identical traced workers run side by side, so that a traced
    # ladder run stays well inside the budget; the second one checks that
    # every count repeats.  Both see the same contention, so the traced and
    # untraced passes of the first are timed alike.
    (first, _), (second, _) = run_children(*[["trace", workload, seed]] * 2)
    problems = list(first["self_check"]) + verdict_problems(first, " in traced pass")
    for worker in (first, second):
        if worker["mismatched_ops"]:
            problems.append(f"traced pass differs from untraced pass: {worker['mismatched_ops']}")
    if first["traced_digests"] != second["traced_digests"]:
        problems.append("two traced runs on one seed produced different outputs")
    a, b = first["layers"], second["layers"]
    for name in REPEATABLE:
        if a[name] != b[name]:
            problems.append(f"count {name} differs across traced runs: {a[name]} vs {b[name]}")

    print(f"traced {first['bindings']} bindings", file=sys.stderr)
    values = dict(a)
    values["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    values["setup.build_s"] = statistics.median(p["build_s"] for p in probes)
    values["setup.import_scipy_optimize_s"] = scipy_optimize_import_s(workload, seed)
    values["trace.overhead_frac"] = a["trace.wall_s"] / first["untraced_wall_s"]
    values["op.count"] = len(first["op_times"])
    values["op.p50_s"] = statistics.median(first["op_times"])
    values["op.max_s"] = max(first["op_times"])
    for key, low, high in DESIGN[workload]:
        value = values[key] / values["trace.wall_s"] if key.endswith(".s") else values[key]
        print(f"design: {key} = {value:.3f} in [{low}, {high}]", file=sys.stderr)
        if not low <= value <= high:
            problems.append(f"design not met: {key} = {value:.3f} outside [{low}, {high}]")
    attempted = first["attempted"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - first["ok"],
        "metrics": {k: metric(values[k], u) for k, u in PER_LAYER.items()},
    }
    return result, problems, first["env"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "akkt", "__init__.py")):
        print(f"error: no akkt source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            result, problems, env = per_layer(args.workload, args.seed)
        else:
            result, problems, env = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not env["akkt_path"].startswith(SRC + os.sep):
        print(f"error: imported akkt from {env['akkt_path']}, not from {SRC}",
              file=sys.stderr)
        return 2
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"env": environment(env), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
