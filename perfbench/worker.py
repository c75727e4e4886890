"""Child process of the akkt benchmark; `run.py` starts it.

    worker.py setup WORKLOAD SEED          time `import akkt` + input build
    worker.py run   WORKLOAD SEED SECONDS  timed passes, tracing off
    worker.py trace WORKLOAD SEED          one traced pass, then one
                                           untraced pass to compare

Each mode prints one JSON object on stdout.  `setup` times a cold
`import akkt`, so this file imports only standard-library modules (and
hostspeed, which does too) before it.
"""
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402


def _import_akkt():
    import akkt  # noqa: F401


def _build(workload, seed):
    import workloads

    return workloads.build(workload, seed)


def _setup(workload, seed):
    # sampled every 50 ms, so that samples fall inside the ~0.5 s set-up
    with hostspeed.HostSpeed(interval=0.05) as speed:
        _, import_s, import_c = speed.timed(_import_akkt)
        _, build_s, build_c = speed.timed(lambda: _build(workload, seed))
    return {"import_s": import_s, "build_s": build_s, "scaled_s": import_c + build_c}


def _environment():
    import numpy
    import scipy

    import akkt

    return {
        "backend": akkt.BACKEND,
        "akkt": akkt.__version__,
        "akkt_path": os.path.dirname(akkt.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _run_pass(ops):
    """Run every op once; returns (wall seconds, per-op seconds, outcomes).
    Traced passes use this one: host-speed samples taken from a signal
    handler would land inside the traced spans."""
    times, outcomes = [], []
    t0 = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        outcomes.append(op.run())
        times.append(time.perf_counter() - t)
    return time.perf_counter() - t0, times, outcomes


def _run_corrected_pass(ops, speed):
    """Run every op once under a HostSpeed; returns (wall seconds net of
    the reference samples, host-speed corrected seconds, outcomes)."""
    wall = scaled = 0.0
    outcomes = []
    for op in ops:
        out, net, corrected = speed.timed(op.run)
        outcomes.append(out)
        wall += net
        scaled += corrected
    return wall, scaled, outcomes


def _tally(ops, outcomes):
    """Counts over one or more passes of `ops`, in order.  Wrong verdicts
    are split into known program failures and the rest."""
    import workloads

    wrong = sorted({ops[i % len(ops)].name for i, o in enumerate(outcomes) if not o.right})
    return {
        "attempted": len(outcomes),
        "ok": sum(o.ok for o in outcomes),
        "right": sum(o.right for o in outcomes),
        "records": sum(o.records for o in outcomes),
        "stat_met": sum(o.stat_met for o in outcomes),
        "wrong_ops": [name for name in wrong if name not in workloads.KNOWN_WRONG],
        "known_wrong_ops": [name for name in wrong if name in workloads.KNOWN_WRONG],
    }


def _run(workload, seed, seconds):
    import workloads

    ops = workloads.build(workload, seed)
    problems = workloads.self_check(workload, seed)
    passes, scaled, outcomes = [], [], []
    t_begin = time.perf_counter()
    with hostspeed.HostSpeed() as speed:
        while True:
            wall, corrected, outs = _run_corrected_pass(ops, speed)
            passes.append(wall)
            scaled.append(corrected)
            outcomes += outs
            # start another pass only if it should end inside the window,
            # so that a pass longer than half the window runs exactly once
            if time.perf_counter() - t_begin + statistics.median(passes) > seconds:
                break
    return {
        "passes": passes,
        "scaled_passes": scaled,
        "reference_s": statistics.median(d for _, d in speed.samples),
        "self_check": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
        **_tally(ops, outcomes),
    }


def _layer_metrics(tr, wall, outcomes):
    """Per-layer numbers of one traced pass, named as in BENCHMARK.json."""
    c, s, counts = tr.calls, tr.seconds, tr.counts
    kernel_s = s["kernels.subgrad_round"] + s["kernels.eval_phi_k"] + s["kernels.eval_tape"]
    records = counts["penalty.records"]
    m = {
        "trace.wall_s": wall,
        "cli.report_bytes": sum(o.report_bytes for o in outcomes),
        "penalty.solve_subproblem.self_s": tr.self_seconds["penalty.solve_subproblem"],
        "penalty.records": records,
        "penalty.stat_met_frac":
            counts["penalty.records_stat_met"] / records if records else 1.0,
        "kernels.instr_per_s": counts["kernels.tape_instr"] / kernel_s if kernel_s else 0.0,
    }
    for key in ("cli.main", "penalty.solve_subproblem", "penalty.stationarity_model",
                "kernels.subgrad_round", "kernels.eval_phi_k", "kernels.eval_tape",
                "tape.eval_grad", "tape.eval_batch", "problem.value_and_gradients",
                "subdiff.subdifferential", "minnorm.min_norm_point",
                "minnorm.residual_general", "minnorm.residual_prime",
                "certify.check_akkt_conditions", "certify.weak_efficiency_oracle"):
        m[f"{key}.calls"] = c[key]
        m[f"{key}.s"] = s[key]
    for key in ("penalty.generate_akkt_sequence", "penalty.extract_multipliers",
                "certify.kkt_from_akkt", "certify.check_kkt"):
        m[f"{key}.s"] = s[key]
    for key in ("penalty.inner_iters", "penalty.rounds", "penalty.polish_steps",
                "kernels.subgrad_round.iters", "kernels.tape_instr",
                "tape.eval_batch.rows", "minnorm.wolfe_iters", "minnorm.sign_branches",
                "certify.weak_efficiency_oracle.points"):
        m[key] = counts[key]
    return m


def _trace(workload, seed):
    import akkt.tape
    import tracer as tracing
    import workloads

    tr = tracing.Tracer()
    tr.install()
    tr.recording = True
    ops = workloads.build(workload, seed)
    parse_calls = tr.calls["expr.parse_expr"]
    tr.uninstall()
    problems = workloads.self_check(workload, seed)

    tr.reset()
    tr.install()
    bindings = len(tr.bindings())
    cache0 = akkt.tape.compile_tape.cache_info()
    tr.recording = True
    wall, _, traced = _run_pass(ops)
    tr.recording = False
    cache1 = akkt.tape.compile_tape.cache_info()
    tr.uninstall()

    layers = _layer_metrics(tr, wall, traced)
    layers["expr.parse_expr.calls"] = parse_calls + tr.calls["expr.parse_expr"]
    layers["tape.compile_tape.hits"] = cache1.hits - cache0.hits
    layers["tape.compile_tape.misses"] = cache1.misses - cache0.misses
    plain_wall, op_times, plain = _run_pass(ops)
    return {
        "layers": layers,
        "self_check": problems,
        "bindings": bindings,
        "traced_digests": [o.digest for o in traced],
        "untraced_wall_s": plain_wall,
        "op_times": op_times,
        "mismatched_ops": [op.name for op, a, b in zip(ops, traced, plain)
                           if a.digest != b.digest],
        "env": _environment(),
        **_tally(ops, traced),
    }


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        result = _setup(workload, seed)
    elif mode == "run":
        result = _run(workload, seed, float(argv[3]))
    elif mode == "trace":
        result = _trace(workload, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
