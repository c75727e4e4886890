"""Tests of the benchmark's own pieces.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import akkt  # noqa: E402
import compare  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# ------------------------------------------------------- truth tables

@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_check_confirms_planted_truth(workload, seed):
    assert workloads.self_check(workload, seed) == []


def test_catalog_truth_is_the_analytic_set():
    for problem, point, we, kkt in workloads.catalog_points(3):
        x = point[0]
        if problem == "abs-biobjective":
            assert we == (0.0 <= x <= 1.0) and kkt == we
        elif problem == "linear-tradeoff":
            assert we and kkt and abs(point[0] + point[1] - 1.0) < 1e-12
        elif problem == "mangasarian":
            assert x == 0.0 and we and not kkt
        else:
            assert we == (x == 0.0) and kkt == we


def test_catalog_draws_points_on_and_off_the_set():
    truths = [we for _, _, we, _ in workloads.catalog_points(5)]
    assert any(truths) and not all(truths)


def test_ladder_rungs_plant_kkt_and_non_kkt_points():
    from akkt.problem import load_problem_dict

    for rung, shape in zip(workloads.build_rungs(2), workloads.LADDER_SHAPES):
        pr = load_problem_dict(rung.spec())
        assert (pr.n, pr.p, len(pr.objectives[0].pieces), pr.m, pr.r) == shape
        assert akkt.feasibility_violation(pr, rung.non_kkt_point).aggregate <= 1e-8
        assert akkt.check_kkt(pr, rung.kkt_point).holds
        assert not akkt.check_kkt(pr, rung.non_kkt_point).holds


def test_branch_records_pass_e1_and_plant_a1():
    from akkt.problem import load_problem_dict

    for case in workloads.build_branch_cases(4):
        pr = load_problem_dict(case.spec)
        recs = workloads.synth_records(case)
        verdicts = {v.condition: v.outcome for v in akkt.check_akkt_conditions(
            recs, pr, np.zeros(pr.n), tol=workloads.AKKT_TOL, residual_mode="prime")}
        assert verdicts.pop("A1") == ("holds" if case.holds else "fails")
        assert set(verdicts.values()) == {"holds"}


def test_known_wrong_verdicts_name_existing_ops():
    names = {op.name for wl in ("catalog", "ladder") for op in workloads.build(wl, 0)}
    assert workloads.KNOWN_WRONG <= names


def test_only_known_wrong_verdicts_pass_the_run(capsys):
    known = sorted(workloads.KNOWN_WRONG)[:1]
    assert run.verdict_problems({"wrong_ops": [], "known_wrong_ops": known}) == []
    assert known[0] in capsys.readouterr().err
    assert run.verdict_problems({"wrong_ops": ["x"], "known_wrong_ops": []})


def test_unreadable_cli_report_is_a_failed_op(monkeypatch):
    op = workloads.build("catalog", 0)[0]
    monkeypatch.setattr(workloads, "run_cli", lambda argv: (0, "not json"))
    assert not op.run().ok
    monkeypatch.setattr(workloads, "run_cli", lambda argv: (1, "{}"))
    assert not op.run().ok


def test_ladder_seeds_relabel_one_planted_geometry():
    a, b = workloads.build_rungs(1), workloads.build_rungs(2)
    assert [r.spec() for r in a] != [r.spec() for r in b]
    for ra, rb in zip(a, b):
        assert sorted(np.abs(ra.non_kkt_point)) == sorted(np.abs(rb.non_kkt_point))


def test_inputs_depend_on_the_seed_only():
    assert workloads.catalog_points(7) == workloads.catalog_points(7)
    assert workloads.catalog_points(7) != workloads.catalog_points(8)
    assert [r.spec() for r in workloads.build_rungs(7)] == [r.spec() for r in workloads.build_rungs(7)]
    assert [c.spec for c in workloads.build_branch_cases(7)] == \
        [c.spec for c in workloads.build_branch_cases(7)]


# ------------------------------------------------------------- tracer

def test_wrappers_cover_every_binding_and_restore_the_originals():
    from akkt import certify, minnorm, penalty, problem, tape
    from akkt.backend import kernels

    originals = {
        "eval_grad": tape.eval_grad,
        "value_and_gradients": problem.PiecewiseMaxFn.value_and_gradients,
        "eval_tape": kernels.eval_tape,
        "min_norm_point": minnorm.min_norm_point,
    }
    tr = tracer.Tracer()
    tr.install()
    try:
        for mod in (akkt, tape, problem, penalty, minnorm, certify):
            assert mod.eval_grad is not originals["eval_grad"], mod.__name__
            assert mod.eval_grad.__wrapped__ is originals["eval_grad"]
        assert penalty.min_norm_point is not originals["min_norm_point"]
        assert certify.min_norm_point is not originals["min_norm_point"]
        assert kernels.eval_tape is not originals["eval_tape"]
        assert problem.PiecewiseMaxFn.value_and_gradients is not originals["value_and_gradients"]
        with pytest.raises(RuntimeError):
            tr.install()
    finally:
        tr.uninstall()
    for mod in (akkt, tape, problem, penalty, minnorm, certify):
        assert mod.eval_grad is originals["eval_grad"]
    assert penalty.min_norm_point is originals["min_norm_point"]
    assert kernels.eval_tape is originals["eval_tape"]
    assert problem.PiecewiseMaxFn.value_and_gradients is originals["value_and_gradients"]
    assert tr.bindings() == []


def test_traced_op_is_bitwise_equal_and_counted():
    ops = workloads.build("catalog", 0)
    op = next(o for o in ops if o.name.endswith(":oracle") and "linear" in o.name)
    plain = op.run()
    tr = tracer.Tracer()
    tr.install()
    tr.recording = True
    try:
        traced = op.run()
    finally:
        tr.uninstall()
    assert traced.digest == plain.digest and traced.right
    assert tr.calls["cli.main"] == 1
    assert tr.calls["certify.weak_efficiency_oracle"] == 1
    assert tr.counts["certify.weak_efficiency_oracle.points"] == 1001 * 1001
    assert tr.counts["tape.eval_batch.rows"] > 0


def test_sign_branches_count_general_residual_solves():
    case = workloads.build_branch_cases(0)[0]
    from akkt.problem import load_problem_dict

    pr = load_problem_dict(case.spec)
    last = workloads.synth_records(case)[-1]
    tr = tracer.Tracer()
    tr.install()
    tr.recording = True
    try:
        akkt.residual_m(pr, last.x, last.mult, mode="general")
        akkt.residual_m(pr, last.x, last.mult, mode="prime")
    finally:
        tr.uninstall()
    assert tr.counts["minnorm.sign_branches"] == 2 ** case.r
    assert tr.calls["minnorm.min_norm_point"] == 2 ** case.r + 1
    assert tr.calls["minnorm.residual_general"] == tr.calls["minnorm.residual_prime"] == 1


# ---------------------------------------------------------- hostspeed

def test_host_speed_sampling_leaves_results_alone_and_restores_the_signal():
    import signal

    ops = workloads.build("catalog", 0)[:8]
    plain = [op.run().digest for op in ops]
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed(interval=0.01) as speed:
        timed = [speed.timed(op.run) for op in ops]
    assert [out.digest for out, _, _ in timed] == plain
    assert all(net > 0 and corrected > 0 for _, net, corrected in timed)
    assert len(speed.samples) > 1
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_host_speed_reference_runs_without_garbage_collection(monkeypatch):
    import gc

    seen = []
    monkeypatch.setattr(hostspeed, "reference", lambda: seen.append(gc.isenabled()))
    with hostspeed.HostSpeed(interval=10.0):
        pass
    assert seen == [False] and gc.isenabled()


# ------------------------------------------------- names and contract

def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_emitted_end_to_end_names_match_benchmark_json():
    result = _bench("--workload", "catalog", "--seed", "0", "--seconds", "0.1",
                    "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}


def test_emitted_per_layer_names_match_benchmark_json():
    result = _bench("--workload", "catalog", "--seed", "0", "--seconds", "0.1",
                    "--trace", "1")
    assert result["correct"]
    names = {m["name"] for m in _spec()["per_layer"]}
    assert set(result["metrics"]) == names
    assert result["metrics"]["cli.main.calls"]["value"] > 0
    assert result["metrics"]["tape.eval_batch.rows"]["value"] > 0


def test_compare_refuses_different_backends(tmp_path):
    def save(name, backend):
        path = tmp_path / name
        env = {"env": {"backend": backend, "pinned": {}, "python": "3", "numpy": "2",
                       "scipy": "1", "nproc": 2}, "workload": "catalog", "trace": 0}
        res = {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        path.write_text(json.dumps(env) + "\n" + json.dumps(res) + "\n")
        return str(path)

    assert compare.compare(save("a", "python"), save("b", "compiled")) == 2
    assert compare.compare(save("c", "python"), save("d", "python")) == 0
