"""Contract between the package and the benchmark's layer tracer.

`perfbench/tracer.py` binds package functions by name and reads kernel
arguments by position.  These tests import it as it stands (writing no
bytecode next to it) so that a renamed function, a moved binding or a
changed kernel signature fails here rather than only in a benchmark run.
"""
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import akkt
from akkt import penalty, tape
from akkt.expr import parse_expr
from akkt.problem import builtin

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
KERNEL_HOOKS = ("kernels.subgrad_round", "kernels.eval_phi_k", "kernels.eval_tape")


@pytest.fixture(scope="module")
def tracer():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def _bindings():
    """Every attribute of every loaded akkt module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "akkt" or name.startswith("akkt.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def _floats(seq, vals, ok) -> bytes:
    parts = [vals, ok.astype(np.float64)]
    for rec in seq.records:
        parts += [rec.x, rec.mult.lam, rec.mult.mu, rec.mult.tau,
                  [rec.residual, rec.residual_prime, rec.stationarity, rec.phi,
                   rec.phi_k, rec.iterations], rec.e2]
    return b"".join(np.asarray(p, dtype=np.float64).tobytes() for p in parts)


def test_every_target_resolves(tracer):
    tr = tracer.Tracer()
    for key, (module_name, path) in tracer.TARGETS.items():
        _, _, fn = tr._resolve(module_name, path)
        assert callable(fn), key


def test_install_then_uninstall_restores_every_binding(tracer):
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert len(tr.bindings()) >= len(tracer.TARGETS)
        changed = {key for key, value in _bindings().items() if before.get(key) is not value}
        assert changed
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tr.bindings() == []


def test_traced_run_is_bitwise_equal_and_fires_every_kernel_hook(tracer):
    pr = builtin("linear-tradeoff")
    cfg = penalty.PenaltyConfig(schedule=(1.0, 10.0))
    e = parse_expr("log(x0) + x1^2", 2)
    X = np.array([[0.5, 1.0], [0.0, 2.0], [3.0, -1.0]])

    def run():
        seq = penalty.generate_akkt_sequence(pr, [0.5, 0.5], cfg)
        return _floats(seq, *tape.eval_batch(e, X))

    plain = run()
    tr = tracer.Tracer()
    tr.install()
    tr.recording = True
    try:
        traced = run()
    finally:
        tr.uninstall()
    assert traced == plain
    assert tr.calls["penalty.generate_akkt_sequence"] == 1
    assert tr.calls["tape.eval_batch"] == 1
    assert tr.counts["tape.eval_batch.rows"] == len(X)
    for key in KERNEL_HOOKS:
        assert tr.calls[key] > 0, key
    # what the benchmark reads from kernel arguments: args[0] of the phi_k
    # kernels is the whole program's opcode sequence, one count per instruction
    assert tr.counts["kernels.subgrad_round.iters"] == 3500
    assert tr.counts["kernels.tape_instr"] == 25458
    assert akkt.BACKEND == "python"
