"""Tracing of the akkt layers from outside the package.

`Tracer.install()` replaces every binding of each traced function with a
timing wrapper: the defining module's attribute, every `from .x import f`
copy in the other akkt modules and the package namespace, and class
attributes for methods.  `uninstall()` puts every original back and
checks that it did.  Nothing in the package is edited.

Each wrapper records calls and inclusive time; a span stack gives self
time (inclusive minus the wrapped calls made inside).  Some targets also
read counts from their arguments or return values ("computed" counts):
Wolfe iterations, inner iterations, tape instructions, grid points.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

from workloads import STAT_TARGET

# key -> (module, attribute path); "Class.method" paths patch the class.
TARGETS = {
    "expr.parse_expr": ("akkt.expr", "parse_expr"),
    "cli.main": ("akkt.cli", "main"),
    "penalty.generate_akkt_sequence": ("akkt.penalty", "generate_akkt_sequence"),
    "penalty.solve_subproblem": ("akkt.penalty", "solve_subproblem"),
    "penalty.stationarity_model": ("akkt.penalty", "stationarity_model"),
    "penalty.extract_multipliers": ("akkt.penalty", "extract_multipliers"),
    "kernels.subgrad_round": (None, "subgrad_round"),
    "kernels.eval_phi_k": (None, "eval_phi_k"),
    "kernels.eval_tape": (None, "eval_tape"),
    "tape.eval_grad": ("akkt.tape", "eval_grad"),
    "tape.eval_batch": ("akkt.tape", "eval_batch"),
    "problem.value_and_gradients": ("akkt.problem", "PiecewiseMaxFn.value_and_gradients"),
    "subdiff.subdifferential": ("akkt.subdiff", "subdifferential"),
    "minnorm.min_norm_point": ("akkt.minnorm", "min_norm_point"),
    "minnorm.residual": ("akkt.minnorm", "residual_m_detail"),
    "certify.check_akkt_conditions": ("akkt.certify", "check_akkt_conditions"),
    "certify.kkt_from_akkt": ("akkt.certify", "kkt_from_akkt"),
    "certify.check_kkt": ("akkt.certify", "check_kkt"),
    "certify.weak_efficiency_oracle": ("akkt.certify", "weak_efficiency_oracle"),
}


class Tracer:
    """Install with `install()`, collect with `recording = True`, then
    `uninstall()`.  Counters live on the instance, not in the package."""

    def __init__(self):
        self.recording = False
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []            # child-time accumulators of open spans
        self._general_depth = 0     # open residual calls in 'general' mode
        self._patched = []          # (owner, attribute, original)

    def reset(self):
        for table in (self.calls, self.seconds, self.self_seconds, self.counts):
            table.clear()

    # ----------------------------------------------------------- patching

    def _resolve(self, module_name, path):
        import akkt.backend

        if module_name is None:            # a kernel of the active backend
            return akkt.backend.kernels, path, getattr(akkt.backend.kernels, path)
        owner = importlib.import_module(module_name)
        *cls, attr = path.split(".")
        for name in cls:
            owner = getattr(owner, name)
        return owner, attr, getattr(owner, attr)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {}
        for key, (module_name, path) in TARGETS.items():
            owner, attr, fn = self._resolve(module_name, path)
            wrapper = self._wrap(key, fn)
            if isinstance(owner, type):
                self._patch(owner, attr, fn, wrapper)
            else:
                originals[id(fn)] = (fn, wrapper)
        # every akkt module's own binding of each traced function
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "akkt" or mod_name.startswith("akkt.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, value, hit[1])

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        stale = [f"{getattr(o, '__name__', o)}.{a}" for o, a, f in self._patched
                 if getattr(o, a) is not f]
        self._patched = []
        self.recording = False
        if stale:
            raise RuntimeError(f"bindings not restored: {stale}")

    def bindings(self) -> list:
        """(owner name, attribute) of every binding currently patched."""
        return [(getattr(o, "__name__", repr(o)), a) for o, a, _ in self._patched]

    # ----------------------------------------------------------- wrappers

    def _wrap(self, key, fn):
        post = _POST.get(key)
        residual = key == "minnorm.residual"
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span_key = key
            if residual:
                mode = args[4] if len(args) > 4 else kwargs.get("mode", "general")
                span_key = f"minnorm.residual_{mode}"
                if mode == "general":
                    tracer._general_depth += 1
            child = [0.0]
            tracer._stack.append(child)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                tracer.calls[span_key] += 1
                tracer.seconds[span_key] += dt
                tracer.self_seconds[span_key] += dt - child[0]
                if residual and span_key == "minnorm.residual_general":
                    tracer._general_depth -= 1
            if post is not None:
                post(tracer, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper


def _post_min_norm(t, args, kwargs, out):
    t.counts["minnorm.wolfe_iters"] += out.iterations
    if t._general_depth:
        t.counts["minnorm.sign_branches"] += 1


def _post_solve(t, args, kwargs, out):
    t.counts["penalty.inner_iters"] += out.iterations
    t.counts["penalty.rounds"] += out.rounds
    t.counts["penalty.polish_steps"] += out.polish_steps


def _post_sequence(t, args, kwargs, out):
    t.counts["penalty.records"] += len(out.records)
    t.counts["penalty.records_stat_met"] += sum(
        1 for r in out.records if r.stationarity <= STAT_TARGET)


def _post_subgrad(t, args, kwargs, out):
    n_done = out[4]
    t.counts["kernels.subgrad_round.iters"] += n_done
    t.counts["kernels.tape_instr"] += n_done * len(args[0])


def _post_phi_k(t, args, kwargs, out):
    t.counts["kernels.tape_instr"] += len(args[0])


def _post_eval_tape(t, args, kwargs, out):
    t.counts["kernels.tape_instr"] += int(args[4]) - int(args[3])


def _post_batch(t, args, kwargs, out):
    t.counts["tape.eval_batch.rows"] += len(out[0])


def _post_oracle(t, args, kwargs, out):
    t.counts["certify.weak_efficiency_oracle.points"] += out.points_checked


_POST = {
    "minnorm.min_norm_point": _post_min_norm,
    "penalty.solve_subproblem": _post_solve,
    "penalty.generate_akkt_sequence": _post_sequence,
    "kernels.subgrad_round": _post_subgrad,
    "kernels.eval_phi_k": _post_phi_k,
    "kernels.eval_tape": _post_eval_tape,
    "tape.eval_batch": _post_batch,
    "certify.weak_efficiency_oracle": _post_oracle,
}
