"""Compare two saved outputs of perfbench/run.py.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the stdout of one run: the environment line, then the
result line.  Results measured on different backends (compiled vs
pure-Python) are not comparable, and the comparison is refused.
"""
import json
import sys


def load(path) -> tuple:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: expected an environment line and a result line")
    return json.loads(lines[-2]), json.loads(lines[-1])


def compare(base_path, new_path) -> int:
    (base_env, base), (new_env, new) = load(base_path), load(new_path)
    b_backend, n_backend = base_env["env"]["backend"], new_env["env"]["backend"]
    if b_backend != n_backend:
        print(f"refusing to compare: backend {b_backend!r} vs {n_backend!r}", file=sys.stderr)
        return 2
    for key in ("workload", "trace"):
        if base_env[key] != new_env[key]:
            print(f"refusing to compare: {key} {base_env[key]!r} vs {new_env[key]!r}",
                  file=sys.stderr)
            return 2
    for key in ("pinned", "python", "numpy", "scipy", "nproc"):
        if base_env["env"][key] != new_env["env"][key]:
            print(f"note: {key} differs: {base_env['env'][key]} vs {new_env['env'][key]}")
    print(f"{'metric':40s} {'base':>14s} {'new':>14s} {'new/base':>9s}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print(f"{name:40s} {b['value']:>14.6g} {'missing':>14s}")
            continue
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        print(f"{name:40s} {b['value']:>14.6g} {n['value']:>14.6g} {ratio:>9.3f}  {b['unit']}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
