# perfbench's tracer patches `kernels` here, and compare.py refuses results whose BACKEND differs.
from . import _kernels_py as kernels  # noqa: F401

BACKEND = "python"
