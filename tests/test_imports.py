"""Cold start: scipy.optimize is loaded only by the first check_kkt.

The checks run in one fresh interpreter, since this test process has
long since imported scipy.optimize through other tests.
"""
import json
import os
import subprocess
import sys

import pytest

import akkt

SRC = os.path.dirname(os.path.dirname(os.path.abspath(akkt.__file__)))

# Runs the commands in order in one interpreter and prints, after each
# step, its exit code and whether scipy.optimize is loaded.
SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
import akkt
steps = {"import": [0, "scipy.optimize" in sys.modules]}
from akkt import cli
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps[argv[0]] = [code, "scipy.optimize" in sys.modules]
print(json.dumps(steps))
"""

COMMANDS = [
    ["catalog"],
    ["penalty", "builtin:linear-tradeoff", "--point", "0.5,0.5"],
    ["certify-akkt", "builtin:linear-tradeoff", "--point", "0.5,0.5"],
    ["certify-convex", "builtin:linear-tradeoff", "--point", "0.5,0.5"],
    ["oracle", "builtin:mangasarian", "--point", "0", "--box=-1..1"],
    ["check-kkt", "builtin:linear-tradeoff", "--point", "0.5,0.5"],
]


@pytest.fixture(scope="module")
def steps():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(COMMANDS)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_import_leaves_scipy_optimize_unloaded(steps):
    assert steps["import"] == [0, False]


@pytest.mark.parametrize("command", [argv[0] for argv in COMMANDS[:-1]])
def test_commands_before_check_kkt_leave_it_unloaded(steps, command):
    assert steps[command] == [0, False]


def test_check_kkt_loads_it(steps):
    assert steps["check-kkt"] == [0, True]
