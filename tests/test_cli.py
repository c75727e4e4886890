"""Command-line interface: subcommands, exit codes, reports, determinism."""
import json
import subprocess
import sys

import pytest

from akkt import cli
from akkt.problem import builtin, load_problem_dict, save_problem

P1 = "builtin:mangasarian"
P2 = "builtin:abs-biobjective"
P3 = "builtin:linear-tradeoff"
P4 = "builtin:nonconvex-max"


def run(argv):
    return cli.main(argv)


class TestCatalog:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "akkt", "catalog"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        names = {row["name"] for row in report["problems"]}
        assert {"mangasarian", "abs-biobjective",
                "linear-tradeoff", "nonconvex-max"} <= names

    def test_report_file(self, tmp_path):
        path = tmp_path / "catalog.json"
        assert run(["catalog", "--report", str(path)]) == 0
        report = json.loads(path.read_text())
        assert len(report["problems"]) >= 4
        row = next(r for r in report["problems"] if r["name"] == "linear-tradeoff")
        assert (row["n"], row["objectives"], row["equalities"]) == (2, 2, 1)
        assert row["source"] == P3


class TestCertifyAkkt:
    def test_holding_run(self, tmp_path):
        path = tmp_path / "report.json"
        code = run(["certify-akkt", P1, "--point", "0",
                    "--schedule", "geometric:1..1e6", "--report", str(path)])
        assert code == 0
        text = path.read_text()
        assert text.endswith("\n")
        report = json.loads(text)
        assert report["verdict"] == "holds"
        assert report["parameters"]["schedule"] == [10.0 ** i for i in range(7)]
        outcomes = {c["condition"]: c["outcome"] for c in report["conditions"]}
        assert set(outcomes) == {"A0", "A1", "A2", "A3", "E1", "E2", "SGN", "SCZ"}
        assert set(outcomes.values()) == {"holds"}
        # the short schedule leaves the multiplier limit undecided
        assert report["kkt_recovery"]["outcome"] == "inconclusive"

    def test_failing_tolerance_gives_exit_one(self, tmp_path):
        path = tmp_path / "report.json"
        code = run(["certify-akkt", P1, "--point", "0",
                    "--tol", "1e-12", "--report", str(path)])
        assert code == 1
        report = json.loads(path.read_text())
        assert report["verdict"] == "fails"
        outcomes = {c["condition"]: c["outcome"] for c in report["conditions"]}
        assert outcomes["A0"] == "fails"

    def test_prime_mode(self, tmp_path):
        path = tmp_path / "report.json"
        code = run(["certify-akkt", P3, "--point", "0.5,0.5",
                    "--mode", "prime", "--report", str(path)])
        assert code == 0
        report = json.loads(path.read_text())
        assert report["parameters"]["mode"] == "prime"

    def test_defaults(self):
        args = cli.build_parser().parse_args(["certify-akkt", P1, "--point", "0"])
        assert args.tol == 1e-2 and args.mode == "general"
        args = cli.build_parser().parse_args(["check-kkt", P1, "--point", "0"])
        assert args.tol == 1e-6


class TestCheckKkt:
    def test_failure_exit_still_writes_report(self, tmp_path):
        path = tmp_path / "kkt.json"
        code = run(["check-kkt", P1, "--point", "0", "--report", str(path)])
        assert code == 1
        report = json.loads(path.read_text())
        assert report["verdict"] == "fails"
        assert abs(report["residual"] - 1.0) <= 1e-9

    def test_holding_point_to_stdout(self, capsys):
        assert run(["check-kkt", P2, "--point", "0.5"]) == 0
        text = capsys.readouterr().out
        report = json.loads(text)
        assert report["verdict"] == "holds"
        assert report["multipliers"]["lambda"] == pytest.approx([0.5, 0.5])
        # reports are canonical: sorted keys, two-space indent, newline
        assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert report["parameters"]["eps_act"] == 1e-6

    def test_reports_the_eps_act_it_ran_with(self, capsys):
        assert run(["check-kkt", P2, "--point", "0.5", "--eps-act", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parameters"]["eps_act"] == 0.0


class TestPenalty:
    def test_report_and_csv(self, tmp_path):
        rpath, cpath = tmp_path / "seq.json", tmp_path / "seq.csv"
        code = run(["penalty", P3, "--point", "0.5,0.5",
                    "--report", str(rpath), "--csv", str(cpath)])
        assert code == 0
        report = json.loads(rpath.read_text())
        lines = cpath.read_text().splitlines()
        assert lines[0] == ("k,x,lambda,mu,tau,residual_m,residual_m_prime,"
                            "feas,phi,e2_max,status")
        assert len(lines) == 1 + len(report["records"])
        assert report["verdict"] == "holds"

    def test_infeasible_base_point(self, capsys):
        assert run(["penalty", P1, "--point", "0.5"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCertifyConvex:
    def test_certifies_convex_problem(self, tmp_path):
        path = tmp_path / "convex.json"
        code = run(["certify-convex", P2, "--point", "0.5",
                    "--report", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["verdict"] == "holds"

    def test_rejects_unasserted_problem(self, capsys):
        assert run(["certify-convex", P4, "--point", "0"]) == 2
        assert "convex" in capsys.readouterr().err


class TestOracle:
    def test_negative_box_form(self, tmp_path):
        path = tmp_path / "oracle.json"
        code = run(["oracle", P1, "--point", "0", "--box=-1..1",
                    "--report", str(path)])
        assert code == 0
        report = json.loads(path.read_text())
        assert report["weakly_efficient"] is True
        assert report["points_checked"] == 2001

    def test_refutation_reports_witness(self, tmp_path):
        path = tmp_path / "oracle.json"
        code = run(["oracle", P2, "--point", "3", "--box=-1..4",
                    "--report", str(path)])
        assert code == 1
        report = json.loads(path.read_text())
        assert report["counterexample"] == pytest.approx([-0.999])

    def test_box_must_contain_point(self, capsys):
        assert run(["oracle", P1, "--point", "0", "--box", "0.5..1"]) == 2
        capsys.readouterr()

    def test_malformed_box(self, capsys):
        assert run(["oracle", P1, "--point", "0", "--box", "oops"]) == 2
        capsys.readouterr()

    def test_non_finite_box_corner(self, capsys):
        assert run(["oracle", P1, "--point", "0", "--box=nan..1"]) == 2
        assert "box corners must be finite" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_builtin(self, capsys):
        assert run(["penalty", "builtin:nope", "--point", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_point_dimension(self, capsys):
        assert run(["penalty", P1, "--point", "0,0"]) == 2
        capsys.readouterr()

    def test_bad_schedule(self, capsys):
        assert run(["penalty", P1, "--point", "0",
                    "--schedule", "geometric:5"]) == 2
        assert run(["penalty", P1, "--point", "0",
                    "--schedule", "1,abc"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["check-kkt", "penalty"])
    def test_nan_eps_act(self, capsys, command):
        assert run([command, P1, "--point", "0", "--eps-act", "nan"]) == 2
        captured = capsys.readouterr()
        assert "eps_act" in captured.err and captured.out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["check-kkt", "certify-akkt"])
    def test_bad_tol(self, capsys, tmp_path, command, tol):
        report = tmp_path / "report.json"
        assert run([command, P1, "--point", "0", f"--tol={tol}",
                    "--report", str(report)]) == 2
        assert "--tol must be finite and >= 0" in capsys.readouterr().err
        assert not report.exists()

    def test_missing_required_point(self):
        with pytest.raises(SystemExit) as ei:
            run(["penalty", P1])
        assert ei.value.code == 2

    def test_csv_not_accepted_outside_sequence_commands(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            run(["check-kkt", P1, "--point", "0",
                 "--csv", str(tmp_path / "x.csv")])
        assert ei.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as ei:
            run(["frobnicate"])
        assert ei.value.code == 2


class TestNumericalFailures:
    def test_domain_guard_exits_three(self, tmp_path, capsys):
        pr = load_problem_dict({
            "name": "guarded", "n": 1,
            "objectives": [{"pieces": ["log(x0)"], "convex": False}],
            "inequalities": [], "equalities": [],
        })
        ppath = tmp_path / "guarded.json"
        save_problem(pr, ppath)
        assert run(["penalty", str(ppath), "--point", "0"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_oracle_domain_error_at_point_exits_three(self, tmp_path, capsys):
        # DomainError is a ValueError: the oracle must not report it as usage
        pr = load_problem_dict({
            "name": "guarded", "n": 1,
            "objectives": [{"pieces": ["log(x0)"], "convex": False}],
            "inequalities": [], "equalities": [],
        })
        ppath = tmp_path / "guarded.json"
        save_problem(pr, ppath)
        assert run(["oracle", str(ppath), "--point", "0", "--box=0..1"]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestDeterminism:
    def test_reports_and_csv_are_byte_identical(self, tmp_path):
        pairs = []
        for tag in ("a", "b"):
            rpath = tmp_path / f"rep-{tag}.json"
            cpath = tmp_path / f"seq-{tag}.csv"
            code = run(["certify-akkt", P3, "--point", "0.5,0.5",
                        "--schedule", "geometric:1..1e6", "--seed", "7",
                        "--report", str(rpath), "--csv", str(cpath)])
            assert code == 0
            pairs.append((rpath.read_bytes(), cpath.read_bytes()))
        assert pairs[0] == pairs[1]
