import os
import re
import subprocess
import sys

import numpy as np
import pytest

from momentsdp.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
BAD_SOLVER_OPTIONS = [("--max-iter", "0"), ("--tol", "-1"), ("--tol", "inf"), ("--tol", "nan")]


def fx(name: str) -> str:
    return os.path.join(FIXTURES, name)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_with_closed_stdout(*argv) -> subprocess.CompletedProcess:
    """The CLI in a child process whose standard output is a pipe with its read end closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    try:
        return subprocess.run(
            [sys.executable, "-m", "momentsdp.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)


def one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


def usage_error(capsys, *argv) -> str:
    """Standard error of a command that argparse refuses, after checking its exit code 1."""
    with pytest.raises(SystemExit) as ei:
        main(list(argv))
    captured = capsys.readouterr()
    assert ei.value.code == 1
    assert captured.out == ""
    return captured.err


def report_values(out: str) -> dict:
    vals = {}
    for line in out.splitlines():
        m = re.match(r"^([A-Za-z_ ]+) = (.*)$", line)
        if m:
            vals[m.group(1).strip()] = m.group(2).strip()
    return vals


class TestSolve:
    def test_sqrt2_sdp(self, capsys):
        code, out, _ = run(capsys, "solve", fx("sqrt2.sdp"), "--tol", "1e-12")
        assert code == 0
        vals = report_values(out)
        assert vals["status"] == "optimal"
        assert float(vals["objective"]) == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_planar_benchmark_with_extraction(self, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            fx("planar_nonconvex.pop"),
            "--order",
            "2",
            "--tol",
            "1e-9",
            "--extract",
        )
        assert code == 0
        vals = report_values(out)
        assert float(vals["bound"]) == pytest.approx(-(1 + np.sqrt(5.0)) / 2, abs=1e-5)
        assert "flat = true" in out
        m = re.search(r"atom 1: weight = ([\d.eE+-]+) point = ([\d.eE+-]+) ([\d.eE+-]+)", out)
        assert m
        assert float(m.group(2)) == pytest.approx((1 - np.sqrt(5.0)) / 2, abs=1e-4)
        assert float(m.group(3)) == pytest.approx((1 + np.sqrt(5.0)) / 2, abs=1e-4)

    def test_default_order_is_minimal(self, capsys):
        code, out, _ = run(capsys, "solve", fx("planar_nonconvex.pop"))
        assert code == 0
        assert report_values(out)["order"] == "1"

    def test_empty_objective_pop(self, tmp_path, capsys):
        path = tmp_path / "zero.pop"
        path.write_text(
            "kind: pop\nvariables: x1\nball: 4\n\n[objective]\nmin 0\n\n[constraints]\n"
        )
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert float(report_values(out)["bound"]) == pytest.approx(0.0, abs=1e-7)

    def test_pencil_solve_lists_defining_polynomials(self, capsys):
        code, out, _ = run(capsys, "solve", fx("pillow.pencil"))
        assert code == 0
        assert "f3 = " in out and "2*x1*x2*x3" in out

    def test_gmp_solve(self, capsys):
        code, out, _ = run(capsys, "solve", fx("bolza.gmp"), "--order", "2")
        assert code == 0
        vals = report_values(out)
        assert -1e-6 <= float(vals["bound"]) <= 1e-3
        assert "minimal_time_status" not in vals  # fixed horizon: no second solve

    def test_failed_minimal_time_solve_is_reported(self, capsys):
        # a budget of 60 iterations: the regulator's first solve needs about
        # 25, its minimal-time solve more than 100, so the second runs out;
        # the report says so after terminal_time, and the exit code follows
        # the first solve, whose bound is the one reported
        code, out, _ = run(
            capsys, "solve", fx("lqr_scalar.gmp"), "--order", "3", "--max-iter", "60"
        )
        assert code == 0
        vals = report_values(out)
        assert vals["status"] == "optimal"
        assert vals["minimal_time_status"] == "max_iter"
        assert vals["minimal_time_iterations"] == "60"
        keys = list(vals)
        at = keys.index("terminal_time")
        assert keys[at + 1 : at + 3] == ["minimal_time_status", "minimal_time_iterations"]

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "solve", fx("nonexistent.pop"))
        assert code == 1
        assert "error" in err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.pop"
        path.write_text("kind: pop\nvariables: x1\n\n[objective]\nmin ++*\n")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1
        assert "line" in err

    def test_order_below_minimum_exits_one(self, capsys):
        code, out, err = run(capsys, "solve", fx("eigassign3.pop"), "--order", "1")
        assert code == 1
        assert "2" in err  # names the minimal order

    def test_out_file_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        for out in (out1, out2):
            code, _, _ = run(
                capsys, "solve", fx("planar_nonconvex.pop"), "--order", "2",
                "--extract", "--out", str(out),
            )
            assert code == 0
        assert out1.read_text() == out2.read_text()
        assert "runtime" not in out1.read_text()

    def test_twelve_significant_digits(self, capsys):
        code, out, _ = run(capsys, "solve", fx("sqrt2.sdp"), "--tol", "1e-12")
        vals = report_values(out)
        assert re.fullmatch(r"1\.\d{11}", vals["objective"])

    def test_nonconverged_exit_two(self, capsys):
        code, out, _ = run(capsys, "solve", fx("sqrt2.sdp"), "--max-iter", "2")
        assert code == 2
        assert report_values(out)["status"] == "max_iter"

    @pytest.mark.parametrize("name, text", [
        # feasible, with the bound unbounded below
        ("unbounded.pop", "kind: pop\nvariables: x\n\n[objective]\nmin x\n\n[constraints]\n"),
        # no measure has mean 2 and second moment 1: its variance would be 1 - 4
        ("infeasible.gmp", "kind: gmp\n\n[measures]\nmu: x\n\n[objective]\nmin <x, mu>\n\n"
                           "[constraints]\nmass(mu) == 1\n<x, mu> == 2\n<x^2, mu> == 1\n"),
    ], ids=["unbounded.pop", "infeasible.gmp"])
    def test_divergent_relaxation_is_not_converged(self, tmp_path, capsys, name, text):
        # without a certificate, neither `infeasible` nor `unbounded` is reported
        path = tmp_path / name
        path.write_text(text)
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 2
        assert report_values(out)["status"] in ("max_iter", "numerical_failure")

    def test_report_names_the_eliminated_variables(self, capsys):
        code, out, _ = run(capsys, "solve", fx("eigassign2.pop"))
        assert code == 0
        assert report_values(out)["eliminated"] == "x2 = 2/5 - 3/4*x1"
        assert out.index("compactness_certified = ") < out.index("eliminated = ") < out.index("[moments]")
        table = out.split("[moments]\n")[1].splitlines()[:-1]  # the moments of x1 and x2
        assert [row.split("  ")[0] for row in table] == ["0 0", "1 0", "0 1", "2 0", "1 1", "0 2"]
        code, out, _ = run(capsys, "solve", fx("unit_disk.pop"))
        assert "eliminated" not in report_values(out)

    def test_inconsistent_equalities_are_refused(self, tmp_path, capsys):
        # x = 0 and x = 1: x = 0 stays an equality (the one variable is kept), and
        # x - 1 reduces to -1 under it before anything is assembled
        path = tmp_path / "inconsistent.pop"
        path.write_text("kind: pop\nvariables: x\n\n[objective]\nmin x\n\n"
                        "[constraints]\nx == 0\nx - 1 == 0\n")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1
        assert out == ""
        assert err == ("error: equality 2, -1 + x = 0, reduces to -1 = 0 under the linear "
                       "equalities: the feasible set is empty\n")

    @pytest.mark.parametrize("name", ["unit_disk.pop", "bolza.gmp", "sqrt2.sdp", "pillow.pencil"])
    @pytest.mark.parametrize("option", BAD_SOLVER_OPTIONS)
    def test_bad_solver_options_are_input_errors(self, capsys, name, option):
        code, out, err = run(capsys, "solve", fx(name), *option)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_gmp_without_objective_or_dynamics(self, tmp_path, capsys):
        path = tmp_path / "noobj.gmp"
        path.write_text(
            "kind: gmp\n\n[measures]\nmu: x1\n\n[support mu]\n1 - x1^2 >= 0\n\n"
            "[constraints]\nmass(mu) == 1\n"
        )
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: a gmp file without dynamics needs an [objective]\n"

    def test_gmp_certificate_uses_the_measures_r_x(self, tmp_path, capsys):
        # one measure on 1 - x^4 >= 0 (r_x = 2) as a gmp file and as a pop file:
        # at order 2 the ranks 1 2 2 are not flat for r_x = 2, though they are for r_x = 1
        files = {
            "quartic.gmp": "kind: gmp\n\n[measures]\nmu: x\n\n[support mu]\n1 - x^4 >= 0\n\n"
                           "[constraints]\nmass(mu) == 1\n\n[objective]\nmin <-x^2, mu>\n",
            "quartic.pop": "kind: pop\nvariables: x\n\n[objective]\nmin -x^2\n\n"
                           "[constraints]\n1 - x^4 >= 0\n",
        }
        certificates = []
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            code, out, _ = run(capsys, "solve", str(path), "--order", "2", "--extract")
            assert code == 0
            certificates.append(report_values(out.split("[certificate")[1]))
        for vals in certificates:
            assert (vals["ranks"], vals["flat"]) == ("1 2 2", "false")
            assert "atom 1" not in vals

        # min x on x^2 - 1 = 0 at order 1: the gmp certificate checks the measure's support too
        files = {
            "circle.gmp": "kind: gmp\n[measures]\nmu: x\n[support mu]\nx^2 - 1 == 0\n"
                          "[constraints]\nmass(mu) == 1\n[objective]\nmin <x, mu>\n",
            "circle.pop": "kind: pop\nvariables: x\n[objective]\nmin x\n[constraints]\nx^2 - 1 == 0\n",
        }
        certificates = []
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            code, out, _ = run(capsys, "solve", str(path), "--order", "1", "--extract")
            assert code == 0
            certificates.append(out.split("[certificate")[1].split("\n", 1)[1].split("runtime")[0])
        gmp, pop = certificates
        assert gmp == pop and "atom 1: " in pop
        assert float(report_values(pop)["residual"]) > 0

    def test_gmp_certificate_reads_a_cell_support_in_scaled_time(self, tmp_path, capsys):
        # xdot = 0 at x = 1 over the fixed horizon 4: minimizing the integral of t^2
        # concentrates the relaxation's occupation moments on one atom (t, x) = (2, 1)
        # in original time, which the support's time box t(1 - t) >= 0, written in
        # time scaled to [0, 1], holds at t / 4 = 1/2 and would miss by 2 at t = 2
        path = tmp_path / "fixed4.gmp"
        path.write_text(
            "kind: gmp\n[support occ]\nx1 - 1 == 0\n[dynamics]\nhorizon: fixed 4\nstate: x1\n"
            "initial: point 1\nterminal: point 1\nlagrangian: t^2\ncell: occ\nf1: 0\n"
        )
        code, out, _ = run(capsys, "solve", str(path), "--extract", "--tol", "1e-5")
        assert code == 0
        certificate = out.split("[certificate occ]")[1]
        assert report_values(certificate)["flat"] == "true"
        point = re.search(r"atom 1: .* point = (.*)", certificate).group(1).split()
        assert [round(float(v), 6) for v in point] == [2, 1]
        assert float(report_values(certificate)["residual"]) < 1e-9


class TestInputErrors:
    """Each input below once ended in a traceback or in argparse's exit code 2."""

    @pytest.mark.parametrize("name, text", [
        ("free.sdp", "kind: sdp\n[blocks]\nzero 2\n[b]\n1\n[A 1]\n1 1 1 1\n"),
        ("unconstrained.sdp", "kind: sdp\n[blocks]\npsd 2\n[C]\n1 1 1 1\n"),
        ("side9.pencil", "kind: pencil\nvariables: x\nside: 9\n[F0]\n1 1 1\n[F 1]\n1 1 1\n"),
        # two free entries with equal constraint columns, refused when the solve starts
        ("dependent.sdp", "kind: sdp\n[blocks]\npsd 1\nzero 2\n[b]\n1\n[C]\n1 1 1 1\n"
                          "[A 1]\n1 1 1 1\n2 1 1 1\n2 2 2 1\n"),
    ], ids=["free.sdp", "unconstrained.sdp", "side9.pencil", "dependent.sdp"])
    def test_one_error_line_and_no_report(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1
        assert out == ""
        assert one_error_line(err), err

    def test_unwritable_out_after_the_report(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run(capsys, "solve", fx("sqrt2.sdp"), "--out", str(target))
        assert code == 1
        assert report_values(out)["status"] == "optimal"  # the report reached stdout
        assert one_error_line(err) and "report.txt" in err, err

    @pytest.mark.parametrize("argv", [
        ["solve", "fixtures.pop", "--order", "x"],
        ["solve"],
        ["shadow", "fixtures.pop", "--no-such-flag"],
        ["liouville"],
        [],
    ], ids=["bad-int", "missing-file", "unknown-flag", "liouville-missing-file", "no-command"])
    def test_usage_errors_exit_one(self, capsys, argv):
        err = usage_error(capsys, *argv)
        lines = err.splitlines()
        assert lines[0].startswith("usage: momentsdp")
        assert [l for l in lines if "error:" in l] == lines[-1:]

    def test_negative_seed_refused_before_solving(self, tmp_path, capsys):
        # two atoms, +1 and -1, so extraction draws a random combination
        path = tmp_path / "two_atoms.pop"
        path.write_text(
            "kind: pop\nvariables: x\n\n[objective]\nmin -x^2\n\n[constraints]\n1 - x^2 >= 0\n"
        )
        code, out, _ = run(capsys, "solve", str(path), "--order", "2", "--extract")
        assert code == 0 and "atom 2:" in out
        err = usage_error(capsys, "solve", str(path), "--order", "2", "--extract", "--seed", "-1")
        assert "argument --seed: expected a nonnegative integer, got '-1'" in err

    def test_closed_stdout_ends_quietly(self):
        proc = run_with_closed_stdout("solve", fx("sqrt2.sdp"))
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_closed_stdout_still_writes_out(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        proc = run_with_closed_stdout("solve", fx("sqrt2.sdp"), "--out", str(target))
        assert (proc.returncode, proc.stderr) == (141, b"")
        expected = tmp_path / "expected.txt"
        assert run(capsys, "solve", fx("sqrt2.sdp"), "--out", str(expected))[0] == 0
        assert target.read_bytes() == expected.read_bytes()


class TestShadow:
    def test_unit_disk_four_directions(self, capsys):
        code, out, _ = run(
            capsys, "shadow", fx("unit_disk.pop"), "--order", "1", "--directions", "4"
        )
        assert code == 0
        rows = [l.split() for l in out.strip().splitlines() if not l.startswith("#")]
        assert len(rows) == 4
        pts = sorted((round(float(r[2]), 6), round(float(r[3]), 6)) for r in rows)
        assert pts == [(-1.0, -0.0), (-0.0, -1.0), (0.0, 1.0), (1.0, 0.0)] or all(
            abs(abs(p[0]) + abs(p[1]) - 1.0) < 1e-5 for p in pts
        )

    def test_planar_benchmark_max_support_value(self, capsys):
        code, out, _ = run(
            capsys, "shadow", fx("planar_nonconvex.pop"), "--order", "1",
            "--directions", "64",
        )
        assert code == 0
        values = {}
        for line in out.strip().splitlines():
            if line.startswith("#"):
                continue
            *numbers, status = line.split()
            cx, cy, sx, sy, val = map(float, numbers)
            assert status == "optimal"
            values[(round(cx, 9), round(cy, 9))] = (sy, val)
        sy, val = values[(0.0, 1.0)]
        assert val == pytest.approx(2.0, abs=1e-5)
        best_sy = max(v[0] for v in values.values())
        assert best_sy == pytest.approx(2.0, abs=1e-4)

    def test_order_below_minimum(self, capsys):
        code, out, err = run(capsys, "shadow", fx("eigassign3.pop"), "--order", "1")
        assert code == 1
        assert "2" in err

    def test_wrong_kind(self, capsys):
        code, out, err = run(capsys, "shadow", fx("sqrt2.sdp"))
        assert code == 1

    @pytest.mark.parametrize("proj, message", [
        ("1,3", "error: projection index out of range: the problem has 2 variables\n"),
        ("0,1", "error: projection index out of range: the problem has 2 variables\n"),
        ("1,1", "error: projection must name two distinct variables\n"),
    ], ids=["1,3", "0,1", "1,1"])
    def test_projection_error_names_its_fault(self, capsys, proj, message):
        code, out, err = run(capsys, "shadow", fx("planar_nonconvex.pop"), "--proj", proj)
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("option", BAD_SOLVER_OPTIONS)
    def test_bad_solver_options_are_input_errors(self, capsys, option):
        code, out, err = run(capsys, "shadow", fx("unit_disk.pop"), "--order", "1", *option)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


class TestLiouville:
    def test_decay_rows(self, capsys):
        code, out, _ = run(capsys, "liouville", fx("decay_energy.gmp"), "--order", "2")
        assert code == 0
        vals = report_values(out)
        assert vals["rows"] == "5"
        assert "v = x1: <-x1, occ> + <-x1, term> + <x1, init> == 0" in out
        for alpha in (2, 3, 4):
            assert f"<-{alpha}*x1^{alpha}, occ>" in out

    def test_lqr_rows(self, capsys):
        code, out, _ = run(capsys, "liouville", fx("lqr_scalar.gmp"), "--order", "1")
        assert code == 0
        assert "v = x1: <u1, occ> == -1" in out
        assert "v = x1^2: <2*x1*u1, occ> == -1" in out

    def test_requires_dynamics(self, capsys):
        code, out, err = run(capsys, "liouville", fx("planar_nonconvex.pop"))
        assert code == 1
        assert "dynamics" in err

    def test_default_order_from_dynamics_degree(self, tmp_path, capsys):
        # the transport rows need 2r >= deg f = 48
        path = tmp_path / "steep.gmp"
        path.write_text(
            "kind: gmp\n\n[dynamics]\nhorizon: free\nstate: x1\ninitial: point 1\n"
            "terminal: point 0\nlagrangian: 1\ncell: occ\nf1: -x1^48\n"
        )
        code, out, _ = run(capsys, "liouville", str(path))
        assert code == 0
        assert report_values(out)["order"] == "24"
        assert "v = x1: <-x1^48, occ> == -1" in out


FIXTURE_SOLVES = [
    ("bolza.gmp", []),
    ("decay_energy.gmp", []),
    ("eigassign2.pop", []),
    ("eigassign3.pop", []),
    ("eigassign4.pop", ["--order", "3", "--tol", "2e-5"]),
    ("lqr_scalar.gmp", []),
    ("pillow.pencil", []),
    ("planar_nonconvex.pop", []),
    ("power_chain.pencil", []),
    ("saturation3.gmp", []),
    ("sqrt2.sdp", []),
    ("sqrt2_point.sdp", []),
    ("unit_disk.pop", []),
]


class TestEveryFixture:
    @pytest.mark.parametrize("name,extra", FIXTURE_SOLVES, ids=[n for n, _ in FIXTURE_SOLVES])
    def test_parses_and_solves(self, capsys, name, extra):
        code, out, _ = run(capsys, "solve", fx(name), *extra)
        assert code == 0, out
