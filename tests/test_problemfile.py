import glob
import os
from fractions import Fraction

import pytest

from momentsdp.casestudies import (
    build_bolza,
    build_eig_assign,
    build_lqr,
    build_occtraj,
    build_polyopt,
    build_saturation_cells,
)
from momentsdp.cli import main
from momentsdp.problemfile import (
    ProblemFileError,
    load_problem,
    parse_problem_text,
    problem_to_text,
)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

_DYNAMICS = (
    "kind: gmp\n[dynamics]\nhorizon: {}\nstate: x\ninitial: point 0\nterminal: point 1\n"
    "cell: a\nf1: {}\n"
)
_PENCIL = "kind: pencil\nvariables: x\nside: {}\n[F0]\n1 1 1\n[F {}]\n1 1 1\n"
_SDP = "kind: sdp\n[blocks]\npsd 2\n[b]\n{}\n[C]\n1 1 1 {}\n[A 1]\n1 1 1 1\n"

# (id, text, line of the bad value, or of the section header whose constructor rejects it)
MALFORMED = [
    ("pop-ball-word", "kind: pop\nvariables: x\nball: big\n[objective]\nmin x\n", 3),
    ("pop-ball-negative", "kind: pop\nvariables: x\nball: -1\n[objective]\nmin x\n", 3),
    ("pop-repeated-variable", "kind: pop\nvariables: x x\n[objective]\nmin x\n", 2),
    ("gmp-horizon-word", _DYNAMICS.format("fixed soon", "1"), 3),
    ("gmp-horizon-negative", _DYNAMICS.format("fixed -1", "1"), 2),
    ("gmp-repeated-variable", "kind: gmp\n[measures]\nmu: x x\n[objective]\nmin <x, mu>\n", 3),
    ("gmp-repeated-measure", "kind: gmp\n[measures]\nmu: x\nmu: y\n[objective]\nmin <y, mu>\n", 4),
    ("gmp-free-horizon-uses-time", _DYNAMICS.format("free", "t"), 2),
    ("gmp-unknown-section", "kind: gmp\n[measures]\nmu: x\n[constraint]\nmass(mu) == 1\n", 4),
    ("pencil-side-word", _PENCIL.format("two", "1"), 3),
    ("pencil-index-word", _PENCIL.format("2", "one"), 6),
    ("pencil-repeated-variable", "kind: pencil\nvariables: x x\nside: 1\n[F0]\n1 1 1\n", 2),
    ("sdp-infinite-entry", _SDP.format("1", "inf"), 7),
    ("sdp-overflowing-b", _SDP.format("1e400", "1"), 5),
    ("sdp-empty-header", "kind: sdp\n[]\n", 2),
    ("sdp-only-zero-blocks", "kind: sdp\n# free\n[blocks]\nzero 2\n[b]\n1\n[A 1]\n1 1 1 1\n", 3),
    ("sdp-no-constraints", "kind: sdp\n[blocks]\npsd 2\n[C]\n1 1 1 1\n", 2),
    ("gmp-occupation-key", _DYNAMICS.format("free", "1").replace("cell: a", "occupation: a"), 7),
    ("pop-two-objectives", "kind: pop\nvariables: x\n[objective]\nmin x\n[objective]\nmin -x\n", 5),
    ("pop-two-objective-lines", "kind: pop\nvariables: x\n[objective]\nmin x\nmin -x^2\n", 5),
    ("gmp-two-objective-lines", "kind: gmp\n[measures]\nmu: x\n[objective]\nmin <x, mu>\nmax <x, mu>\n", 6),
    ("gmp-two-dynamics", _DYNAMICS.format("free", "1") + "[dynamics]\nhorizon: free\n", 9),
    ("gmp-two-supports", "kind: gmp\n[measures]\nmu: x\n[support mu]\nx >= 0\n[support  mu]\n1 - x >= 0\n"
     "[objective]\nmin <x, mu>\n", 6),
    ("gmp-two-horizons", _DYNAMICS.format("free", "1") + "horizon: fixed 2\n", 9),
    ("gmp-two-states", _DYNAMICS.format("free", "1") + "state: y\n", 9),
    ("gmp-two-lagrangians", _DYNAMICS.format("free", "1") + "lagrangian: x\nlagrangian: x^2\n", 10),
    ("gmp-two-f1", _DYNAMICS.format("free", "1") + "f1: 2\n", 9),
    ("gmp-f0", _DYNAMICS.format("free", "1") + "f0: 1\n", 9),
    ("gmp-f2-of-one-state", _DYNAMICS.format("free", "1") + "f2: 1\n", 9),
    ("gmp-two-balls", "kind: gmp\n[measures]\nmu: x\n[support mu]\nball: 4\nball: 1\n"
     "[objective]\nmin <x, mu>\n", 6),
    ("sdp-two-blocks", "kind: sdp\n[blocks]\npsd 2\n[b]\n1\n[A 1]\n1 1 1 1\n[blocks]\nnonneg 1\n", 8),
    ("sdp-two-b", _SDP.format("1", "1") + "[b]\n2\n", 10),
    ("sdp-two-C", _SDP.format("1", "1") + "[C]\n1 2 2 1\n", 10),
    ("sdp-two-A", _SDP.format("1", "1") + "[A 1]\n1 2 2 1\n", 10),
    ("sdp-A-1-and-A-01", _SDP.format("1", "1") + "[A 01]\n1 2 2 1\n", 10),
    ("pencil-two-F0", _PENCIL.format("2", "1") + "[F0]\n2 2 1\n", 8),
    ("pencil-two-F", _PENCIL.format("2", "1") + "[F 1]\n2 2 1\n", 8),
    ("pencil-side-too-large", _PENCIL.format("9", "1"), 3),
]


def fixture_paths():
    return sorted(glob.glob(os.path.join(FIXTURES, "*")))


class TestFixtures:
    def test_all_fixtures_parse(self):
        kinds = {}
        for path in fixture_paths():
            parsed = load_problem(path)
            kinds[os.path.basename(path)] = parsed.kind
        assert kinds["planar_nonconvex.pop"] == "pop"
        assert kinds["sqrt2.sdp"] == "sdp"
        assert kinds["pillow.pencil"] == "pencil"
        assert kinds["bolza.gmp"] == "gmp"
        assert len(kinds) >= 13

    @pytest.mark.parametrize("path", fixture_paths(), ids=os.path.basename)
    def test_parse_print_parse_is_identity(self, path):
        p1 = load_problem(path)
        text = problem_to_text(p1)
        p2 = parse_problem_text(text)
        assert p1.kind == p2.kind
        if p1.kind == "pop":
            assert p1.pop == p2.pop
        elif p1.kind == "pencil":
            assert p1.pencil == p2.pencil
        elif p1.kind == "gmp":
            assert p1.gmp.measures == p2.gmp.measures
            assert p1.gmp.constraints == p2.gmp.constraints
            assert p1.gmp.objective == p2.gmp.objective
            assert p1.gmp.sense == p2.gmp.sense
            d1, d2 = p1.gmp.dynamics, p2.gmp.dynamics
            assert (d1 is None) == (d2 is None)
            if d1 is not None:
                assert d1 == d2
                assert d1.cells == d2.cells
                assert d1.initial == d2.initial and d1.terminal == d2.terminal
        else:
            import numpy as np

            assert [(b.kind, b.size) for b in p1.sdp.blocks] == [
                (b.kind, b.size) for b in p2.sdp.blocks
            ]
            assert np.array_equal(p1.sdp.b, p2.sdp.b)
            for bi in range(len(p1.sdp.blocks)):
                for part in ("rows", "cols", "vals"):
                    assert np.array_equal(getattr(p1.sdp.A[bi], part), getattr(p2.sdp.A[bi], part))
                assert np.array_equal(p1.sdp.C[bi], p2.sdp.C[bi])

    def test_gmp_fixtures_match_builders(self):
        cases = [
            ("decay_energy.gmp", build_occtraj),
            ("lqr_scalar.gmp", build_lqr),
            ("bolza.gmp", build_bolza),
            ("saturation3.gmp", build_saturation_cells),
        ]
        for fname, builder in cases:
            parsed = load_problem(os.path.join(FIXTURES, fname))
            g, dp = parsed.gmp.instantiate(2)
            assert g == builder(2).gmp, fname

    def test_pop_fixtures_match_builders(self):
        parsed = load_problem(os.path.join(FIXTURES, "planar_nonconvex.pop"))
        assert parsed.pop == build_polyopt()
        for n in (2, 3, 4):
            parsed = load_problem(os.path.join(FIXTURES, f"eigassign{n}.pop"))
            assert parsed.pop == build_eig_assign(n)


class TestParseErrors:
    def test_missing_kind(self):
        with pytest.raises(ProblemFileError) as ei:
            parse_problem_text("variables: x1\n")
        assert "kind" in str(ei.value)

    def test_unknown_kind(self):
        with pytest.raises(ProblemFileError):
            parse_problem_text("kind: lp\n")

    def test_error_reports_line(self):
        text = "kind: pop\nvariables: x1\n\n[objective]\nmin x1\n\n[constraints]\nx1 >= oops\n"
        with pytest.raises(ProblemFileError) as ei:
            parse_problem_text(text)
        assert ei.value.line == 8
        assert "column" in str(ei.value)

    def test_polynomial_error_carries_column(self):
        text = "kind: pop\nvariables: x1\n\n[objective]\nmin x1 + + *\n"
        with pytest.raises(ProblemFileError) as ei:
            parse_problem_text(text)
        assert ei.value.line == 5 and ei.value.column is not None

    def test_polynomial_error_names_the_file_lines_column_once(self):
        objective = "kind: pop\nvariables: x1\n[objective]\nmin x1 + + *\n"
        constraint = "kind: pop\nvariables: x1\n[objective]\nmin x1\n[constraints]\nx1 >= 1 + + *\n"
        indented = "kind: gmp\n[measures]\nmu: x\n[objective]\n  max <x, mu> + <x + + *, mu>\n"
        for text, line, column in ((objective, 4, 12), (constraint, 6, 13), (indented, 5, 24)):
            with pytest.raises(ProblemFileError) as ei:
                parse_problem_text(text)
            assert (ei.value.line, ei.value.column) == (line, column)
            assert str(ei.value) == f"unexpected token '*' (line {line}, column {column})"

    def test_pop_requires_objective(self):
        with pytest.raises(ProblemFileError):
            parse_problem_text("kind: pop\nvariables: x1\n\n[constraints]\nx1 >= 0\n")

    def test_unknown_measure_in_constraint(self):
        text = (
            "kind: gmp\n\n[measures]\nmu: x1\n\n[constraints]\nmass(nu) == 1\n"
            "\n[objective]\nmin <x1, mu>\n"
        )
        with pytest.raises(ProblemFileError) as ei:
            parse_problem_text(text)
        assert "nu" in str(ei.value)

    def test_measures_and_dynamics_exclusive(self):
        text = (
            "kind: gmp\n\n[measures]\nmu: x1\n\n[dynamics]\nhorizon: free\nstate: x1\n"
            "initial: point 0\nterminal: point 1\ncell: mu\nf1: 1\n"
        )
        with pytest.raises(ProblemFileError):
            parse_problem_text(text)

    def test_dynamics_needs_all_fields(self):
        text = "kind: gmp\n\n[dynamics]\nhorizon: free\nstate: x1\n"
        with pytest.raises(ProblemFileError):
            parse_problem_text(text)

    def test_missing_cell_dynamics(self):
        text = (
            "kind: gmp\n\n[dynamics]\nhorizon: free\nstate: x1 x2\n"
            "initial: point 0 0\nterminal: point 1 1\ncell: occ\nf1: x2\n"
        )
        with pytest.raises(ProblemFileError) as ei:
            parse_problem_text(text)
        assert "f2" in str(ei.value)

    def test_cell_is_the_only_cell_key(self):
        with pytest.raises(ProblemFileError, match="unknown dynamics key 'occupation'"):
            parse_problem_text(_DYNAMICS.format("free", "1").replace("cell: a", "occupation: a"))

    def test_support_for_unknown_measure(self):
        text = (
            "kind: gmp\n\n[measures]\nmu: x1\n\n[support nu]\nx1 >= 0\n"
            "\n[objective]\nmin <x1, mu>\n"
        )
        with pytest.raises(ProblemFileError):
            parse_problem_text(text)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "text, line", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED]
    )
    def test_reported_at_its_line(self, text, line):
        with pytest.raises(ProblemFileError) as ei:
            parse_problem_text(text)
        assert ei.value.line == line

    def test_a_later_entry_for_a_cell_overwrites_within_a_section(self):
        prog = parse_problem_text(_SDP.format("1", "1") + "1 1 1 3\n").sdp
        assert prog.A[0].vals.tolist() == [3.0]
        pencil = parse_problem_text(_PENCIL.format("2", "1") + "1 1 5\n").pencil
        assert pencil.coefficients[1][0][0] == 5

    def test_gmp_rejects_unknown_section(self):
        text = (
            "kind: gmp\n\n[measures]\nmu: x1\n\n[constraint]\nmass(mu) == 1\n"
            "\n[objective]\nmin <x1, mu>\n"
        )
        with pytest.raises(ProblemFileError) as ei:
            parse_problem_text(text)
        assert ei.value.line == 6 and "[constraint]" in str(ei.value)

    def test_unknown_header_rejected(self):
        with pytest.raises(ProblemFileError) as ei:
            parse_problem_text("kind: sdp\nblocks: psd 2\n[blocks]\npsd 2\n")
        assert ei.value.line == 2

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.pop"
        path.write_bytes(b"kind: pop\nvariables: x\xff\n")
        with pytest.raises(ProblemFileError) as ei:
            load_problem(str(path))
        assert ei.value.line == 2

    def test_cli_prints_one_error_line(self, tmp_path, capsys):
        for name, text, line in MALFORMED:
            path = tmp_path / name
            path.write_text(text)
            assert main(["solve", str(path), "--extract"]) == 1, name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
            assert f"(line {line})" in err and "Traceback" not in err, (name, err)


class TestGMPSemantics:
    def test_plain_gmp_instantiates_without_order_sensitivity(self):
        text = (
            "kind: gmp\n\n[measures]\nmu: x1\n\n[support mu]\n1 - x1^2 >= 0\n"
            "\n[constraints]\nmass(mu) == 1\n\n[objective]\nmin <x1, mu>\n"
        )
        data = parse_problem_text(text).gmp
        g1, dp1 = data.instantiate(1)
        g2, dp2 = data.instantiate(3)
        assert dp1 is None and dp2 is None
        assert g1 == g2

    def test_moment_sum_with_coefficients_folds_into_polynomials(self):
        text = (
            "kind: gmp\n\n[measures]\nmu: x1\nnu: x1\n\n[constraints]\n"
            "<2*x1, mu> - <x1^2, nu> == 1/3\n\n[objective]\nmax <x1, mu> + <x1, nu>\n"
        )
        data = parse_problem_text(text).gmp
        con = data.constraints[0]
        assert con.rhs == Fraction(1, 3)
        assert con.terms[0][1].coeff((1,)) == 2
        assert con.terms[1][1].coeff((2,)) == -1
        assert data.sense == "max"

    def test_gmp_without_objective_or_dynamics_fails_at_instantiation(self):
        text = "kind: gmp\n\n[measures]\nmu: x1\n\n[constraints]\nmass(mu) == 1\n"
        data = parse_problem_text(text).gmp
        with pytest.raises(ValueError):
            data.instantiate(1)


class TestDynamicsSerialization:
    def test_builders_serialize_and_reload(self):
        from momentsdp.problemfile import dynamics_to_file_data, gmp_to_text

        for builder in (build_occtraj, build_lqr, build_bolza, build_saturation_cells):
            dp = builder(2)
            data = dynamics_to_file_data(dp)
            text = gmp_to_text(data)
            back = parse_problem_text(text)
            g, dp2 = back.gmp.instantiate(2)
            assert g == dp.gmp, builder.__name__
