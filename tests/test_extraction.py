import numpy as np
import pytest
import scipy.linalg

from momentsdp import extraction
from momentsdp.casestudies import build_polyopt
from momentsdp.extraction import (
    ExtractionError,
    _extract_general,
    _pivoted_cholesky,
    certify,
    extract_atoms,
    moment_matrix,
    numerical_rank,
)
from momentsdp.moments import MomentVector
from momentsdp.relaxation import bound_and_moments
from momentsdp.sdp import SolveOptions

HI = SolveOptions(gap_tol=1e-8, feas_tol=1e-8)


def lebesgue_moments_01(degree):
    """Moments of the uniform measure on [0, 1]: y_a = 1/(a+1)."""
    return MomentVector(1, degree, np.array([1.0 / (a + 1) for a in range(degree + 1)]))


def reference_pivoted_cholesky(M: np.ndarray, rank: int) -> tuple[np.ndarray, list[int]]:
    """Rank-limited outer-product Cholesky with diagonal pivoting, ties to the lowest index:
    (R, pivots) with M ~= R R'."""
    n = M.shape[0]
    R = np.zeros((n, rank))
    d = np.diag(M).astype(float).copy()
    pivots: list[int] = []
    work = M.astype(float).copy()
    for t in range(rank):
        p = int(np.argmax(d))  # argmax returns the first (lowest) maximizer
        if d[p] <= 0:
            break
        pivots.append(p)
        alpha = np.sqrt(d[p])
        col = work[:, p] / alpha
        R[:, t] = col
        work = work - np.outer(col, col)
        d = np.maximum(np.diag(work).copy(), 0.0)
    return R[:, : len(pivots)], pivots


class TestPivotedCholesky:
    @staticmethod
    def cases():
        """(M, rank) on random PSD matrices, full rank or not, limited to at most their rank, and
        on matrices whose diagonal ties exactly at each pivot taken: ties that the updates keep
        exact, since the tied entries' updates are exact zeros."""
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            k = int(rng.integers(1, n + 1))
            G = rng.normal(size=(n, k))
            yield G @ G.T, int(rng.integers(1, k + 1))
        B = rng.normal(size=(4, 4))
        A = B @ B.T
        yield np.eye(6), 6
        yield np.ones((5, 5)), 1
        yield np.kron(np.eye(3), A), 3
        yield np.kron(np.ones((2, 2)), A), 1
        # two variables swapped by symmetry: x1 and x2, x1^2 and x2^2 tie on the diagonal
        pts = [(0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.0, 0.0)]
        M = moment_matrix(MomentVector.from_atoms(pts, [1.0] * 5, 4), 2)
        yield M, 5

    def test_matches_the_outer_product_loop(self):
        for M, rank in self.cases():
            R, pivots = _pivoted_cholesky(M, rank)
            R0, pivots0 = reference_pivoted_cholesky(M, rank)
            assert pivots == pivots0 and R.shape == R0.shape == (len(M), rank)
            scale = np.abs(M).max()
            assert np.abs(R @ R.T - R0 @ R0.T).max() <= 1e-12 * scale
            assert np.abs(R - R0).max() <= 1e-10 * np.sqrt(scale)

    def test_stops_at_the_rank_lapack_finds(self):
        G = np.random.default_rng(37).normal(size=(8, 3))
        R, pivots = _pivoted_cholesky(G @ G.T, 8)
        assert R.shape == (8, 3) and len(pivots) == 3
        assert np.abs(R @ R.T - G @ G.T).max() <= 1e-12 * np.abs(G @ G.T).max()


def dpstrf_pivoted_cholesky(M: np.ndarray, rank: int) -> tuple[np.ndarray, list[int]]:
    """`_pivoted_cholesky` by LAPACK's dpstrf: (R, pivots) over its first min(rank, dpstrf's rank)
    pivots, R in M's row order."""
    L, piv, found, _ = scipy.linalg.lapack.dpstrf(M, lower=1)
    k = min(rank, found)
    R = np.empty((M.shape[0], k))
    R[piv - 1] = np.tril(L[:, :k])
    return R, (piv[:k] - 1).tolist()


def random_atom_sets(count: int):
    """(points, weights) of `count` sets of 1 to 3 atoms in 1 to 3 variables, 0.15 apart."""
    rng = np.random.default_rng(17)
    while count:
        n, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        pts = rng.uniform(-1, 1, size=(k, n))
        if all(np.linalg.norm(pts[i] - pts[j]) > 0.15 for i in range(k) for j in range(i + 1, k)):
            count -= 1
            yield pts, rng.uniform(0.1, 1.0, size=k)


class TestAgainstLapack:
    """The numpy pivoted Cholesky and Schur basis against LAPACK's, through scipy."""

    @staticmethod
    def cases():
        """(y, r) of the moments that TestCertify certifies, then of twenty random atom sets."""
        pts = np.random.default_rng(41).uniform(-1, 1, size=(3, 2))
        yield bound_and_moments(build_polyopt(), 2, HI).moments, 2
        yield lebesgue_moments_01(6), 3
        yield MomentVector.from_atoms(pts, [0.2, 0.3, 0.5], 6), 3
        yield MomentVector.from_atoms([(-0.5,), (0.5,)], [0.3, 0.9], 6), 3
        yield MomentVector.from_atoms([(0.25,)], [1.0], 4), 2
        for pts, ws in random_atom_sets(20):
            yield MomentVector.from_atoms(pts, ws, 6), 3

    def test_pivots_are_dpstrf_s(self):
        for y, r in self.cases():
            M = moment_matrix(y, r)
            rank = numerical_rank(M, 1e-6)
            R, pivots = _pivoted_cholesky(M, rank)
            R0, pivots0 = dpstrf_pivoted_cholesky(M, rank)
            assert pivots == pivots0
            assert np.abs(R - R0).max() <= 1e-12 * np.sqrt(np.abs(M).max())

    def test_atoms_are_those_of_scipy_schur(self, monkeypatch):
        flat = 0
        for y, r in self.cases():
            if not certify(y, r, 1).flat:
                continue
            flat += 1
            M = moment_matrix(y, r)
            rank = numerical_rank(M, 1e-6)
            atoms = _extract_general(y, M, rank, r, 1e-6, 0)
            with monkeypatch.context() as m:
                m.setattr(extraction, "_pivoted_cholesky", dpstrf_pivoted_cholesky)
                m.setattr(extraction, "_schur_basis", lambda combo: scipy.linalg.schur(combo, output="real")[1])
                want = _extract_general(y, M, rank, r, 1e-6, 0)
            assert len(atoms) == len(want) == rank
            for (p, w), (p0, w0) in zip(atoms, want):
                assert np.abs(p - p0).max() <= 1e-10 and abs(w - w0) <= 1e-10
        assert flat == 24  # all but the Lebesgue moments

    def test_complex_eigenvalues_are_refused(self):
        with pytest.raises(ExtractionError, match="complex eigenvalues"):
            extraction._schur_basis(np.array([[0.0, -1.0], [1.0, 0.0]]))


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3), 1e-6) == 3

    def test_dirac_moment_matrix_rank_one(self):
        y = MomentVector.from_atoms([(1.0, 2.0)], [1.0], 4)
        assert numerical_rank(moment_matrix(y, 2)) == 1

    def test_two_atoms_rank_two(self):
        y = MomentVector.from_atoms([(0.0,), (1.0,)], [0.5, 0.5], 4)
        assert numerical_rank(moment_matrix(y, 2)) == 2

    def test_tolerance_is_relative(self):
        M = np.diag([1e6, 2.0, 1e-8])
        assert numerical_rank(M, 1e-6) == 2
        assert numerical_rank(np.diag([1.0, 1e-8]), 1e-6) == 1


class TestExtractAtoms:
    def test_single_dirac(self):
        y = MomentVector.from_atoms([(0.5,)], [1.0], 4)
        atoms = extract_atoms(y, 2)
        assert len(atoms) == 1
        p, w = atoms[0]
        assert p[0] == pytest.approx(0.5, abs=1e-10)
        assert w == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_pair(self):
        y = MomentVector.from_atoms([(-1.0,), (1.0,)], [0.5, 0.5], 4)
        atoms = extract_atoms(y, 2)
        assert len(atoms) == 2
        pts = sorted(float(p[0]) for p, _ in atoms)
        assert pts[0] == pytest.approx(-1.0, abs=1e-8)
        assert pts[1] == pytest.approx(1.0, abs=1e-8)
        for _, w in atoms:
            assert w == pytest.approx(0.5, abs=1e-8)

    def test_polyopt_optimum(self):
        res = bound_and_moments(build_polyopt(), 2, HI)
        atoms = extract_atoms(res.moments, 2)
        assert len(atoms) == 1
        p, w = atoms[0]
        assert w == pytest.approx(1.0, abs=1e-6)
        assert p[0] == pytest.approx((1 - np.sqrt(5.0)) / 2, abs=1e-7)
        assert p[1] == pytest.approx((1 + np.sqrt(5.0)) / 2, abs=1e-7)

    def test_roundtrip_random_atom_sets(self):
        for pts, ws in random_atom_sets(50):
            y = MomentVector.from_atoms(pts, ws, 6)
            atoms = extract_atoms(y, 3, tol=1e-8)
            assert len(atoms) == len(pts)
            got = sorted([(tuple(p), w) for p, w in atoms])
            want = sorted([(tuple(pts[i]), ws[i]) for i in range(len(pts))])
            for (gp, gw), (wp, ww) in zip(got, want):
                assert max(abs(a - b) for a, b in zip(gp, wp)) < 1e-6
                assert abs(gw - ww) < 1e-6

    def test_rank_one_shortcut_matches_general_path(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            pt = rng.uniform(-1, 1, size=(1, n))
            w = float(rng.uniform(0.2, 2.0))
            y = MomentVector.from_atoms(pt, [w], 4)
            M = moment_matrix(y, 2)
            assert numerical_rank(M, 1e-6) == 1  # so extract_atoms takes the shortcut
            a1 = extract_atoms(y, 2)
            a2 = _extract_general(y, M, 1, 2, 1e-6, 0)
            assert len(a1) == len(a2) == 1
            assert np.abs(a1[0][0] - a2[0][0]).max() < 1e-8
            assert abs(a1[0][1] - a2[0][1]) < 1e-8

    def test_detects_moment_mismatch(self):
        y = MomentVector.from_atoms([(0.5,)], [1.0], 4)
        vals = np.asarray(y.values, dtype=float).copy()
        vals[1] += 0.05  # y no longer comes from any nonnegative measure
        broken = MomentVector(1, 4, vals)
        with pytest.raises(ExtractionError):
            extract_atoms(broken, 2)

    def test_seeded_determinism(self):
        y = MomentVector.from_atoms([(-0.3, 0.4), (0.7, -0.1)], [0.6, 0.4], 6)
        a = extract_atoms(y, 3, seed=5)
        b = extract_atoms(y, 3, seed=5)
        for (pa, wa), (pb, wb) in zip(a, b):
            assert np.array_equal(pa, pb) and wa == wb


class TestCertify:
    def test_polyopt_certificate(self):
        pop = build_polyopt()
        res = bound_and_moments(pop, 2, HI)
        cert = certify(
            res.moments,
            2,
            res.info.r_x,
            constraints=[("ineq", q) for q in pop.feasible_set.inequalities],
        )
        assert cert.ranks == [1, 1, 1]
        assert cert.flat
        assert len(cert.atoms) == 1
        assert cert.residual <= 1e-5
        # the atom's objective value sits on the certified bound
        value = float(pop.objective.evaluate([float(v) for v in cert.atoms[0][0]]))
        assert value - res.bound <= 1e-6

    def test_ranks_are_those_of_each_moment_matrix(self):
        # certify reads each M_s(y) off M_r(y): its leading block, with the same floats
        pts = np.random.default_rng(41).uniform(-1, 1, size=(3, 2))
        cases = [
            (lebesgue_moments_01(6), 3),
            (MomentVector.from_atoms(pts, [0.2, 0.3, 0.5], 6), 3),
            (bound_and_moments(build_polyopt(), 2, HI).moments, 2),
        ]
        for y, r in cases:
            M = moment_matrix(y, r)
            cert = certify(y, r, 1)
            for s in range(r + 1):
                Ms = moment_matrix(y, s)
                assert np.array_equal(M[: len(Ms), : len(Ms)], Ms)
                assert cert.ranks[s] == numerical_rank(Ms, cert.rank_tol)
        assert [certify(y, r, 1).ranks for y, r in cases[:2]] == [[1, 2, 3, 4], [1, 3, 3, 3]]

    def test_weights_sum_to_mass(self):
        y = MomentVector.from_atoms([(-0.5,), (0.5,)], [0.3, 0.9], 6)
        cert = certify(y, 3, 1)
        assert sum(w for _, w in cert.atoms) == pytest.approx(1.2, abs=1e-6)

    def test_not_flat_gives_no_atoms(self):
        cert = certify(lebesgue_moments_01(4), 2, 1)
        assert not cert.flat and cert.atoms == []

    def test_lines_format(self):
        y = MomentVector.from_atoms([(0.25,)], [1.0], 4)
        cert = certify(y, 2, 1)
        text = "\n".join(cert.lines())
        assert "flat = true" in text
        assert "atom 1:" in text
