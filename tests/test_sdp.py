import functools
import itertools
import math
import os
import time
import warnings
from collections import defaultdict

import numpy as np
import pytest
import scipy.linalg

from momentsdp import sdp
from momentsdp.problemfile import (
    ParsedProblem,
    ProblemFileError,
    load_problem,
    parse_problem_text,
    problem_to_text,
)
from momentsdp.sdp import (
    Block,
    BlockData,
    ConicProgram,
    SolveOptions,
    solve,
)

SQRT2 = float(np.sqrt(2.0))


def sqrt2_program() -> ConicProgram:
    # sup y s.t. [[1, y], [y, 2]] >= 0, scaled so X* is the classic
    # rank-one optimizer [[sqrt2, -1], [-1, sqrt2/2]]
    return ConicProgram(
        blocks=[Block("psd", 2)],
        A=[np.array([[[0.0, -0.5], [-0.5, 0.0]]])],
        b=np.array([1.0]),
        C=[np.array([[0.5, 0.0], [0.0, 1.0]])],
    )


def sqrt2_point_program() -> ConicProgram:
    # feasible set of the pair of LMIs is the single point y = sqrt(2)
    return ConicProgram(
        blocks=[Block("psd", 2), Block("psd", 2)],
        A=[
            np.array([[[0.0, -1.0], [-1.0, 0.0]]]),
            np.array([[[-2.0, 0.0], [0.0, -1.0]]]),
        ],
        b=np.array([1.0]),
        C=[np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([[0.0, 2.0], [2.0, 0.0]])],
    )


def allones_program() -> ConicProgram:
    A = np.zeros((3, 3, 3))
    A[0][0, 1] = A[0][1, 0] = -1.0
    A[1][0, 2] = A[1][2, 0] = -1.0
    A[2][1, 2] = A[2][2, 1] = -1.0
    return ConicProgram(
        blocks=[Block("psd", 3)], A=[A], b=np.ones(3), C=[np.eye(3)]
    )


TIGHT = SolveOptions(gap_tol=1e-13, feas_tol=1e-11)
FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _cholesky_succeeds(M: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(M)
        return True
    except np.linalg.LinAlgError:
        return False


def reference_max_step_psd(X: np.ndarray, D: np.ndarray) -> float:
    """The plain bisection: np.linalg.cholesky on a fresh X + t * D, 40 halvings."""
    if _cholesky_succeeds(X + D):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _cholesky_succeeds(X + mid * D):
            lo = mid
        else:
            hi = mid
    return lo


def near_singular_matrices():
    """Symmetric matrices of sides 1..12 shifted to within 1e-13 * ||M|| of
    singular, where rounding decides the factorization; 2,400 of them."""
    rng = np.random.default_rng(0)
    for trial in range(2400):
        n = 1 + trial % 12
        T = rng.normal(size=(n, n))
        M = T @ T.T if trial % 2 else T + T.T
        lam_min = np.linalg.eigvalsh(M)[0]
        shift = rng.uniform(-1e-13, 1e-13) * np.linalg.norm(M, 2) - lam_min
        yield M + shift * np.eye(n)


STEP_COUNTS = ("step_chol_calls", "step_trials", "step_batches")


def reference_schur_psd(M, A, X, Zinv) -> None:
    # the dense Schur formation over every row: full (m, s, s) products A X
    # and Z^{-1} A X, then a transposed copy, and one GEMM
    m, s, _ = A.shape
    AX = np.matmul(A, X)
    T = np.matmul(Zinv, AX)
    A2 = A.reshape(m, s * s)
    T2 = T.transpose(0, 2, 1).reshape(m, s * s)
    M += A2 @ T2.T


def reference_kkt_solve(M, F, h, rf) -> tuple[np.ndarray, np.ndarray]:
    # the bordered Newton system [[M, F], [F', 0]] [dy, dxf] = [h, rf], dense, by LU
    m, p = F.shape
    K = np.block([[M, F], [F.T, np.zeros((p, p))]])
    sol = np.linalg.solve(K, np.concatenate([h, rf]))
    return sol[:m], sol[m:]


def reference_steps(pt, d, orders, stats) -> tuple[float, float]:
    """The step search in declared block order, one `_max_step_psd` call per block and side."""
    ap, ad = sdp._max_step_nonneg(pt.xl, d.xl), sdp._max_step_nonneg(pt.zl, d.zl)
    for bi in sorted(orders[0]):
        ap = min(ap, sdp._max_step_psd(pt.X[bi], d.X[bi], ap))
        ad = min(ad, sdp._max_step_psd(pt.Z[bi], d.Z[bi], ad))
    return ap, ad


def dense_data(prog: ConicProgram) -> list[np.ndarray]:
    """Dense (m, s, s) / (m, s) copies of every block's constraint data, over all rows."""
    return [sdp._stacked_data(prog, [bi]).reshape(prog.m, *blk.shape) for bi, blk in enumerate(prog.blocks)]


def random_spd(rng, n: int, floor: float = 1e-3) -> np.ndarray:
    T = rng.normal(size=(n, n))
    return T @ T.T + floor * np.eye(n)


def random_sym(rng, n: int) -> np.ndarray:
    S = rng.normal(size=(n, n))
    return S + S.T


def mixed_cone_program(rng, n: int, q: int, pfree: int, m: int):
    # psd + nonneg + free blocks built from a known strictly feasible
    # primal-dual pair; returns the program and the pair's objective values
    Apsd = np.empty((m, n, n))
    for k in range(m):
        T = rng.normal(size=(n, n))
        Apsd[k] = T + T.T
    Anon = rng.normal(size=(m, q))
    Afree = rng.normal(size=(m, pfree))
    L = rng.normal(size=(n, n))
    X0 = L @ L.T + 0.4 * np.eye(n)
    L = rng.normal(size=(n, n))
    Z0 = L @ L.T + 0.4 * np.eye(n)
    x0 = rng.uniform(0.3, 1.5, size=q)
    z0 = rng.uniform(0.3, 1.5, size=q)
    u0 = rng.normal(size=pfree)
    y0 = rng.normal(size=m)
    b = np.einsum("kij,ij->k", Apsd, X0) + Anon @ x0 + Afree @ u0
    Cpsd = np.einsum("kij,k->ij", Apsd, y0) + Z0
    Cnon = Anon.T @ y0 + z0
    Cfree = Afree.T @ y0  # zero dual slack on the free block
    prog = ConicProgram(
        blocks=[Block("psd", n), Block("nonneg", q), Block("zero", pfree)],
        A=[Apsd, Anon, Afree],
        b=b,
        C=[Cpsd, Cnon, Cfree],
    )
    lo = float(b @ y0)
    hi = float(np.sum(Cpsd * X0) + Cnon @ x0 + Cfree @ u0)
    return prog, lo, hi


def feasible_program(rng, blocks: list[Block], m: int) -> ConicProgram:
    # data for any list of blocks, built from a strictly feasible primal-dual
    # pair with zero dual slack on the zero blocks
    y0 = rng.normal(size=m)
    A, C, b = [], [], np.zeros(m)
    for blk in blocks:
        n = blk.size
        if blk.kind == "psd":
            T = rng.normal(size=(m, n, n))
            Ab = T + T.transpose(0, 2, 1)
            X0, Z0 = random_spd(rng, n, 0.4), random_spd(rng, n, 0.4)
        else:
            Ab = rng.normal(size=(m, n))
            X0 = rng.uniform(0.3, 1.5, size=n) if blk.kind == "nonneg" else rng.normal(size=n)
            Z0 = rng.uniform(0.3, 1.5, size=n) if blk.kind == "nonneg" else np.zeros(n)
        b += np.tensordot(Ab, X0, axes=X0.ndim)
        A.append(Ab)
        C.append(np.tensordot(y0, Ab, axes=1) + Z0)
    return ConicProgram(list(blocks), A, b, C)


def assert_same_nonzeros(a: BlockData, b: BlockData) -> None:
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.cols, b.cols)
    assert np.array_equal(a.vals, b.vals)


class TestCoreSolves:
    def test_sqrt2_value_and_optimizer(self):
        sol = solve(sqrt2_program(), TIGHT)
        assert sol.status == "optimal"
        assert sol.dual_obj == pytest.approx(SQRT2, abs=1e-6)
        Xstar = np.array([[SQRT2, -1.0], [-1.0, SQRT2 / 2]])
        assert np.abs(sol.X[0] - Xstar).max() < 1e-5

    def test_sqrt2_point(self):
        sol = solve(sqrt2_point_program(), SolveOptions(gap_tol=1e-12, feas_tol=1e-10))
        assert sol.status == "optimal"
        assert sol.y[0] == pytest.approx(SQRT2, abs=1e-6)

    def test_allones(self):
        # grid oracle: on a coarse grid of feasible correlation values the
        # objective never beats 3, and the all-ones point attains it
        for y in itertools.product(np.linspace(-1, 1, 9), repeat=3):
            Z = np.array([[1.0, y[0], y[1]], [y[0], 1.0, y[2]], [y[1], y[2], 1.0]])
            if np.linalg.eigvalsh(Z)[0] >= 0:
                assert sum(y) <= 3.0 + 1e-12
        sol = solve(allones_program(), TIGHT)
        assert sol.status == "optimal"
        assert sol.dual_obj == pytest.approx(3.0, abs=1e-7)

    def test_diagonal_lp(self):
        # min x1 + x2 s.t. x1 = 1, x >= 0 as a pure nonneg-block program
        prog = ConicProgram(
            blocks=[Block("nonneg", 2)],
            A=[np.array([[1.0, 0.0]])],
            b=np.array([1.0]),
            C=[np.array([1.0, 1.0])],
        )
        sol = solve(prog, TIGHT)
        assert sol.status == "optimal"
        assert sol.primal_obj == pytest.approx(1.0, abs=1e-8)

    def test_free_block(self):
        # min x s.t. x + u = 1 with u free: optimum x = 0, u = 1
        prog = ConicProgram(
            blocks=[Block("nonneg", 1), Block("zero", 1)],
            A=[np.array([[1.0]]), np.array([[1.0]])],
            b=np.array([1.0]),
            C=[np.array([1.0]), np.array([0.0])],
        )
        sol = solve(prog, TIGHT)
        assert sol.status == "optimal"
        assert sol.X[1][0] == pytest.approx(1.0, abs=1e-7)
        assert sol.primal_obj == pytest.approx(0.0, abs=1e-8)

    def test_infeasible_detection(self):
        # <E11, X> = -1 with X >= 0 is primal infeasible (dual unbounded)
        prog = ConicProgram(
            blocks=[Block("psd", 2)],
            A=[np.array([[[1.0, 0.0], [0.0, 0.0]]])],
            b=np.array([-1.0]),
            C=[np.eye(2)],
        )
        sol = solve(prog)
        assert sol.status in ("infeasible", "max_iter")

    def test_max_iter_status(self):
        sol = solve(sqrt2_program(), SolveOptions(max_iter=2))
        assert sol.status == "max_iter"
        assert sol.iterations <= 2


class TestNullSpaceStep:
    @pytest.mark.parametrize("m, p", [(7, 0), (7, 1), (7, 4), (7, 7), (1, 1), (30, 12)])
    @pytest.mark.parametrize("singular", [False, True])
    def test_solve_matches_dense_kkt(self, m, p, singular):
        # M positive definite, or singular on the range of F and positive definite on the null
        # space of F', where the bordered system is still nonsingular
        rng = np.random.default_rng(100 * m + p)
        F = rng.normal(size=(m, p))
        if singular and p:
            Q = np.linalg.qr(F, mode="complete")[0]
            B = Q[:, p:] @ rng.normal(size=(m - p, m - p))
            M = B @ B.T
        else:
            M = random_spd(rng, m, 0.1)
        T, Q2 = sdp._free_basis(F, [(0, p)]) if p else (None, None)
        stats = {"factorizations": 0, "regularized": 0}
        fact = sdp._Factorization(M, F, T, Q2, stats)
        for _ in range(3):
            h, rf = rng.normal(size=m), rng.normal(size=p)
            dy, dxf = fact.solve(h, rf)
            dy_ref, dxf_ref = reference_kkt_solve(M, F, h, rf)
            scale = 1.0 + np.abs(np.concatenate([dy_ref, dxf_ref])).max()
            assert np.abs(dy - dy_ref).max() <= 1e-10 * scale
            assert np.abs(dxf - dxf_ref).max(initial=0.0) <= 1e-10 * scale
            assert np.abs(F.T @ dy - rf).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(rf).max(initial=0.0))
        # one factorization of side m - p, none once the null space is empty, and no shift
        assert stats == {"factorizations": int(p < m), "regularized": 0}

    def test_basis_spans_the_null_space(self):
        rng = np.random.default_rng(3)
        F = rng.normal(size=(9, 4))
        T, Q2 = sdp._free_basis(F, [(2, 4)])
        assert T.shape == (9, 4) and Q2.shape == (9, 5)
        assert T.flags.c_contiguous and Q2.flags.c_contiguous
        assert np.abs(F.T @ T - np.eye(4)).max() < 1e-12
        assert np.abs(F.T @ Q2).max() < 1e-12 * np.abs(F).max()
        assert np.abs(Q2.T @ Q2 - np.eye(5)).max() < 1e-14

    def test_dependent_free_columns_are_named(self):
        # the second zero block's entries repeat a column of the first and scale another; with
        # more columns than rows, every column from m on is dependent; so is a zero column
        rng = np.random.default_rng(4)
        F = rng.normal(size=(6, 5))
        F[:, 3], F[:, 4] = F[:, 0], -3.0 * F[:, 2]
        with pytest.raises(ValueError, match=r": block 5 entry 0, block 5 entry 1$"):
            sdp._free_basis(F, [(2, 3), (5, 2)])
        with pytest.raises(ValueError, match=r": block 0 entry 2$"):
            sdp._free_basis(rng.normal(size=(2, 3)), [(0, 3)])
        with pytest.raises(ValueError, match=r": block 0 entry 0$"):
            sdp._free_basis(np.zeros((3, 1)), [(0, 1)])

    def test_program_with_equal_free_columns_is_refused(self):
        # free entries u1 and u2 enter every constraint alike, so only u1 + u2 is determined
        text = ("kind: sdp\n[blocks]\npsd 2\nzero 2\n[b]\n1 2\n[C]\n1 1 1 1\n1 2 2 1\n"
                "[A 1]\n1 1 1 1\n2 1 1 1\n2 2 2 1\n[A 2]\n1 2 2 1\n")
        prog = parse_problem_text(text).sdp
        with pytest.raises(ValueError, match=r"depend on earlier ones: block 1 entry 1$"):
            solve(prog)


class TestRandomPrograms:
    def _random_feasible(self, rng, n, m):
        A = np.empty((m, n, n))
        for k in range(m):
            T = rng.normal(size=(n, n))
            A[k] = T + T.T
        L = rng.normal(size=(n, n))
        X0 = L @ L.T + 0.3 * np.eye(n)
        L = rng.normal(size=(n, n))
        Z0 = L @ L.T + 0.3 * np.eye(n)
        y0 = rng.normal(size=m)
        b = np.einsum("kij,ij->k", A, X0)
        C = np.einsum("kij,k->ij", A, y0) + Z0
        return ConicProgram(blocks=[Block("psd", n)], A=[A], b=b, C=[C]), X0, y0

    def test_recovers_objective_between_feasible_values(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n * (n + 1) // 2 + 1))
            prog, X0, y0 = self._random_feasible(rng, n, m)
            sol = solve(prog, SolveOptions(gap_tol=1e-10, feas_tol=1e-9))
            assert sol.status == "optimal"
            lo = float(prog.b @ y0)
            hi = float(np.sum(prog.C[0] * X0))
            assert lo - 1e-6 <= sol.dual_obj <= hi + 1e-6
            assert abs(sol.primal_obj - sol.dual_obj) <= 1e-8 * (1 + abs(sol.dual_obj))

    def test_weak_duality_along_iterates(self):
        # once both residuals are small, <C,X> - b'y stays above -1e-8
        rng = np.random.default_rng(4)
        prog, _, _ = self._random_feasible(rng, 4, 5)
        sol = solve(prog, SolveOptions(gap_tol=1e-11, feas_tol=1e-10))
        for rec in sol.trace:
            if rec["pres"] <= 1e-6 and rec["dres"] <= 1e-6:
                assert rec["pobj"] - rec["dobj"] >= -1e-8

    def test_gap_identity_with_residuals(self):
        # pobj - dobj = <X,Z> + <X,Rd> - y'r_p for any (X, y, Z); only <X,Z> >= 0
        # comes from the cones, so small residuals alone do not bound the gap below
        for seed in range(10):
            prog, _, _ = self._random_feasible(np.random.default_rng(seed), 4, 5)
            sol = solve(prog, SolveOptions(gap_tol=1e-11, feas_tol=1e-10))
            (A,) = dense_data(prog)
            X, Z, y = sol.X[0], sol.Z[0], sol.y
            r_p = prog.b - np.einsum("kij,ij->k", A, X)
            Rd = prog.C[0] - np.einsum("kij,k->ij", A, y) - Z
            xz = float(np.sum(X * Z))
            assert xz >= 0.0, seed
            identity = xz + float(np.sum(X * Rd)) - float(y @ r_p)
            gap = sol.primal_obj - sol.dual_obj
            assert abs(gap - identity) <= 1e-9 * (1 + abs(sol.dual_obj)), seed

    def test_scaling_invariance_of_argmax(self):
        rng = np.random.default_rng(9)
        prog, _, _ = self._random_feasible(rng, 3, 3)
        lam = 3.7
        scaled = ConicProgram(
            blocks=prog.blocks,
            A=[a.copy() for a in prog.A],
            b=prog.b.copy(),
            C=[lam * prog.C[0]],
        )
        # scaling C leaves the primal argmin X unchanged and scales (y, Z)
        # and both objectives linearly
        s1 = solve(prog, SolveOptions(gap_tol=1e-11, feas_tol=1e-10))
        s2 = solve(scaled, SolveOptions(gap_tol=1e-11, feas_tol=1e-10))
        assert s1.status == s2.status == "optimal"
        assert np.abs(s2.y / lam - s1.y).max() < 1e-6 * max(1.0, np.abs(s1.y).max())
        assert np.abs(s2.X[0] - s1.X[0]).max() < 1e-6 * max(1.0, np.abs(s1.X[0]).max())
        assert s2.primal_obj == pytest.approx(lam * s1.primal_obj, rel=1e-7)

    def test_scaling_b_preserves_optimal_y(self):
        rng = np.random.default_rng(13)
        prog, _, _ = self._random_feasible(rng, 3, 3)
        lam = 2.5
        scaled = ConicProgram(
            blocks=prog.blocks,
            A=[a.copy() for a in prog.A],
            b=lam * prog.b,
            C=[prog.C[0].copy()],
        )
        s1 = solve(prog, SolveOptions(gap_tol=1e-11, feas_tol=1e-10))
        s2 = solve(scaled, SolveOptions(gap_tol=1e-11, feas_tol=1e-10))
        assert np.abs(s2.y - s1.y).max() < 1e-6 * max(1.0, np.abs(s1.y).max())
        assert s2.dual_obj == pytest.approx(lam * s1.dual_obj, rel=1e-7)


class TestProgramValidation:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            ConicProgram(
                blocks=[Block("psd", 2)],
                A=[np.zeros((1, 3, 3))],
                b=np.array([1.0]),
                C=[np.zeros((2, 2))],
            )
        with pytest.raises(ValueError):
            Block("weird", 2)
        with pytest.raises(ValueError):
            Block("psd", 0)

    def test_cone_block_and_constraint_required(self):
        with pytest.raises(ValueError, match="program has no cone blocks"):
            ConicProgram(blocks=[Block("zero", 2)], A=[np.ones((1, 2))], b=np.ones(1),
                         C=[np.zeros(2)])
        with pytest.raises(ValueError, match="program has no constraints"):
            ConicProgram(blocks=[Block("psd", 2)], A=[np.zeros((0, 2, 2))], b=np.zeros(0),
                         C=[np.eye(2)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ConicProgram(
                blocks=[Block("psd", 1)],
                A=[np.array([[[np.inf]]])],
                b=np.array([1.0]),
                C=[np.zeros((1, 1))],
            )

    def test_nonfinite_value_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="nonfinite"):
                ConicProgram(
                    blocks=[Block("psd", 2)],
                    A=[BlockData(np.array([0, 0]), np.array([1, 2]), np.array([1.0, bad]))],
                    b=np.array([1.0]),
                    C=[np.eye(2)],
                )

    def test_entry_index_checks(self):
        def program(rows, cols, kind="psd"):
            return ConicProgram(
                blocks=[Block(kind, 2)],
                A=[BlockData(np.array(rows), np.array(cols), np.ones(len(rows)))],
                b=np.zeros(2),
                C=[np.eye(2) if kind == "psd" else np.ones(2)],
            )

        program([0, 1], [3, 0])  # in range: m = 2, a 2x2 block has cells 0..3
        program([0, 1], [1, 0], "nonneg")
        for rows, cols, kind in [
            ([2], [0], "psd"),  # row k = m
            ([-1], [0], "psd"),
            ([0], [4], "psd"),  # cell s * s
            ([0], [-1], "psd"),
            ([0], [2], "nonneg"),  # entry s of a vector block
        ]:
            with pytest.raises(ValueError, match="outside"):
                program(rows, cols, kind)
        with pytest.raises(ValueError, match="more than once"):
            program([1, 0, 1], [2, 0, 2])
        with pytest.raises(ValueError, match="integer"):
            program(np.array([0.0]), [0])

    def test_dense_input_is_stored_as_sorted_nonzeros(self):
        prog = allones_program()
        assert prog.A[0].rows.tolist() == [0, 0, 1, 1, 2, 2]
        assert prog.A[0].cols.tolist() == [1, 3, 2, 6, 5, 7]
        assert prog.A[0].vals.tolist() == [-1.0] * 6
        shuffled = BlockData(np.array([2, 0, 1, 2, 0, 1]), np.array([7, 3, 6, 5, 1, 2]),
                             np.array([-1.0, -1.0, -1.0, -1.0, -1.0, -1.0]))
        again = ConicProgram(blocks=prog.blocks, A=[shuffled], b=prog.b, C=prog.C)
        assert_same_nonzeros(again.A[0], prog.A[0])

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(gap_tol=0.0)

    def test_nonfinite_tolerances_rejected(self):
        for bad in (np.inf, np.nan):
            for field in ("gap_tol", "feas_tol"):
                with pytest.raises(ValueError, match="finite"):
                    SolveOptions(**{field: bad})

    def test_iteration_budget_must_be_an_integer(self):
        # a float budget used to fail only inside solve, and True ran as 1
        for bad in (3.5, 2.0, True, False, np.float64(2.0), "3", None):
            with pytest.raises(TypeError):
                SolveOptions(max_iter=bad)
        for good in (2, np.int64(2), np.int32(2), np.uint8(2)):
            options = SolveOptions(max_iter=good)
            assert type(options.max_iter) is int and options.max_iter == 2
            assert solve(sqrt2_program(), options).iterations == 2
        with pytest.raises(ValueError, match="positive"):
            SolveOptions(max_iter=np.int64(0))


class TestInterchangeFormat:
    def test_roundtrip(self):
        prog = ConicProgram(
            blocks=[Block("psd", 2), Block("nonneg", 2), Block("zero", 1)],
            A=[
                np.array([[[0.0, -0.5], [-0.5, 0.0]], [[1.0, 0.0], [0.0, 2.0]]]),
                np.array([[1.0, 0.0], [0.0, 3.0]]),
                np.array([[0.5], [0.0]]),
            ],
            b=np.array([1.0, 0.25]),
            C=[np.array([[0.5, 0.0], [0.0, 1.0]]), np.array([0.0, 1.0]), np.array([2.0])],
        )
        text = problem_to_text(ParsedProblem("sdp", sdp=prog))
        back = parse_problem_text(text).sdp
        assert [(blk.kind, blk.size) for blk in back.blocks] == [
            ("psd", 2),
            ("nonneg", 2),
            ("zero", 1),
        ]
        assert np.array_equal(back.b, prog.b)
        for bi in range(3):
            assert_same_nonzeros(back.A[bi], prog.A[bi])
            assert np.array_equal(back.C[bi], prog.C[bi])

    def test_file_io(self, tmp_path):
        prog = sqrt2_program()
        path = str(tmp_path / "prog.sdp")
        with open(path, "w") as f:
            f.write(problem_to_text(ParsedProblem("sdp", sdp=prog)))
        back = load_problem(path).sdp
        sol = solve(back, TIGHT)
        assert sol.dual_obj == pytest.approx(SQRT2, abs=1e-6)

    def test_rational_values(self):
        text = """kind: sdp
[blocks]
psd 2
[b]
1
[C]
1 1 1 1/2
1 2 2 1
[A 1]
1 1 2 -1/2
"""
        prog = parse_problem_text(text).sdp
        assert prog.C[0][0, 0] == 0.5
        # the one entry (1, 2) of constraint 1 fills cells (0, 1) and (1, 0)
        assert prog.A[0].rows.tolist() == [0, 0]
        assert prog.A[0].cols.tolist() == [1, 2]
        assert prog.A[0].vals.tolist() == [-0.5, -0.5]

    def test_format_errors(self):
        with pytest.raises(ProblemFileError):
            parse_problem_text("kind: sdp\n[blocks]\npsd\n")
        with pytest.raises(ProblemFileError):
            parse_problem_text("kind: sdp\nstray line\n")
        with pytest.raises(ProblemFileError):
            parse_problem_text("kind: sdp\n[blocks]\npsd 2\n[b]\n1\n[A 5]\n1 1 1 1\n")

    def test_empty_section_header_is_an_error(self):
        with pytest.raises(ProblemFileError) as ei:
            parse_problem_text("kind: sdp\n[]\n")
        assert ei.value.line == 2

    def test_constraint_index_error_names_its_header_line_once(self):
        with pytest.raises(ProblemFileError) as ei:
            parse_problem_text("kind: sdp\n[blocks]\npsd 2\n[b]\n1\n[A 5]\n1 1 1 1\n")
        assert ei.value.line == 6
        assert str(ei.value).count("(line") == 1


class TestStoredForm:
    @staticmethod
    def _from_triplets(prog: ConicProgram, rng) -> ConicProgram:
        """The same program rebuilt from its nonzeros, listed in a shuffled order."""
        A = []
        for data in prog.A:
            perm = rng.permutation(len(data.vals))
            A.append(BlockData(data.rows[perm], data.cols[perm], data.vals[perm]))
        return ConicProgram(blocks=list(prog.blocks), A=A, b=prog.b.copy(),
                            C=[c.copy() for c in prog.C])

    def test_dense_and_triplet_programs_solve_identically(self):
        rng = np.random.default_rng(5)
        dense_random, _, _ = TestRandomPrograms()._random_feasible(rng, 4, 5)
        sqrt2_triplets = ConicProgram(
            blocks=[Block("psd", 2)],
            A=[BlockData(np.array([0, 0]), np.array([1, 2]), np.array([-0.5, -0.5]))],
            b=np.array([1.0]),
            C=[np.array([[0.5, 0.0], [0.0, 1.0]])],
        )
        cases = [
            (sqrt2_program(), sqrt2_triplets, TIGHT),
            (dense_random, self._from_triplets(dense_random, rng),
             SolveOptions(gap_tol=1e-10, feas_tol=1e-9)),
        ]
        for dense, triplets, options in cases:
            s1, s2 = solve(dense, options), solve(triplets, options)
            assert s1.status == s2.status == "optimal"
            assert s1.iterations == s2.iterations
            assert np.array_equal(s1.y, s2.y)
            for X1, X2 in zip(s1.X, s2.X):
                assert np.array_equal(X1, X2)

    def test_free_blocks_stack_into_one_dense_matrix(self):
        # solve writes the zero blocks straight into F; it equals the dense
        # blocks side by side, offsets included
        rng = np.random.default_rng(3)
        prog, _, _ = mixed_cone_program(rng, 3, 2, 2, 5)
        prog = ConicProgram(
            blocks=prog.blocks + [Block("zero", 3)],
            A=prog.A + [rng.normal(size=(5, 3)) * (rng.uniform(size=(5, 3)) < 0.5)],
            b=prog.b,
            C=prog.C + [rng.normal(size=3)],
        )
        dense = dense_data(prog)
        assert np.array_equal(sdp._stacked_data(prog, [2, 3]), np.hstack([dense[2], dense[3]]))

    def test_blocks_in_any_order_stack_and_slice_back(self):
        # two nonneg blocks and a zero block between psd blocks: solve stacks
        # them and slices X and Z back into declared order, so the solve
        # agrees with the one of the same blocks ordered psd, nonneg, zero
        blocks = [Block("nonneg", 2), Block("psd", 3), Block("zero", 1), Block("nonneg", 1),
                  Block("psd", 2)]
        prog = feasible_program(np.random.default_rng(5), blocks, 6)
        order = [1, 4, 0, 3, 2]
        reordered = ConicProgram([prog.blocks[bi] for bi in order], [prog.A[bi] for bi in order],
                                 prog.b, [prog.C[bi] for bi in order])
        options = SolveOptions(gap_tol=1e-10, feas_tol=1e-9)
        sol, ref = solve(prog, options), solve(reordered, options)
        assert sol.status == ref.status == "optimal"
        assert abs(sol.dual_obj - ref.dual_obj) <= 1e-8 * (1.0 + abs(ref.dual_obj))
        assert sol.blocks == blocks
        for bi, blk in enumerate(blocks):
            X, Z = sol.X[bi], sol.Z[bi]
            assert X.shape == Z.shape == blk.shape
            if blk.kind == "psd":
                assert np.array_equal(X, X.T) and np.array_equal(Z, Z.T)
                assert np.linalg.eigvalsh(X)[0] > 0 and np.linalg.eigvalsh(Z)[0] > 0
            elif blk.kind == "nonneg":
                assert np.all(X > 0) and np.all(Z > 0)
            else:
                assert np.all(Z == 0.0)
            assert np.abs(X - ref.X[order.index(bi)]).max() <= 1e-6, bi

    def test_assembled_relaxation_roundtrips_through_text(self):
        from momentsdp.casestudies import build_eig_assign
        from momentsdp.relaxation import build_relaxation

        prog = build_relaxation(build_eig_assign(3), 2)[0].program
        assert {blk.kind for blk in prog.blocks} == {"psd", "zero"}
        back = parse_problem_text(problem_to_text(ParsedProblem("sdp", sdp=prog))).sdp
        assert [(b.kind, b.size) for b in back.blocks] == [(b.kind, b.size) for b in prog.blocks]
        assert np.array_equal(back.b, prog.b)
        for bi in range(len(prog.blocks)):
            assert_same_nonzeros(back.A[bi], prog.A[bi])
            assert np.array_equal(back.C[bi], prog.C[bi])


class TestConcurrency:
    def test_parallel_solves_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        progs = [sqrt2_program(), sqrt2_point_program(), allones_program()]
        serial = [solve(p, TIGHT).dual_obj for p in progs]
        with ThreadPoolExecutor(max_workers=3) as pool:
            parallel = list(pool.map(lambda p: solve(p, TIGHT).dual_obj, progs))
        assert np.allclose(serial, parallel, atol=1e-9)


class TestCentralPath:
    def test_complementarity_residual_shrinks_at_exit(self):
        sol = solve(sqrt2_program(), TIGHT)
        X, Z = sol.X[0], sol.Z[0]
        mu = sol.mu_final
        resid = float(np.linalg.norm(X @ Z - mu * np.eye(2)))
        start_scale = float(np.sum(np.diag(sqrt2_program().C[0])))  # order-1 start
        assert resid <= 1e-5 * max(1.0, start_scale)
        assert mu <= 1e-10


class TestMixedConePrograms:
    def test_random_mixed_blocks_recover_feasible_objectives(self):
        # psd + nonneg + free blocks together: build data from a known
        # strictly feasible primal-dual pair and check the solve lands
        # between the pair's objective values
        rng = np.random.default_rng(31)
        for trial in range(6):
            n = int(rng.integers(2, 4))
            q = int(rng.integers(1, 4))
            pfree = int(rng.integers(1, 3))
            m = int(rng.integers(2, 5))
            prog, lo, hi = mixed_cone_program(rng, n, q, pfree, m)
            sol = solve(prog, SolveOptions(gap_tol=1e-9, feas_tol=1e-8))
            assert sol.status == "optimal", trial
            assert lo - 1e-6 <= sol.dual_obj <= hi + 1e-6


class TestLapackCholesky:
    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(11)
        for n in range(1, 41):
            M = random_spd(rng, n)
            for a in (M, np.asfortranarray(M)):
                a0 = a.copy()
                c, lower = sdp.cho_factor(a)
                c_ref, lower_ref = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
                assert lower is lower_ref is True
                assert c.dtype == c_ref.dtype and c.tobytes() == c_ref.tobytes(), n
                assert a.tobytes() == a0.tobytes()
                for b in (rng.normal(size=n), rng.normal(size=(n, 3)),
                          np.asfortranarray(rng.normal(size=(n, 4)))):
                    b0 = b.copy()
                    x = sdp.cho_solve((c, lower), b)
                    x_ref = scipy.linalg.cho_solve((c_ref, lower_ref), b, check_finite=False)
                    assert x.shape == x_ref.shape and x.tobytes() == x_ref.tobytes(), (n, b.shape)
                    assert b.tobytes() == b0.tobytes()

    def test_raises_where_scipy_raises(self):
        # sides 1..12 shifted to within 1e-13 * ||M|| of singular, as in the
        # `_chol_ok` test, so that rounding decides some of the outcomes
        rng = np.random.default_rng(12)
        failures = 0
        for trial in range(600):
            n = 1 + trial % 12
            M = random_spd(rng, n) if trial % 2 else random_sym(rng, n)
            shift = rng.uniform(-1e-13, 1e-13) * np.linalg.norm(M, 2) - np.linalg.eigvalsh(M)[0]
            M = M + shift * np.eye(n)
            M0 = M.copy()
            try:
                scipy.linalg.cho_factor(M, lower=True, check_finite=False)
                expected = None
            except np.linalg.LinAlgError as err:
                expected = str(err)
            if expected is None:
                sdp.cho_factor(M)
            else:
                failures += 1
                with pytest.raises(np.linalg.LinAlgError) as err:
                    sdp.cho_factor(M)
                assert str(err.value) == expected
            assert M.tobytes() == M0.tobytes()
        assert 50 < failures < 550


class TestStepLength:
    def test_chol_ok_matches_numpy_cholesky_near_singular(self):
        outcomes = []
        for trial, M in enumerate(near_singular_matrices()):
            expected = _cholesky_succeeds(M)
            with np.errstate(invalid="ignore"):
                assert sdp._chol_ok(M) == expected, (trial, M)
            outcomes.append(expected)
        assert 300 < sum(outcomes) < len(outcomes) - 300

    def test_stacked_chol_ok_decides_each_matrix_as_alone(self):
        # the same 2,400 matrices, stacked per side (200 each), flat and as
        # a (2, 100) stack: one decision per matrix, each the 2-D call's
        by_side = defaultdict(list)
        for M in near_singular_matrices():
            by_side[M.shape[0]].append(M)
        failures = 0
        with np.errstate(invalid="ignore"):
            for n, mats in by_side.items():
                alone = [sdp._chol_ok(M) for M in mats]
                stack = np.stack(mats)
                ok = sdp._chol_ok(stack)
                assert ok.dtype == bool and ok.shape == (len(mats),)
                assert ok.tolist() == alone, n
                assert sdp._chol_ok(stack.reshape(2, -1, n, n)).ravel().tolist() == alone, n
                failures += alone.count(False)
        assert 300 < failures < 2100

    def test_max_step_matches_reference_bisection(self):
        rng = np.random.default_rng(1)
        full_steps = 0
        for trial in range(400):
            n = 1 + trial % 8
            T = rng.normal(size=(n, n))
            X = T @ T.T + 1e-3 * np.eye(n)
            S = rng.normal(size=(n, n))
            D = rng.uniform(0.1, 10.0) * (S + S.T)
            ref = reference_max_step_psd(X, D)
            assert sdp._max_step_psd(X, D, 1.0) == ref, trial
            full_steps += ref == 1.0
            for cap in (0.0, 0.5 * ref, np.nextafter(ref, 0.0), ref,
                        min(np.nextafter(ref, 1.0), 0.999), rng.uniform()):
                assert min(cap, sdp._max_step_psd(X, D, cap)) == min(cap, ref), (trial, cap)
        assert 20 < full_steps < 380

    @pytest.mark.parametrize("guess", ["zero", "one", "nan", "reference", "random"])
    def test_any_boundary_guess_gives_the_reference_step(self, monkeypatch, guess):
        # the guess picks the stacked trials only: the step and the decisions
        # read are those of the plain bisection and of the one-trial loop, on
        # sides 1..18 (both sides of _BATCH_SIDE) and X of condition up to 1e12
        rng = np.random.default_rng(14)
        batched = sdp._BATCH_SIDE
        decisions = batches = interior = 0
        assert 1 <= batched < 18
        for trial in range(108):
            n = 1 + trial % 18
            Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            X = (Q * np.geomspace(1.0, 10.0 ** -rng.uniform(0.0, 12.0), n)) @ Q.T
            X = 0.5 * (X + X.T)
            D = 10.0 ** rng.uniform(-3.0, 1.0) * random_sym(rng, n)
            ref = reference_max_step_psd(X, D)
            interior += ref < 1.0
            value = {"zero": 0.0, "one": 1.0, "nan": math.nan, "reference": ref,
                     "random": np.random.default_rng(trial).uniform()}[guess]
            monkeypatch.setattr(sdp, "_boundary_guess", lambda X, D: value)
            for cap in (1.0, 0.0, 0.5 * ref, np.nextafter(ref, 0.0), ref,
                        min(np.nextafter(ref, 1.0), 0.999), rng.uniform()):
                counts = []
                for batch_side in (batched, 0):
                    monkeypatch.setattr(sdp, "_BATCH_SIDE", batch_side)
                    stats = dict.fromkeys(STEP_COUNTS, 0)
                    with np.errstate(invalid="ignore"):
                        step = sdp._max_step_psd(X, D, cap, stats)
                    assert min(cap, step) == min(cap, ref), (trial, cap, batch_side)
                    assert stats["step_chol_calls"] <= stats["step_trials"]
                    assert stats["step_batches"] <= stats["step_trials"]
                    counts.append(stats)
                assert counts[0]["step_chol_calls"] == counts[1]["step_chol_calls"], (trial, cap)
                assert counts[1]["step_batches"] == counts[1]["step_chol_calls"]
                if n <= batched:
                    decisions += counts[0]["step_chol_calls"]
                    batches += counts[0]["step_batches"]
        assert 20 < interior < 100, interior
        if guess == "reference":
            # the stacked path decides most halvings up to _BATCH_SIDE
            assert 2 * batches < decisions, (batches, decisions)

    def test_boundary_guess(self):
        rng = np.random.default_rng(15)
        for trial in range(50):
            n = 1 + trial % 10
            X, D = random_spd(rng, n, 0.1), random_sym(rng, n)
            ref = reference_max_step_psd(X, D)
            if ref < 1.0:
                assert sdp._boundary_guess(X, D) == pytest.approx(ref, rel=1e-6, abs=1e-11), trial
        assert sdp._boundary_guess(np.eye(3), np.eye(3)) == 1.0  # no boundary
        assert sdp._boundary_guess(-np.eye(3), np.eye(3)) == 0.5  # X does not factor
        assert sdp._boundary_guess(np.eye(2), np.full((2, 2), np.nan)) == 0.5

    def test_steps_independent_of_block_order(self):
        # four psd blocks in all 24 orders per side, after a stacked nonneg
        # part whose ratio caps some searches; the binding block moves to the front
        rng = np.random.default_rng(4)
        psd = [0, 1, 2, 3]
        nonneg_bound = psd_bound = 0
        for trial in range(40):
            X, dX, Z, dZ = {}, {}, {}, {}
            for bi in psd:
                n = int(rng.integers(1, 6))
                X[bi], Z[bi] = random_spd(rng, n), random_spd(rng, n)
                dX[bi] = rng.uniform(0.1, 10.0) * random_sym(rng, n)
                dZ[bi] = rng.uniform(0.1, 10.0) * random_sym(rng, n)
            x, z = rng.uniform(0.5, 2.0, size=3), rng.uniform(0.5, 2.0, size=3)
            scale = 10.0 ** rng.uniform(-1.0, 3.0)
            dx, dz = scale * rng.uniform(-1.0, 0.2, size=(2, 3))
            pt = sdp._Point(X, Z, x, z, np.zeros(0), np.zeros(0))
            d = sdp._Point(dX, dZ, dx, dz, np.zeros(0), np.zeros(0))
            expected = []
            for V, D, v, dv in ((X, dX, x, dx), (Z, dZ, z, dz)):
                cap = sdp._max_step_nonneg(v, dv)
                full = {bi: reference_max_step_psd(V[bi], D[bi]) for bi in psd}
                expected.append((min(cap, *full.values()), cap, full))
            first = set()
            for perm in itertools.permutations(psd):
                orders = [list(perm), list(reversed(perm))]
                stats = {**dict.fromkeys(STEP_COUNTS, 0), "seconds": {"step": 0.0}}
                steps = sdp._steps(pt, d, orders, stats)
                assert steps == (expected[0][0], expected[1][0]), (trial, perm)
                assert stats["step_chol_calls"] > 0
                for order, (step, cap, full) in zip(orders, expected):
                    assert sorted(order) == psd
                    if step < cap:
                        assert full[order[0]] == step
                        first.add(order[0])
            nonneg_bound += expected[0][0] == expected[0][1] < 1.0
            psd_bound += len(first) > 0
        assert nonneg_bound > 5 and psd_bound > 5, (nonneg_bound, psd_bound)

    def test_solves_bit_identical_to_reference_search(self, monkeypatch):
        from momentsdp import spectra
        from momentsdp.casestudies import build_eig_assign, build_polyopt, build_saturation_cells
        from momentsdp.gmp import build_gmp_relaxation
        from momentsdp.relaxation import build_relaxation

        eig3 = build_relaxation(build_eig_assign(3), 3)[0].program
        sqrt2 = load_problem(os.path.join(FIXTURES, "sqrt2.sdp")).sdp
        planar = build_polyopt().feasible_set
        # saturation cells at r = 2: m = 135 and 19 psd blocks, each touched
        # by 9 to 35 of the rows; lqr_scalar at r = 3 has a nonneg block
        saturation = build_gmp_relaxation(build_saturation_cells(2).gmp, 2)[0].program
        lqr_gmp = load_problem(os.path.join(FIXTURES, "lqr_scalar.gmp")).gmp.instantiate(3)[0]
        lqr = build_gmp_relaxation(lqr_gmp, 3)[0].program
        gmp_options = SolveOptions(gap_tol=1e-6, feas_tol=1e-6)

        def solves() -> list:
            out = [
                solve(sqrt2, TIGHT),
                solve(eig3, SolveOptions(gap_tol=1e-6, feas_tol=1e-6)),
                solve(saturation, gmp_options),
                solve(lqr, gmp_options),
            ]

            def record(prog, options):
                out.append(sdp.solve(prog, options))
                return out[-1]

            with monkeypatch.context() as m:
                m.setattr(spectra, "solve", record)
                spectra.shadow_support_points(planar, 2, spectra.unit_directions(64)[::16])
            return out

        calls = {"fast": 0, "declared": 0, "reference": 0}
        chol_ok, cholesky = sdp._chol_ok, np.linalg.cholesky

        def counted(name, f):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapped

        with monkeypatch.context() as m:
            m.setattr(sdp, "_chol_ok", counted("fast", chol_ok))
            fast = solves()
        with monkeypatch.context() as m:
            # the capped search with the psd blocks in declared order
            m.setattr(sdp, "_chol_ok", counted("declared", chol_ok))
            m.setattr(sdp, "_steps", reference_steps)
            declared = solves()
        with monkeypatch.context() as m:
            # scipy's Cholesky wrappers, the psd blocks in declared order and
            # each bisection run to the end
            m.setattr(sdp, "cho_factor", functools.partial(scipy.linalg.cho_factor, lower=True,
                                                           check_finite=False))
            m.setattr(sdp, "cho_solve", functools.partial(scipy.linalg.cho_solve, check_finite=False))
            m.setattr(sdp, "_steps", reference_steps)
            m.setattr(sdp, "_max_step_psd", lambda X, D, cap: reference_max_step_psd(X, D))
            m.setattr(np.linalg, "cholesky", counted("reference", cholesky))
            reference = solves()
        assert len(fast) == len(declared) == len(reference) == 8
        assert (fast[2].y.size, fast[2].status, fast[2].iterations) == (135, "optimal", 17)
        for a, b, c in zip(fast, declared, reference):
            for other in (b, c):
                assert a.status == other.status
                assert a.iterations == other.iterations
                assert np.array_equal(a.y, other.y)
                assert a.y.tobytes() == other.y.tobytes()
                for Xa, Xb in zip(a.X, other.X):
                    assert np.array_equal(Xa, Xb)
                    assert Xa.tobytes() == Xb.tobytes()
                for Za, Zb in zip(a.Z, other.Z):
                    assert Za.tobytes() == Zb.tobytes()
        # the early exit fires: fewer factorizations for the same iterates,
        # and fewer still with the binding block searched first
        assert 0 < calls["fast"] < calls["declared"] < calls["reference"]

    def test_failed_factorizations_raise_no_warning(self, monkeypatch):
        outcomes = []
        chol_ok = sdp._chol_ok

        def recorded(M):
            ok = chol_ok(M)
            outcomes.extend(np.atleast_1d(ok).tolist())  # one decision per matrix of a stack
            return ok

        monkeypatch.setattr(sdp, "_chol_ok", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(sqrt2_program(), TIGHT)
        assert sol.status == "optimal"
        assert False in outcomes and True in outcomes


class TestSchurFormation:
    def test_dense_products_bit_equal_to_reference(self):
        rng = np.random.default_rng(5)
        for m, s in [(7, 5), (30, 12), (1, 3)]:
            A = rng.normal(size=(m, s, s))
            A = A + A.transpose(0, 2, 1)
            L = rng.normal(size=(s, s))
            X = L @ L.T + 0.1 * np.eye(s)
            L = rng.normal(size=(s, s))
            Zinv = np.linalg.inv(L @ L.T + 0.1 * np.eye(s))
            M0 = rng.normal(size=(m, m))
            M = M0.copy()
            sdp._schur_psd(M, A, X, Zinv)
            M_ref = M0.copy()
            reference_schur_psd(M_ref, A, X, Zinv)
            assert np.array_equal(M, M_ref), (m, s)

    def test_span_forms_only_its_rows(self):
        # rows outside the span [lo, hi) have zero data: the span's data and
        # M[lo:hi, lo:hi] are all that is formed.  M keeps M0's
        # bytes outside the span's square and holds the plain span product
        # inside it, which is the full-row reference's up to the roundings of
        # a GEMM of other dimensions
        rng = np.random.default_rng(6)
        for m, s, lo, hi in [(9, 4, 2, 7), (12, 6, 0, 5), (5, 3, 4, 5), (6, 2, 3, 3), (40, 7, 11, 29)]:
            A = np.zeros((m, s, s))
            for k in range(lo, hi):
                A[k] = random_sym(rng, s)
            X, Zinv = random_spd(rng, s, 0.1), np.linalg.inv(random_spd(rng, s, 0.1))
            M0 = rng.normal(size=(m, m))
            M = M0.copy()
            sdp._schur_psd(M[lo:hi, lo:hi], A[lo:hi], X, Zinv)
            inside = np.zeros((m, m), dtype=bool)
            inside[lo:hi, lo:hi] = True
            assert M[~inside].tobytes() == M0[~inside].tobytes(), (m, s, lo, hi)
            T = np.matmul(Zinv, np.matmul(A[lo:hi], X)).transpose(0, 2, 1).reshape(hi - lo, s * s)
            plain = M0[lo:hi, lo:hi] + A[lo:hi].reshape(hi - lo, s * s) @ T.T
            assert M[lo:hi, lo:hi].tobytes() == plain.tobytes(), (m, s, lo, hi)
            M_ref = M0.copy()
            reference_schur_psd(M_ref, A, X, Zinv)
            bound = 1e-13 * np.max(np.abs(M_ref))
            assert np.max(np.abs(M - M_ref), initial=0.0) <= bound, (m, s, lo, hi)

    def test_full_span_block_bit_equal_to_reference(self):
        # a psd block touched by the first and the last row keeps every row:
        # the layout's data is the dense (m, s, s) array and its Schur terms
        # are the bytes of the full-row reference
        rng = np.random.default_rng(7)
        for m, s in [(8, 5), (30, 12)]:
            A = np.zeros((m, s, s))
            for k in [0, m - 1, *rng.choice(np.arange(1, m - 1), size=m // 2, replace=False)]:
                A[k] = random_sym(rng, s)
            prog = ConicProgram([Block("psd", s)], [A], np.ones(m), [np.eye(s)])
            lay = sdp._Layout(prog)
            assert lay.span[0] == (0, m) and not lay.csr
            assert lay.A[0].tobytes() == A.tobytes()
            X, Zinv = random_spd(rng, s, 0.1), np.linalg.inv(random_spd(rng, s, 0.1))
            M0 = rng.normal(size=(m, m))
            M = M0.copy()
            sdp._schur_psd(M[0:m, 0:m], lay.A[0], X, Zinv)
            M_ref = M0.copy()
            reference_schur_psd(M_ref, A, X, Zinv)
            assert M.tobytes() == M_ref.tobytes(), (m, s)

    def test_span_residual_terms_bit_equal_to_full(self):
        # the A^T y and <A_k, G> terms over a block's row span equal those over
        # all m rows, byte for byte; a block of side 1 keeps every row, since
        # numpy's SIMD dot would group the terms of a sliced span differently
        rng = np.random.default_rng(9)
        for trial in range(120):
            s, m = 1 + trial % 6, int(rng.integers(32, 120))
            lo = 4 * int(rng.integers(0, 6)) + int(rng.integers(1, 4))
            hi = int(rng.integers(lo + 5, m + 1))
            rows = np.r_[lo, hi - 1, rng.choice(np.arange(lo + 1, hi - 1), size=3, replace=False)]
            A = np.zeros((m, s, s))
            for k in rows:
                A[k] = 10.0 ** rng.uniform(-3, 3) * random_sym(rng, s)
            prog = ConicProgram([Block("psd", s)], [A], np.ones(m), [np.eye(s)])
            span = sdp._row_spans(prog, [0])[0]
            assert span == ((0, m) if s == 1 else (lo, hi)), (trial, span)
            (Ad,) = dense_data(prog)
            y, G = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3, size=m), random_sym(rng, s)
            At = np.einsum("kij,k->ij", Ad[slice(*span)], y[slice(*span)])
            assert At.tobytes() == np.einsum("kij,k->ij", Ad, y).tobytes(), trial
            r = np.zeros(m)
            r[slice(*span)] -= np.einsum("kij,ij->k", Ad[slice(*span)], G)
            assert r.tobytes() == (np.zeros(m) - np.einsum("kij,ij->k", Ad, G)).tobytes(), trial

    def test_nonzero_path_agrees_with_reference(self, monkeypatch):
        # a block whose dense span copy exceeds `_SCHUR_CHUNK` floats forms its
        # terms from its nonzeros; with the limit lowered, every block here does,
        # a few rows per chunk.  The eig-assign n = 4 and 5 blocks at r = 3 and
        # random sparse blocks whose spans leave rows out at both ends and hold
        # rows without nonzeros
        from momentsdp.casestudies import build_eig_assign
        from momentsdp.relaxation import build_relaxation

        monkeypatch.setattr(sdp, "_SCHUR_CHUNK", 5000)
        rng = np.random.default_rng(10)
        programs = [build_relaxation(build_eig_assign(n), 3)[0].program for n in (4, 5)]
        for m, s, lo, hi in [(40, 12, 2, 38), (60, 15, 0, 45), (30, 21, 17, 29)]:
            A = np.zeros((m, s, s))
            for k in [lo, hi - 1, *rng.choice(np.arange(lo, hi), size=(hi - lo) // 2)]:
                i, j = rng.integers(0, s, size=2)
                A[k, i, j] = A[k, j, i] = rng.normal()
            programs.append(ConicProgram([Block("psd", s)], [A], np.ones(m), [np.eye(s)]))
        for prog in programs:
            lay = sdp._Layout(prog)
            assert sorted(lay.csr) == lay.psd
            for bi, Ad in zip(lay.psd, dense_data(prog)):
                (lo, hi), s = lay.span[bi], prog.blocks[bi].size
                X, Zinv = random_spd(rng, s, 0.1), np.linalg.inv(random_spd(rng, s, 0.1))
                M0 = rng.normal(size=(prog.m, prog.m))
                M = M0.copy()
                sdp._schur_psd_nonzeros(M[lo:hi, lo:hi], lay.csr[bi], X, Zinv)
                inside = np.zeros(M.shape, dtype=bool)
                inside[lo:hi, lo:hi] = True
                assert M[~inside].tobytes() == M0[~inside].tobytes(), (prog.m, s)
                M_ref = M0.copy()
                reference_schur_psd(M_ref, Ad, X, Zinv)
                assert np.max(np.abs(M - M_ref)) <= 1e-13 * np.max(np.abs(M_ref)), (prog.m, s)

    def test_solves_bit_identical_to_reference_schur(self, monkeypatch):
        from momentsdp.casestudies import build_eig_assign
        from momentsdp.relaxation import build_relaxation

        rng = np.random.default_rng(8)
        programs = [
            (load_problem(os.path.join(FIXTURES, "sqrt2.sdp")).sdp, TIGHT),
            (build_relaxation(build_eig_assign(3), 3)[0].program, SolveOptions(gap_tol=1e-6, feas_tol=1e-6)),
        ] + [
            (mixed_cone_program(rng, n, 2, pfree, m)[0], SolveOptions(gap_tol=1e-9, feas_tol=1e-8))
            for n, pfree, m in [(3, 1, 4), (5, 2, 6), (6, 1, 8)]
        ]
        # every block here is dense (the eig-assign moment matrix: 84 rows of side 20)
        dense = [solve(prog, options) for prog, options in programs]
        monkeypatch.setattr(sdp, "_schur_psd", reference_schur_psd)
        reference = [solve(prog, options) for prog, options in programs]
        for a, b in zip(dense, reference):
            assert a.stats["sparse_schur"] == []
            assert a.status == b.status
            assert a.iterations == b.iterations
            assert np.array_equal(a.y, b.y)
            for Xa, Xb in zip(a.X, b.X):
                assert np.array_equal(Xa, Xb)

    def test_working_set_within_two_dense_copies(self):
        # traced peak of a short eig-assign n = 5, r = 3 solve (m = 462, psd
        # sides 56 and 21, a free block of 372) against the bytes of its data
        # as dense arrays: full (m, s, s) products would need about 4 copies,
        # and a (span, s^2) product buffer per block about 2.4
        import math
        import tracemalloc

        from momentsdp.casestudies import build_eig_assign
        from momentsdp.relaxation import build_relaxation

        prog = build_relaxation(build_eig_assign(5), 3)[0].program
        dense_bytes = sum(8 * prog.m * math.prod(blk.shape) for blk in prog.blocks)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sol = solve(prog, SolveOptions(max_iter=2))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert sol.iterations == 2
        assert peak <= 2 * dense_bytes, peak / dense_bytes


class TestIterationSteps:
    def test_two_iterations_by_hand_equal_solve(self):
        # residuals, Schur, predictor, step search, corrector, step search and
        # move, driven by hand for two iterations, give the bytes `solve` returns
        prog = load_problem(os.path.join(FIXTURES, "sqrt2.sdp")).sdp
        sol = solve(prog, SolveOptions(max_iter=2))
        assert (sol.status, sol.iterations, sol.fallback_used) == ("max_iter", 2, False)
        lay = sdp._Layout(prog)
        assert lay.psd == [0] and not lay.nonneg and not lay.free
        orders = [list(lay.psd), list(lay.psd)]
        pt = lay.start()
        for _ in range(2):
            res = lay.residuals(pt)
            newton = lay.schur(pt, res)
            pred = lay.direction(pt, res, newton)
            d = lay.direction(pt, res, newton, pred, sdp._steps(pt, pred, orders, lay.stats))
            ap, ad = sdp._steps(pt, d, orders, lay.stats)
            pt = pt.moved(d, min(1.0, sdp._STEP_FRACTION * ap), min(1.0, sdp._STEP_FRACTION * ad))
        assert pt.y.tobytes() == sol.y.tobytes()
        assert pt.X[0].tobytes() == sol.X[0].tobytes()
        assert pt.Z[0].tobytes() == sol.Z[0].tobytes()
        res = lay.residuals(pt)
        assert (res.pobj, res.dobj, res.gap, res.pres, res.dres) == (
            sol.primal_obj, sol.dual_obj, sol.gap, sol.primal_residual, sol.dual_residual)
        counts = (*STEP_COUNTS, "factorizations", "regularized")
        assert [lay.stats[k] for k in counts] == [sol.stats[k] for k in counts]


class TestSolveStats:
    KEYS = {"row_spans", "nonzeros", "sparse_schur", "schur_madds", "step_chol_calls", "step_trials",
            "step_batches", "factorizations", "regularized", "free_columns", "factored_side", "seconds"}

    def test_sizes_and_counts(self, monkeypatch):
        prog, _, _ = mixed_cone_program(np.random.default_rng(2), 3, 2, 1, 4)
        trials = []  # matrices per `_chol_ok` call
        chol_ok = sdp._chol_ok
        monkeypatch.setattr(sdp, "_chol_ok",
                            lambda M: trials.append(math.prod(M.shape[:-2])) or chol_ok(M))
        sol = solve(prog, SolveOptions(gap_tol=1e-9, feas_tol=1e-8))
        assert sol.status == "optimal"
        stats = sol.stats
        assert set(stats) == self.KEYS
        assert [(blk.kind, blk.size) for blk in sol.blocks] == [("psd", 3), ("nonneg", 2), ("zero", 1)]
        assert stats["row_spans"] == {0: (0, 4)}
        assert stats["nonzeros"] == {0: len(prog.A[0].vals)}
        assert stats["sparse_schur"] == []
        assert stats["schur_madds"] == 4**2 * 3**2
        assert stats["step_trials"] == sum(trials)
        assert stats["step_batches"] == len(trials)
        assert 0 < stats["step_chol_calls"] <= stats["step_trials"]
        assert stats["step_batches"] <= stats["step_trials"]
        # m = 4 rows and p = 1 free column: one factorization per iteration, of side m - p = 3
        assert (stats["free_columns"], stats["factored_side"]) == (1, 3)
        assert stats["factorizations"] == sol.iterations
        assert stats["regularized"] == 0

    def test_phase_seconds_within_the_solve(self):
        from momentsdp.casestudies import build_eig_assign
        from momentsdp.relaxation import build_relaxation

        prog = build_relaxation(build_eig_assign(3), 3)[0].program
        start = time.perf_counter()
        sol = solve(prog, SolveOptions(gap_tol=1e-6, feas_tol=1e-6))
        wall = time.perf_counter() - start
        seconds = sol.stats["seconds"]
        assert set(seconds) == {"schur", "factor", "direction", "step"}
        assert all(value >= 0.0 for value in seconds.values())
        assert 0.0 < sum(seconds.values()) <= wall

    def test_row_spans_of_a_gmp_program(self):
        from momentsdp.casestudies import build_saturation_cells
        from momentsdp.gmp import build_gmp_relaxation

        prog = build_gmp_relaxation(build_saturation_cells(2).gmp, 2)[0].program
        sol = solve(prog, SolveOptions(max_iter=1))
        spans = sol.stats["row_spans"]
        psd = [bi for bi, blk in enumerate(prog.blocks) if blk.kind == "psd"]
        assert sorted(spans) == psd and len(psd) == 19
        for bi in psd:
            rows = prog.A[bi].rows
            assert spans[bi] == (rows.min(), rows.max() + 1)
        assert {hi - lo for lo, hi in spans.values()} <= set(range(9, 36))
        # the GEMM multiply-adds of one Schur formation over the spans, against those over all m rows
        sides = {bi: prog.blocks[bi].size for bi in psd}
        madds = sum((hi - lo) ** 2 * sides[bi] ** 2 for bi, (lo, hi) in spans.items())
        assert sol.stats["schur_madds"] == madds == 510_183
        assert sum(prog.m ** 2 * s ** 2 for s in sides.values()) == 10_224_225

    def test_nonzero_path_of_eig_assign(self):
        # eig-assign n = 4 at r = 3 (m = 210): the side-35 moment block's dense
        # span copy, 210 * 35^2 floats, exceeds `_SCHUR_CHUNK`, so it forms its
        # terms from its 1,225 nonzeros; the side-15 localizer's, 210 * 15^2 =
        # 47,250 floats, does not, so it keeps the dense GEMM
        from momentsdp.casestudies import build_eig_assign
        from momentsdp.relaxation import build_relaxation

        prog = build_relaxation(build_eig_assign(4), 3)[0].program
        sol = solve(prog, SolveOptions(max_iter=1))
        stats = sol.stats
        assert 210 * 15**2 <= sdp._SCHUR_CHUNK < 210 * 35**2
        assert stats["row_spans"] == {0: (0, 210), 1: (0, 210)}
        assert stats["nonzeros"] == {0: 1225, 1: 1125}
        assert stats["sparse_schur"] == [0]
        assert stats["schur_madds"] == 1225 * (35**2 + 210) + 210**2 * 15**2 == 11_680_375

    def test_no_nonzero_path_on_the_planar_shadow(self, monkeypatch):
        # every block of the planar shadow program at r = 2 fits one chunk
        from momentsdp import spectra
        from momentsdp.casestudies import build_polyopt

        sols = []

        def record(prog, options):
            sols.append((prog, solve(prog, options)))
            return sols[-1][1]

        monkeypatch.setattr(spectra, "solve", record)
        spectra.shadow_support_points(build_polyopt().feasible_set, 2, spectra.unit_directions(4))
        assert len(sols) == 4
        for prog, sol in sols:
            psd = [bi for bi, blk in enumerate(prog.blocks) if blk.kind == "psd"]
            assert sol.stats["nonzeros"] == {bi: len(prog.A[bi].vals) for bi in psd}
            assert sol.stats["sparse_schur"] == []
            spans, sides = sol.stats["row_spans"], {bi: prog.blocks[bi].size for bi in psd}
            assert sol.stats["schur_madds"] == sum((hi - lo) ** 2 * sides[bi] ** 2
                                                   for bi, (lo, hi) in spans.items())

    def test_regularized_counts_the_fallback(self, monkeypatch):
        # the first Schur factorization fails once, as a singular M would
        failed = []
        cho_factor = sdp.cho_factor

        def flaky(a):
            if a.shape == (1, 1) and not failed:
                failed.append(a)
                raise np.linalg.LinAlgError("1-th leading minor of the array is not positive definite")
            return cho_factor(a)

        monkeypatch.setattr(sdp, "cho_factor", flaky)
        sol = solve(sqrt2_program(), TIGHT)
        assert sol.status == "optimal" and len(failed) == 1
        assert sol.stats["regularized"] == 1
        assert sol.stats["factorizations"] == sol.iterations


class TestFallback:
    def test_flag_marks_a_returned_earlier_iterate(self, monkeypatch):
        # planar benchmark shadow at r = 2, default tolerance: direction 0
        # converges; saturation3.gmp at r = 3 and the CLI's tolerance 1e-6 ends
        # in max_iter on an earlier, better iterate
        from momentsdp import spectra
        from momentsdp.casestudies import build_polyopt
        from momentsdp.gmp import build_gmp_relaxation

        sols = []

        def record(prog, options):
            sols.append(sdp.solve(prog, options))
            return sols[-1]

        monkeypatch.setattr(spectra, "solve", record)
        spectra.shadow_support_points(build_polyopt().feasible_set, 2, spectra.unit_directions(64)[:1])
        (converged,) = sols
        assert converged.status == "optimal" and not converged.fallback_used
        last = converged.trace[-1]
        assert (converged.primal_residual, converged.dual_residual) == (last["pres"], last["dres"])
        gmp, _ = load_problem(os.path.join(FIXTURES, "saturation3.gmp")).gmp.instantiate(3)
        prog = build_gmp_relaxation(gmp, 3)[0].program
        fell_back = solve(prog, SolveOptions(gap_tol=1e-6, feas_tol=1e-6))
        assert fell_back.status == "max_iter" and fell_back.fallback_used
        last = fell_back.trace[-1]
        merit = lambda pres, dres, pobj, dobj: max(pres, dres, abs(pobj - dobj) / (1.0 + abs(dobj)))
        assert merit(
            fell_back.primal_residual, fell_back.dual_residual, fell_back.primal_obj, fell_back.dual_obj
        ) < merit(last["pres"], last["dres"], last["pobj"], last["dobj"])
