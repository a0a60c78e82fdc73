import itertools
import math
import os
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from momentsdp import sdp
from momentsdp.problemfile import (
    ProblemFileError,
    load_problem,
    parse_problem_text,
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


def iterates_by_hand(lay, iterations: int):
    """(point, residuals) of `solve`'s iterates 0..iterations on the layout ``lay``, batches of its
    one right-hand side: residuals, Schur, predictor, step search, corrector, step search and
    move, each called by hand."""
    pt = lay.start([0])
    for it in range(iterations + 1):
        res = lay.residuals(pt)
        yield pt, res
        if it == iterations:
            return
        newton = lay.schur(pt, res)
        pred = lay.direction(pt, res, newton)
        d = lay.direction(pt, res, newton, pred, lay.steps(pt, pred, newton[3]))
        (ap,), (ad,) = lay.steps(pt, d, newton[3])
        pt = lay.moved(pt, d, min(1.0, sdp._STEP_FRACTION * ap), min(1.0, sdp._STEP_FRACTION * ad))


def first_row(batch):
    """The first row of a batch of iterates or of residuals, without the batch axis."""
    values = vars(batch).values() if isinstance(batch, sdp._Point) else batch
    return type(batch)(*(v[0] for v in values))


def dense_data(prog: ConicProgram) -> list[np.ndarray]:
    """Dense (m, s, s) / (m, s) copies of every block's constraint data, over all rows."""
    return [sdp._stacked_data(prog, [bi]).reshape(prog.m, *blk.shape) for bi, blk in enumerate(prog.blocks)]


def agree(got, want, *terms):
    """got equals want within 1e-13 of the largest of want and the terms summed into it."""
    bound = 1e-13 * max(float(np.max(np.abs(t), initial=0.0)) for t in (want, *terms))
    assert got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) <= bound


def check_joint_products(rng, lay, prog: ConicProgram, dense: list[np.ndarray]) -> None:
    """The layout's joint products A(V) and A^T y, and the residuals of a random point (a batch of
    one), against np.einsum over the dense data of every row, each within 1e-13 of the largest
    dense term."""
    V, y = rng.normal(size=lay.N), rng.normal(size=prog.m)
    terms = [np.einsum("kij,ij->k", dense[bi], G) for bi, G in zip(lay.psd, lay.blocks(V))]
    agree(lay.apply(V[None])[0], sum(terms, np.zeros(prog.m)), *terms)
    for bi, Aty in zip(lay.psd, lay.blocks(lay.adjoint(y[None])[0])):
        agree(Aty, np.einsum("kij,k->ij", dense[bi], y))
    n_l, p = lay.Al.shape[1], lay.F.shape[1]

    def spd():
        return np.concatenate([np.zeros(0), *(random_spd(rng, s).ravel() for s, _ in lay.cuts)])

    batch = sdp._Point(spd()[None], spd()[None], rng.random((1, n_l)), rng.random((1, n_l)),
                       rng.normal(size=(1, p)), rng.normal(size=(1, prog.m)), np.arange(1))
    res = first_row(lay.residuals(batch))
    pt = first_row(batch)
    terms = [np.einsum("kij,ij->k", dense[bi], X) for bi, X in zip(lay.psd, lay.blocks(pt.X))]
    Al_x, F_x = lay.Al @ pt.xl, lay.F @ pt.xf
    agree(res.rp, prog.b - sum(terms, np.zeros(prog.m)) - Al_x - F_x, prog.b, Al_x, F_x, *terms)
    for bi, Rd, Z in zip(lay.psd, lay.blocks(res.Rd), lay.blocks(pt.Z)):
        Aty = np.einsum("kij,k->ij", dense[bi], pt.y)
        agree(Rd, prog.C[bi] - Aty - Z, prog.C[bi], Aty, Z)


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


def feasible_program(rng, blocks: list[Block], m: int, spans: dict | None = None) -> ConicProgram:
    # data for any list of blocks, built from a strictly feasible primal-dual
    # pair with zero dual slack on the zero blocks; block bi's data is zero
    # outside the rows [lo, hi) of spans[bi], where given
    y0 = rng.normal(size=m)
    A, C, b = [], [], np.zeros(m)
    for bi, blk in enumerate(blocks):
        n = blk.size
        if blk.kind == "psd":
            T = rng.normal(size=(m, n, n))
            Ab = T + T.transpose(0, 2, 1)
            X0, Z0 = random_spd(rng, n, 0.4), random_spd(rng, n, 0.4)
        else:
            Ab = rng.normal(size=(m, n))
            X0 = rng.uniform(0.3, 1.5, size=n) if blk.kind == "nonneg" else rng.normal(size=n)
            Z0 = rng.uniform(0.3, 1.5, size=n) if blk.kind == "nonneg" else np.zeros(n)
        if spans and bi in spans:
            lo, hi = spans[bi]
            Ab[:lo] = Ab[hi:] = 0.0
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
        # <E11, X> = -1 with X >= 0 is primal infeasible (dual unbounded); with no
        # certificate of that, the solve stops at the barrier's floor short of the tolerances
        prog = ConicProgram(
            blocks=[Block("psd", 2)],
            A=[np.array([[[1.0, 0.0], [0.0, 0.0]]])],
            b=np.array([-1.0]),
            C=[np.eye(2)],
        )
        sol = solve(prog)
        assert sol.status == "max_iter"

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
        fact = sdp._Factorization(M[None], T, Q2)  # a batch of one system
        for _ in range(3):
            h, rf = rng.normal(size=m), rng.normal(size=p)
            (dy,), (dxf,) = fact.solve(h[None], rf[None])
            dy_ref, dxf_ref = reference_kkt_solve(M, F, h, rf)
            scale = 1.0 + np.abs(np.concatenate([dy_ref, dxf_ref])).max()
            assert np.abs(dy - dy_ref).max() <= 1e-10 * scale
            assert np.abs(dxf - dxf_ref).max(initial=0.0) <= 1e-10 * scale
            assert np.abs(F.T @ dy - rf).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(rf).max(initial=0.0))
        # one inverse factor of side m - p, empty once the null space is
        assert fact.failed == [] and fact.W.shape == (1, m - p, m - p)

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

    def _objective_programs(self):
        """The 8 programs of `test_recovers_objective_between_feasible_values`, with their (X0, y0)."""
        rng = np.random.default_rng(21)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n * (n + 1) // 2 + 1))
            yield self._random_feasible(rng, n, m)

    def test_recovers_objective_between_feasible_values(self):
        for prog, X0, y0 in self._objective_programs():
            sol = solve(prog, SolveOptions(gap_tol=1e-10, feas_tol=1e-9))
            assert sol.status == "optimal"
            lo = float(prog.b @ y0)
            hi = float(np.sum(prog.C[0] * X0))
            assert lo - 1e-6 <= sol.dual_obj <= hi + 1e-6
            assert abs(sol.primal_obj - sol.dual_obj) <= 1e-8 * (1 + abs(sol.dual_obj))

    def test_optimal_under_one_ulp_schur_perturbations(self, monkeypatch):
        # every Schur complement M is perturbed to M (1 + eps N(0, 1)), symmetrized, as another
        # BLAS's summation order might round it: each program still ends optimal, under 4 seeds
        factorization = sdp._Factorization
        eps = np.finfo(float).eps
        for seed in range(4):
            noise = np.random.default_rng(seed)

            def perturbed(M, *args):  # M: a batch of one Schur complement
                P = M * (1.0 + eps * noise.normal(size=M.shape))
                return factorization(0.5 * (P + P.swapaxes(-1, -2)), *args)

            monkeypatch.setattr(sdp, "_Factorization", perturbed)
            for k, (prog, _, _) in enumerate(self._objective_programs()):
                sol = solve(prog, SolveOptions(gap_tol=1e-10, feas_tol=1e-9))
                assert sol.status == "optimal", (seed, k, sol.status)

    def test_weak_duality_along_iterates(self):
        # pobj - dobj = <X,Z> + <X,Rd> - y'r_p and <X,Z> >= 0, so at every iterate
        # pobj - dobj >= <X,Rd> - y'r_p, up to the rounding of the sums, bounded here
        # by a multiple of eps times the sums of the terms' magnitudes
        eps = np.finfo(float).eps
        for seed in range(40):
            prog, _, _ = self._random_feasible(np.random.default_rng(seed), 4, 5)
            sol = solve(prog, SolveOptions(gap_tol=1e-11, feas_tol=1e-10))
            (A,) = dense_data(prog)
            C, b = prog.C[0], prog.b
            lay = sdp._Layout(prog)
            for it, (batch, ress) in enumerate(iterates_by_hand(lay, sol.iterations)):
                pt, res = first_row(batch), first_row(ress)
                (X,), (Z,), (Rd,), y = lay.blocks(pt.X), lay.blocks(pt.Z), lay.blocks(res.Rd), pt.y
                slack = res.pobj - res.dobj - (float(np.sum(X * Rd)) - float(y @ res.rp))
                size = (np.sum(np.abs(C * X)) + np.abs(b) @ np.abs(y) + np.sum(np.abs(X * Z))
                        + np.abs(y) @ np.einsum("kij,ij->k", np.abs(A), np.abs(X)))
                assert slack >= -64 * eps * size, (seed, it, slack, size)
            assert pt.y.tobytes() == sol.y.tobytes(), seed

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
        text = """kind: sdp
[blocks]
psd 2
nonneg 2
zero 1
[b]
1.0 0.25
[C]
1 1 1 0.5
1 2 2 1.0
2 2 2 1.0
3 1 1 2.0
[A 1]
1 1 2 -0.5
2 1 1 1.0
3 1 1 0.5
[A 2]
1 1 1 1.0
1 2 2 2.0
2 2 2 3.0
"""
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
        path = tmp_path / "prog.sdp"
        path.write_text("kind: sdp\n[blocks]\npsd 2\n[b]\n1\n[C]\n1 1 1 1/2\n1 2 2 1\n[A 1]\n1 1 2 -1/2\n")
        back = load_problem(str(path)).sdp
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

    def test_span_data_is_rows_of_the_full_data(self):
        # each psd block's dense copy over its row span is those rows of its data over all m rows
        from momentsdp.casestudies import build_saturation_cells
        from momentsdp.gmp import build_gmp_relaxation

        prog = build_gmp_relaxation(build_saturation_cells(2).gmp, 2)[0].program
        spans = sdp._row_spans(prog, [bi for bi, blk in enumerate(prog.blocks) if blk.kind == "psd"])
        assert len(spans) == 19 and any(hi - lo < prog.m for lo, hi in spans.values())
        for bi, (lo, hi) in spans.items():
            full = sdp._stacked_data(prog, [bi])
            assert np.array_equal(sdp._stacked_data(prog, [bi], (lo, hi)), full[lo:hi])
            assert not full[:lo].any() and not full[hi:].any()

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


class TestFactorHelpers:
    def stacks(self, rng, n: int) -> np.ndarray:
        """A (2, 3, n, n) stack of positive definite matrices with one indefinite among them."""
        S = np.array([random_spd(rng, n) for _ in range(6)]).reshape(2, 3, n, n)
        S[1, 0] = random_sym(rng, n) - 2.0 * n * np.eye(n)
        return S

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 21, 32, 33, 64, 65, 100, 258])
    def test_a_stack_gives_each_matrix_the_bytes_it_gets_alone(self, n):
        S = self.stacks(np.random.default_rng(n), n)
        S0 = S.copy()
        L, failed = sdp._cholesky(S)
        W = sdp._tril_inverse(L)
        assert failed.tolist() == [[False] * 3, [True, False, False]]
        assert np.isnan(L[1, 0]).all() and np.isnan(W[1, 0][np.tril_indices(n)]).all()
        for idx in np.ndindex(2, 3):
            L1, failed1 = sdp._cholesky(S[idx])
            assert L1.tobytes() == L[idx].tobytes() and bool(failed1) == failed[idx], idx
            assert sdp._tril_inverse(L1).tobytes() == W[idx].tobytes(), idx
        assert S.tobytes() == S0.tobytes()

    @pytest.mark.parametrize("n", [*range(1, 65), 300])
    def test_agrees_with_lapack_within_rounding(self, n):
        # dpotrf's factor and dtrtri's inverse of it; side 300 recurses three levels below a
        # side-256 block and beside one of 44
        rng = np.random.default_rng(n)
        M = random_spd(rng, n, float(n))
        L, failed = sdp._cholesky(M)
        c, info = scipy.linalg.lapack.dpotrf(M, lower=1, clean=1)
        assert not failed and info == 0
        assert np.all(np.triu(L, 1) == 0.0) and np.abs(L - c).max() <= 1e-14 * np.abs(c).max()
        W = sdp._tril_inverse(L)
        W_ref, info = scipy.linalg.lapack.dtrtri(L, lower=1)
        assert info == 0 and np.all(np.triu(W, 1) == 0.0)
        assert np.abs(W - W_ref).max() <= 1e-13 * np.abs(W_ref).max()
        assert np.abs(W @ L - np.eye(n)).max() <= 1e-13

    def test_failure_mask_is_where_numpy_cholesky_raises(self):
        # sides 1..12 shifted to within 1e-13 * ||M|| of singular, so that rounding decides some
        # of the outcomes, one matrix at a time and stacked by side
        rng = np.random.default_rng(12)
        trials, expected = [], []
        for trial in range(600):
            n = 1 + trial % 12
            M = random_spd(rng, n) if trial % 2 else random_sym(rng, n)
            shift = rng.uniform(-1e-13, 1e-13) * np.linalg.norm(M, 2) - np.linalg.eigvalsh(M)[0]
            M = M + shift * np.eye(n)
            trials.append(M)
            expected.append(not _cholesky_succeeds(M))
            M0 = M.copy()
            assert bool(sdp._cholesky(M)[1]) == expected[-1], trial
            assert M.tobytes() == M0.tobytes()
        assert 50 < sum(expected) < 550
        for n in range(1, 13):
            _, failed = sdp._cholesky(np.array(trials[n - 1::12]))
            assert failed.tolist() == expected[n - 1::12], n


def max_step(X: np.ndarray, D: np.ndarray) -> float:
    """The solver's step for one pair: `_psd_steps` of the inverse factor of X that `_Layout.schur`
    takes, or `_unfactored_step` where X does not factor."""
    L, failed = sdp._cholesky(X)
    if failed:
        return sdp._unfactored_step(X, D)
    return float(sdp._psd_steps(sdp._tril_inverse(L), D))


def cholesky_failing_on(target: bytes):
    """`sdp._cholesky` that fails on each matrix of its stack whose bytes are ``target``, as a
    matrix that does not factor fails: with a NaN factor and its mask set."""
    cholesky = sdp._cholesky

    def failing(S):
        L, failed = cholesky(S)
        failed = np.array(failed)
        for idx in np.ndindex(failed.shape):
            if S[idx].tobytes() == target:
                L[idx], failed[idx] = np.nan, True
        return L, failed

    return failing


class TestStepLength:
    def pairs(self):
        """The random (X, D) of sides 1..8 and, of X of condition up to 1e12, of sides 1..18."""
        rng = np.random.default_rng(1)
        pairs = []
        for trial in range(400):
            n = 1 + trial % 8
            T = rng.normal(size=(n, n))
            S = rng.normal(size=(n, n))
            pairs.append((T @ T.T + 1e-3 * np.eye(n), rng.uniform(0.1, 10.0) * (S + S.T)))
        rng = np.random.default_rng(14)
        for trial in range(108):
            n = 1 + trial % 18
            Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            X = (Q * np.geomspace(1.0, 10.0 ** -rng.uniform(0.0, 12.0), n)) @ Q.T
            pairs.append((0.5 * (X + X.T), 10.0 ** rng.uniform(-3.0, 1.0) * random_sym(rng, n)))
        return pairs

    def test_max_step_matches_reference_within_rounding(self):
        # the exact step is within 1e-6 of the bisection's, relative, or within that bisection's
        # 2^-40, one pair at a time and stacked by side
        pairs = self.pairs()
        interior = 0
        for trial, (X, D) in enumerate(pairs):
            ref = reference_max_step_psd(X, D)
            interior += ref < 1.0
            assert max_step(X, D) == pytest.approx(ref, rel=1e-6, abs=2.0**-40), trial
        assert 200 < interior < len(pairs) - 20, interior
        for n in range(1, 19):
            trials = [t for t, (X, _) in enumerate(pairs) if len(X) == n]
            factors = []
            for t in trials:
                L, failed = sdp._cholesky(pairs[t][0])
                assert not failed, t
                factors.append(sdp._tril_inverse(L))
            stacked = sdp._psd_steps(np.array(factors), np.array([pairs[t][1] for t in trials]))
            for t, L, step in zip(trials, factors, stacked):
                assert step == pytest.approx(reference_max_step_psd(*pairs[t]), rel=1e-6, abs=2.0**-40), t
                assert step.tobytes() == sdp._psd_steps(L, pairs[t][1]).tobytes(), t  # the bytes it gets alone

    def test_x_that_does_not_factor(self):
        # a point a rounding outside the cone, or on its boundary: the step is 1 where X + D
        # factors and 0 where it does not
        for X in (np.diag([1.0, -1e-18]), np.diag([1.0, 0.0]), -np.eye(2)):
            assert scipy.linalg.lapack.dpotrf(X, lower=1)[1] > 0
            assert max_step(X, 2.0 * np.eye(2)) == 1.0
            assert max_step(X, np.diag([0.0, -1.0])) == 0.0
        assert max_step(np.eye(2), np.eye(2)) == 1.0  # no boundary
        assert max_step(np.eye(2), -4.0 * np.eye(2)) == 0.25

    def test_failed_factorizations_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(sqrt2_program(), TIGHT)
            assert max_step(-np.eye(2), np.eye(2)) == 0.0
        assert sol.status == "optimal"


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
            sdp._schur_psd(M[None], A, X[None], Zinv[None])
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
            sdp._schur_psd(M[None, lo:hi, lo:hi], A[lo:hi], X[None], Zinv[None])
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
            assert lay.dense[0].tobytes() == A.tobytes()
            X, Zinv = random_spd(rng, s, 0.1), np.linalg.inv(random_spd(rng, s, 0.1))
            M0 = rng.normal(size=(m, m))
            M = M0.copy()
            sdp._schur_psd(M[None, 0:m, 0:m], lay.dense[0], X[None], Zinv[None])
            M_ref = M0.copy()
            reference_schur_psd(M_ref, A, X, Zinv)
            assert M.tobytes() == M_ref.tobytes(), (m, s)

    def test_nonzero_path_agrees_with_reference(self, monkeypatch):
        # a block whose dense span copy would exceed `_SCHUR_CHUNK` floats forms
        # its Schur terms from its nonzeros and gets no dense copy; with the limit
        # lowered, every block here does, a few rows per chunk.  The eig-assign
        # n = 4 and 5 blocks at r = 3 and random sparse blocks whose spans leave
        # rows out at both ends and hold rows without nonzeros.  The Schur terms
        # are checked against the dense formation, and the residual (rp, Rd),
        # right-hand side (h) and A^T dy terms against np.einsum over the dense
        # data of every row, each within 1e-13 of the largest dense term;
        # `direction` forms h and A^T dy by the products `apply` and `adjoint`
        # that `residuals` uses
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
            assert sorted(lay.csr) == sorted(lay.psd) and lay.dense == {}
            dense = dense_data(prog)
            for bi in lay.psd:
                (lo, hi), s = lay.span[bi], prog.blocks[bi].size
                X, Zinv = random_spd(rng, s, 0.1), np.linalg.inv(random_spd(rng, s, 0.1))
                M0 = rng.normal(size=(prog.m, prog.m))
                M = M0.copy()
                sdp._schur_psd_nonzeros(M[lo:hi, lo:hi], lay.csr[bi], X, Zinv)
                inside = np.zeros(M.shape, dtype=bool)
                inside[lo:hi, lo:hi] = True
                assert M[~inside].tobytes() == M0[~inside].tobytes(), (prog.m, s)
                M_ref = M0.copy()
                reference_schur_psd(M_ref, dense[bi], X, Zinv)
                assert np.max(np.abs(M - M_ref)) <= 1e-13 * np.max(np.abs(M_ref)), (prog.m, s)
            check_joint_products(rng, lay, prog, dense)

    def test_nonzero_chunk_leaves_the_bits(self, monkeypatch):
        # `_schur_psd_nonzeros` forms max(16, `_SCHUR_CHUNK` // s^2) rows of
        # products per chunk; each column of M sums the same terms in the same
        # order whatever the chunk, so M's bytes are those of one chunk of all
        # rows.  Side 21 and 70 rows: chunks of 70, 16 (the floor) and 45 rows
        rng = np.random.default_rng(11)
        m, s = 70, 21
        A = np.zeros((m, s, s))
        for k in range(m):
            for i, j in rng.integers(0, s, size=(6, 2)):
                A[k, i, j] = A[k, j, i] = rng.normal()
        prog = ConicProgram([Block("psd", s)], [A], np.ones(m), [np.eye(s)])
        csr = sdp._span_csr(prog, 0, (0, m))
        X, Zinv = random_spd(rng, s, 0.1), np.linalg.inv(random_spd(rng, s, 0.1))
        M0 = rng.normal(size=(m, m))
        formed = []
        for chunk in (m * s * s, 1, 45 * s * s):
            monkeypatch.setattr(sdp, "_SCHUR_CHUNK", chunk)
            M = M0.copy()
            sdp._schur_psd_nonzeros(M, csr, X, Zinv)
            formed.append(M.tobytes())
        assert formed[1] == formed[0] and formed[2] == formed[0]

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

    def test_working_set_within_one_dense_copy(self):
        # traced peak of a short eig-assign n = 5, r = 3 solve (m = 462, psd
        # sides 56 and 21, a free block of 372) against the bytes of its data
        # as dense arrays: full (m, s, s) products would need about 4 copies,
        # and a (span, s^2) product buffer per block about 2.4.  Both psd
        # blocks form every term from their nonzeros and have no dense copy
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
        assert sol.stats["sparse_schur"] == [0, 1]
        assert peak <= dense_bytes, peak / dense_bytes


class TestFlatLayout:
    # psd sides 3, 5, 1, 3, 5 in declared order among nonneg and zero blocks,
    # and a side-2 psd block without rows; spans that leave rows out
    BLOCKS = [Block("psd", 3), Block("nonneg", 2), Block("psd", 5), Block("psd", 1), Block("zero", 1),
              Block("psd", 3), Block("psd", 2), Block("psd", 5), Block("nonneg", 1)]
    SPANS = {0: (1, 7), 3: (2, 6), 5: (0, 4), 6: (0, 0)}

    def program(self) -> ConicProgram:
        return feasible_program(np.random.default_rng(12), self.BLOCKS, 8, self.SPANS)

    def test_cells_runs_and_joint_products(self):
        # blocks ordered by side, declared order within a side; each run of
        # equal sides one stack; the gather transposes every block; a block
        # of side 1 spans its first to last row, one without rows spans none
        prog = self.program()
        lay = sdp._Layout(prog)
        assert lay.psd == [3, 6, 0, 5, 2, 7]
        assert lay.N == 1 + 4 + 9 + 9 + 25 + 25
        assert lay.runs == [(1, 0, 1), (2, 1, 5), (3, 5, 23), (5, 23, 73)]
        assert lay.span[3] == (2, 6) and lay.span[6] == (0, 0) and lay.span[2] == (0, 8)
        V = np.random.default_rng(0).normal(size=lay.N)
        for B, Bt in zip(lay.blocks(V), lay.blocks(V[lay.tperm])):
            assert np.array_equal(Bt, B.T)
        for B, S in zip(lay.blocks(V), lay.blocks(lay.sym(V))):
            assert np.array_equal(S, S.T) and np.array_equal(S, 0.5 * (B + B.T))
        check_joint_products(np.random.default_rng(1), lay, prog, dense_data(prog))

    def test_products_bit_equal_to_joint_csr(self):
        # A(V) and A^T y sum each row and each cell in the order of scipy's CSR
        # and CSC products over the joint (m, N) array of the psd blocks by
        # side: on the mixed program, an eig-assign relaxation, a program with
        # no psd block (N = 0) and one with a psd block no constraint touches.
        # The layout keeps no sparse array but the span data of ``csr``
        from momentsdp.casestudies import build_eig_assign
        from momentsdp.relaxation import build_relaxation

        rng = np.random.default_rng(13)
        programs = [self.program(), build_relaxation(build_eig_assign(3), 3)[0].program,
                    feasible_program(rng, [Block("nonneg", 3), Block("zero", 1)], 4),
                    feasible_program(rng, [Block("psd", 2), Block("psd", 3), Block("nonneg", 2)], 5, {0: (0, 0)})]
        for prog in programs:
            lay = sdp._Layout(prog)
            A = scipy.sparse.hstack([scipy.sparse.csr_array((prog.m, 0)),
                                     *(sdp._span_csr(prog, bi, (0, prog.m)) for bi in lay.psd)], format="csr")
            V, y = rng.normal(size=lay.N), rng.normal(size=prog.m)
            # a batch of one row
            assert lay.apply(V[None]).shape == (1, prog.m) and np.array_equal(lay.apply(V[None])[0], A @ V)
            assert lay.adjoint(y[None]).shape == (1, lay.N) and np.array_equal(lay.adjoint(y[None])[0], A.T @ y)
            held = {name: value.values() if isinstance(value, dict) else value if isinstance(value, list)
                    else [value] for name, value in vars(lay).items()}
            assert {name for name, values in held.items() if any(map(scipy.sparse.issparse, values))} <= {"csr"}
        assert programs[2].m == 4 and sdp._Layout(programs[2]).N == 0

    def test_schur_bit_equal_to_explicit_formation(self):
        # `schur` adds the nonneg term only where there are nonneg entries and
        # symmetrizes in place: M has the bytes of the explicit term
        # (Al diag(xl / zl)) Al^T and of 0.5 (M + M^T), with nonneg entries
        # (the mixed program) and without (an eig-assign relaxation)
        from momentsdp.casestudies import build_eig_assign
        from momentsdp.relaxation import build_relaxation

        for prog in (self.program(), build_relaxation(build_eig_assign(3), 3)[0].program):
            lay = sdp._Layout(prog)
            *_, (batch, res) = iterates_by_hand(lay, 2)
            Zinv, _, fact, _ = lay.schur(batch, res)
            pt = first_row(batch)
            M = np.zeros((prog.m, prog.m))
            for bi, X, Zi in zip(lay.psd, lay.blocks(pt.X), lay.blocks(Zinv[0])):
                lo, hi = lay.span[bi]
                if bi in lay.csr:
                    sdp._schur_psd_nonzeros(M[lo:hi, lo:hi], lay.csr[bi], X, Zi)
                else:
                    sdp._schur_psd(M[None, lo:hi, lo:hi], lay.dense[bi], X[None], Zi[None])
            M += (lay.Al * (pt.xl / pt.zl)) @ lay.Al.T
            M = 0.5 * (M + M.T)
            assert fact.M.tobytes() == M.tobytes(), lay.Al.shape[1]

    def test_declared_order_returned_and_permutation_invariant(self):
        prog = self.program()
        options = SolveOptions(gap_tol=1e-9, feas_tol=1e-9)
        sol = solve(prog, options)
        assert sol.status == "optimal"
        for blk, X, Z in zip(self.BLOCKS, sol.X, sol.Z):
            assert X.shape == Z.shape == blk.shape
            if blk.kind == "psd":
                assert np.array_equal(X, X.T) and np.array_equal(Z, Z.T)
        order = [7, 4, 3, 0, 8, 6, 2, 1, 5]
        permuted = ConicProgram([prog.blocks[bi] for bi in order], [prog.A[bi] for bi in order], prog.b,
                                [prog.C[bi] for bi in order])
        ref = solve(permuted, options)
        assert ref.status == sol.status
        assert abs(sol.dual_obj - ref.dual_obj) <= options.gap_tol * (1.0 + abs(ref.dual_obj))


class TestIterationSteps:
    def test_two_iterations_by_hand_equal_solve(self):
        # the phases driven by hand for two iterations give the bytes `solve` returns
        prog = load_problem(os.path.join(FIXTURES, "sqrt2.sdp")).sdp
        sol = solve(prog, SolveOptions(max_iter=2))
        assert (sol.status, sol.iterations) == ("max_iter", 2)
        lay = sdp._Layout(prog)
        assert lay.psd == [0] and not lay.nonneg and not lay.free
        *_, (batch, ress) = iterates_by_hand(lay, 2)
        pt, res = first_row(batch), first_row(ress)
        assert pt.y.tobytes() == sol.y.tobytes()
        assert lay.blocks(pt.X)[0].tobytes() == sol.X[0].tobytes()
        assert lay.blocks(pt.Z)[0].tobytes() == sol.Z[0].tobytes()
        assert (res.pobj, res.dobj, res.gap, res.pres, res.dres) == (
            sol.primal_obj, sol.dual_obj, sol.gap, sol.primal_residual, sol.dual_residual)
        assert lay.stats["factorizations"] == [sol.stats["factorizations"]]


class TestSolveStats:
    KEYS = {"row_spans", "nonzeros", "sparse_schur", "schur_madds", "factorizations", "free_columns",
            "factored_side", "seconds"}

    def test_sizes_and_counts(self):
        prog, _, _ = mixed_cone_program(np.random.default_rng(2), 3, 2, 1, 4)
        sol = solve(prog, SolveOptions(gap_tol=1e-9, feas_tol=1e-8))
        assert sol.status == "optimal"
        stats = sol.stats
        assert set(stats) == self.KEYS
        assert [(blk.kind, blk.size) for blk in sol.blocks] == [("psd", 3), ("nonneg", 2), ("zero", 1)]
        assert stats["row_spans"] == {0: (0, 4)}
        assert stats["nonzeros"] == {0: len(prog.A[0].vals)}
        assert stats["sparse_schur"] == []
        assert stats["schur_madds"] == 4**2 * 3**2
        # m = 4 rows and p = 1 free column: one factorization per iteration, of side m - p = 3
        assert (stats["free_columns"], stats["factored_side"]) == (1, 3)
        assert stats["factorizations"] == sol.iterations

    def test_phase_seconds_within_the_solve(self):
        from momentsdp.casestudies import build_eig_assign
        from momentsdp.relaxation import build_relaxation

        prog = build_relaxation(build_eig_assign(3), 3)[0].program
        start = time.perf_counter()
        sol = solve(prog, SolveOptions(gap_tol=1e-6, feas_tol=1e-6))
        wall = time.perf_counter() - start
        seconds = sol.stats["seconds"]
        assert set(seconds) == {"layout", "residuals", "schur", "factor", "direction", "step"}
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

        def record(prog, objectives, options):
            batch = sdp.solve_batch(prog, objectives, options)
            sols.extend((prog, sol) for sol in batch)
            return batch

        monkeypatch.setattr(spectra, "solve_batch", record)
        spectra.shadow_support_points(build_polyopt().feasible_set, 2, spectra.unit_directions(4))
        assert len(sols) == 4
        for prog, sol in sols:
            psd = [bi for bi, blk in enumerate(prog.blocks) if blk.kind == "psd"]
            assert sol.stats["nonzeros"] == {bi: len(prog.A[bi].vals) for bi in psd}
            assert sol.stats["sparse_schur"] == []
            spans, sides = sol.stats["row_spans"], {bi: prog.blocks[bi].size for bi in psd}
            assert sol.stats["schur_madds"] == sum((hi - lo) ** 2 * sides[bi] ** 2
                                                   for bi, (lo, hi) in spans.items())

    def test_failed_factorization_ends_the_solve(self, monkeypatch):
        # the Schur factorization of iteration k fails, as a singular M would: the solve
        # ends `numerical_failure` after k iterations on iterate k, with its residuals
        k = 3
        ref = solve(sqrt2_program(), SolveOptions(max_iter=k))
        assert ref.status == "max_iter"
        calls = []
        cholesky = sdp._cholesky

        def failing(S):
            if S.shape[-2:] == (1, 1):  # M; Z is 2 x 2
                if len(calls) == k:
                    return np.full(S.shape, np.nan), np.ones(S.shape[:-2], dtype=bool)
                calls.append(S)
            return cholesky(S)

        monkeypatch.setattr(sdp, "_cholesky", failing)
        sol = solve(sqrt2_program(), TIGHT)
        assert (sol.status, sol.iterations, sol.stats["factorizations"]) == ("numerical_failure", k, k + 1)
        last = sol.trace[-1]
        assert (sol.primal_residual, sol.dual_residual, sol.primal_obj, sol.dual_obj) == (
            last["pres"], last["dres"], last["pobj"], last["dobj"])
        assert sol.y.tobytes() == ref.y.tobytes()
        assert sol.X[0].tobytes() == ref.X[0].tobytes() and sol.Z[0].tobytes() == ref.Z[0].tobytes()

    def test_non_finite_iterate_is_not_returned(self, monkeypatch):
        # the step of iteration k lands on a NaN point once: the solve ends
        # `numerical_failure` on iterate k, the one before, with its residuals
        k = 3
        ref = solve(sqrt2_program(), SolveOptions(max_iter=k))
        moves = []
        moved = sdp._Layout.moved

        def once_nan(self, pt, d, ap, ad):
            moves.append(None)
            if len(moves) == k + 1:
                ap = ad = math.nan
            return moved(self, pt, d, ap, ad)

        monkeypatch.setattr(sdp._Layout, "moved", once_nan)
        sol = solve(sqrt2_program(), TIGHT)
        assert (sol.status, sol.iterations) == ("numerical_failure", k + 1)
        assert all(np.all(np.isfinite(V)) for V in (*sol.X, sol.y, *sol.Z))
        assert sol.y.tobytes() == ref.y.tobytes()
        assert sol.X[0].tobytes() == ref.X[0].tobytes() and sol.Z[0].tobytes() == ref.Z[0].tobytes()
        assert math.isnan(sol.trace[-1]["mu"])
        before = sol.trace[-2]
        assert (sol.primal_residual, sol.dual_residual, sol.primal_obj, sol.dual_obj) == (
            before["pres"], before["dres"], before["pobj"], before["dobj"])


class TestLastIterate:
    def test_converged_solve_returns_its_last_iterate(self, monkeypatch):
        # planar benchmark shadow at r = 2, default tolerance: direction 0 converges
        from momentsdp import spectra
        from momentsdp.casestudies import build_polyopt

        sols = []

        def record(prog, objectives, options):
            batch = sdp.solve_batch(prog, objectives, options)
            sols.extend(batch)
            return batch

        monkeypatch.setattr(spectra, "solve_batch", record)
        spectra.shadow_support_points(build_polyopt().feasible_set, 2, spectra.unit_directions(64)[:1])
        (converged,) = sols
        assert converged.status == "optimal"
        last = converged.trace[-1]
        assert (converged.primal_residual, converged.dual_residual) == (last["pres"], last["dres"])

    def test_singular_newton_system_ends_numerical_failure(self):
        # saturation3.gmp at r = 3 and the CLI's tolerance 1e-6: a Schur system that
        # does not factor ends the solve on its last iterate, which is finite
        from momentsdp.gmp import build_gmp_relaxation

        gmp, _ = load_problem(os.path.join(FIXTURES, "saturation3.gmp")).gmp.instantiate(3)
        prog = build_gmp_relaxation(gmp, 3)[0].program
        sol = solve(prog, SolveOptions(gap_tol=1e-6, feas_tol=1e-6))
        assert sol.status == "numerical_failure"
        assert all(np.all(np.isfinite(V)) for V in (*sol.X, sol.y, *sol.Z))
        last = sol.trace[-1]
        assert (sol.primal_residual, sol.dual_residual, sol.primal_obj, sol.dual_obj) == (
            last["pres"], last["dres"], last["pobj"], last["dobj"])


def assert_same_solve(got, want) -> None:
    """Two solutions with the same status, iterations, factorizations, bytes of y, X and Z, and trace."""
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert got.stats["factorizations"] == want.stats["factorizations"]
    assert got.y.tobytes() == want.y.tobytes()
    assert [V.tobytes() for V in (*got.X, *got.Z)] == [V.tobytes() for V in (*want.X, *want.Z)]
    assert repr(got.trace) == repr(want.trace)  # the shortest repr tells every float apart
    assert (got.primal_obj, got.dual_obj, got.gap, got.primal_residual, got.dual_residual, got.mu_final) == (
        want.primal_obj, want.dual_obj, want.gap, want.primal_residual, want.dual_residual, want.mu_final)


def own_solves(prog: ConicProgram, objectives, options=None) -> list:
    """`solve` of ``prog`` with each right-hand side in place of its own, one at a time."""
    own = []
    for b in objectives:
        prog.b = b
        own.append(solve(prog, options))
    return own


def planar_shadow_program(directions: int):
    """The order-2 relaxation of the planar POP and the right-hand side of each of ``directions``
    unit directions of `shadow_support_points`."""
    from momentsdp.casestudies import build_polyopt
    from momentsdp.polynomials import Polynomial
    from momentsdp.relaxation import POPProblem, build_relaxation
    from momentsdp.spectra import unit_directions

    asm, _ = build_relaxation(POPProblem(Polynomial.zero(2), build_polyopt().feasible_set), 2)
    objectives = []
    for cx, cy in unit_directions(directions):
        asm.set_objective([("mu", Polynomial(2, {(1, 0): cx, (0, 1): cy}))], "max")
        objectives.append(asm.program.b)
    return asm.program, objectives


def mixed_batch():
    """A psd, nonneg and zero block program and five right-hand sides: its own, zero, scaled by
    1000, shifted at random, and negated.  The first four end `optimal` after 8 to 13 iterations,
    the last at the budget of 20, `max_iter`."""
    prog, _, _ = mixed_cone_program(np.random.default_rng(5), 3, 3, 2, 6)
    shift = np.random.default_rng(6).normal(size=prog.m)
    objectives = [prog.b.copy(), 0.0 * prog.b, 1e3 * prog.b, prog.b + shift, -prog.b]
    return prog, objectives, SolveOptions(gap_tol=1e-9, feas_tol=1e-8, max_iter=20)


class TestSolveBatch:
    def test_planar_shadow_equals_its_own_solves(self):
        # m = 15, psd sides 6, 3, 3, 3 and the mass row: one batch of 64
        prog, objectives = planar_shadow_program(64)
        assert prog.m == 15 and sdp._Layout(prog, np.array(objectives)).group == 64
        batch = sdp.solve_batch(prog, objectives)
        own = own_solves(prog, objectives)
        assert len(batch) == 64 and all(sol.status == "optimal" for sol in batch)
        for got, want in zip(batch, own):
            assert_same_solve(got, want)

    def test_mixed_cones_equal_their_own_solves_at_different_iterations(self):
        prog, objectives, options = mixed_batch()
        assert [blk.kind for blk in prog.blocks] == ["psd", "nonneg", "zero"]
        batch = sdp.solve_batch(prog, objectives, options)
        own = own_solves(prog, objectives, options)
        for got, want in zip(batch, own):
            assert_same_solve(got, want)
        # the rows leave the batch at different iterations, and the last one runs on alone
        assert len({sol.iterations for sol in batch}) >= 3
        assert [sol.status for sol in batch] == ["optimal"] * 4 + ["max_iter"] and batch[-1].iterations == 20

    def test_nonzero_path_rows_in_batches_of_two(self):
        # eig-assign n = 4 at r = 3 (m = 210): 2^17 floats hold two (m, m) Schur complements, so
        # three right-hand sides run as batches of two and one, and the side-35 block forms each
        # row's terms from its nonzeros
        from momentsdp.casestudies import build_eig_assign
        from momentsdp.relaxation import build_relaxation

        prog = build_relaxation(build_eig_assign(4), 3)[0].program
        objectives = [prog.b.copy(), 2.0 * prog.b, prog.b + np.random.default_rng(7).normal(size=prog.m)]
        options = SolveOptions(max_iter=4)
        batch = sdp.solve_batch(prog, objectives, options)
        assert sdp._Layout(prog, np.array(objectives)).group == 2 and batch[0].stats["sparse_schur"] == [0]
        for got, want in zip(batch, own_solves(prog, objectives, options)):
            assert_same_solve(got, want)
        assert batch[0].stats["seconds"] is batch[1].stats["seconds"] is not batch[2].stats["seconds"]

    def test_solve_is_the_batch_of_one(self):
        prog, objectives, options = mixed_batch()
        prog.b = objectives[2]
        assert_same_solve(sdp.solve_batch(prog, [prog.b], options)[0], solve(prog, options))
        assert sdp.solve_batch(prog, [], options) == []

    def test_right_hand_sides_are_checked(self):
        prog, objectives, _ = mixed_batch()
        with pytest.raises(ValueError, match="6 entries"):
            sdp.solve_batch(prog, [np.ones(5)])
        with pytest.raises(ValueError, match="finite"):
            sdp.solve_batch(prog, [objectives[0], np.full(prog.m, np.nan)])

    @pytest.mark.parametrize("which", ["K", "Z"])
    def test_failed_factorization_ends_only_its_row(self, monkeypatch, which):
        # the Cholesky of row 2's K (its Schur system on the null space of F') or of its Z
        # (side 3) fails at iteration k: that row ends `numerical_failure` on iterate k, as its own
        # solve does under the same failure, and the other rows keep their bytes
        prog, objectives, options = mixed_batch()
        k = 3
        clean = sdp.solve_batch(prog, objectives, options)
        prog.b = objectives[2]
        if which == "K":  # the (k + 1)-th matrix of side m - 2 factored, at iteration k
            seen = []
            cholesky = sdp._cholesky

            def record(S):
                if S.shape[-1] == prog.m - 2:
                    seen.extend(a.tobytes() for a in S.reshape(-1, prog.m - 2, prog.m - 2))
                return cholesky(S)

            monkeypatch.setattr(sdp, "_cholesky", record)
            solve(prog, options)
            target = seen[k]
        else:  # the Z of iteration k
            target = solve(prog, SolveOptions(options.gap_tol, options.feas_tol, max_iter=k)).Z[0].tobytes()
        monkeypatch.setattr(sdp, "_cholesky", cholesky_failing_on(target))
        batch = sdp.solve_batch(prog, objectives, options)
        alone = solve(prog, options)
        assert (alone.status, alone.iterations, alone.stats["factorizations"]) == (
            "numerical_failure", k, k + (which == "K"))
        assert_same_solve(batch[2], alone)
        ref = solve(prog, SolveOptions(options.gap_tol, options.feas_tol, max_iter=k))
        assert batch[2].y.tobytes() == ref.y.tobytes()
        for i in (0, 1, 3, 4):
            assert_same_solve(batch[i], clean[i])

    def test_x_that_does_not_factor_changes_only_its_row(self, monkeypatch):
        # row 2's X (side 3) at iteration k is planted as one that does not factor: its primal steps
        # there take the 1-or-0 rule of `_unfactored_step`, which gives 0, so its X stays put, as in
        # its own solve under the same plant, and the other rows keep their bytes
        prog, objectives, options = mixed_batch()
        k = 5
        clean = sdp.solve_batch(prog, objectives, options)
        prog.b = objectives[2]
        target = solve(prog, SolveOptions(options.gap_tol, options.feas_tol, max_iter=k)).X[0].tobytes()
        unfactored_step = sdp._unfactored_step
        rules = []

        def recorded(X, D):
            rules.append(unfactored_step(X, D))
            return rules[-1]

        monkeypatch.setattr(sdp, "_cholesky", cholesky_failing_on(target))
        monkeypatch.setattr(sdp, "_unfactored_step", recorded)
        batch = sdp.solve_batch(prog, objectives, options)
        assert rules[:2] == [0.0, 0.0]  # the predictor and the corrector of iteration k
        assert batch[2].trace[k + 1]["step_p"] == 0.0 < batch[2].trace[k + 1]["step_d"]
        assert batch[2].trace[k + 1]["step_p"] != clean[2].trace[k + 1]["step_p"]
        assert_same_solve(batch[2], solve(prog, options))
        for i in (0, 1, 3, 4):
            assert_same_solve(batch[i], clean[i])

    def test_step_collapse_ends_only_its_row(self, monkeypatch):
        # row 2's steps from its iterate k are planted as zero: its steps collapse there, so it ends
        # `max_iter` on iterate k, as its own solve does under the same plant, and the other rows keep
        # their bytes
        prog, objectives, options = mixed_batch()
        k = 4
        clean = sdp.solve_batch(prog, objectives, options)
        prog.b = objectives[2]
        ref = solve(prog, SolveOptions(options.gap_tol, options.feas_tol, max_iter=k))
        target = ref.X[0].tobytes()  # the one psd block is the whole flat cell vector
        steps = sdp._Layout.steps

        def collapsing(lay, pt, d, whitening):
            ap, ad = steps(lay, pt, d, whitening)
            for i, X in enumerate(pt.X):
                if X.tobytes() == target:
                    ap[i] = ad[i] = 0.0
            return ap, ad

        monkeypatch.setattr(sdp._Layout, "steps", collapsing)
        batch = sdp.solve_batch(prog, objectives, options)
        alone = solve(prog, options)
        assert (alone.status, alone.iterations) == ("max_iter", k) and clean[2].iterations > k
        assert_same_solve(batch[2], alone)
        assert batch[2].y.tobytes() == ref.y.tobytes()
        for i in (0, 1, 3, 4):
            assert_same_solve(batch[i], clean[i])

    def test_non_finite_iterate_ends_only_its_row(self, monkeypatch):
        # the move from row 2's iterate k is planted as one to a NaN X: that row ends
        # `numerical_failure` on iterate k, its last finite one, with the non-finite record last in
        # its trace, as its own solve does under the same plant, and the other rows keep their bytes
        prog, objectives, options = mixed_batch()
        k = 6
        clean = sdp.solve_batch(prog, objectives, options)
        prog.b = objectives[2]
        ref = solve(prog, SolveOptions(options.gap_tol, options.feas_tol, max_iter=k))
        target = ref.X[0].tobytes()
        moved = sdp._Layout.moved

        def poisoned(lay, pt, d, ap, ad):
            out = moved(lay, pt, d, ap, ad)
            for i, X in enumerate(pt.X):
                if X.tobytes() == target:
                    out.X[i] = np.nan
            return out

        monkeypatch.setattr(sdp._Layout, "moved", poisoned)
        batch = sdp.solve_batch(prog, objectives, options)
        alone = solve(prog, options)
        assert (alone.status, alone.iterations) == ("numerical_failure", k + 1) and clean[2].iterations > k + 1
        assert math.isnan(alone.trace[-1]["gap"]) and len(alone.trace) == k + 2
        assert_same_solve(batch[2], alone)
        assert batch[2].y.tobytes() == ref.y.tobytes()
        assert [V.tobytes() for V in (*batch[2].X, *batch[2].Z)] == [V.tobytes() for V in (*ref.X, *ref.Z)]
        for i in (0, 1, 3, 4):
            assert_same_solve(batch[i], clean[i])

    def test_small_group_cap_keeps_the_bytes(self, monkeypatch):
        # a cap of 3 Schur complements of side 15 splits the 8 directions into batches of 3, 3
        # and 2, each with its own phase seconds; every block stays on the dense path
        prog, objectives = planar_shadow_program(8)
        whole = sdp.solve_batch(prog, objectives)
        monkeypatch.setattr(sdp, "_SCHUR_CHUNK", 3 * prog.m ** 2)
        lay = sdp._Layout(prog, np.array(objectives))
        assert lay.group == 3 and lay.stats["sparse_schur"] == []
        split = sdp.solve_batch(prog, objectives)
        for got, want in zip(split, whole):
            assert_same_solve(got, want)
        seconds = [sol.stats["seconds"] for sol in split]
        assert seconds[0] is seconds[2] and seconds[3] is seconds[5] and seconds[6] is seconds[7]
        assert seconds[2] is not seconds[3] and seconds[5] is not seconds[6]

    def test_group_cap_from_the_schur_chunk(self):
        # (m, m) Schur complements of at most `_SCHUR_CHUNK` floats in all, and at least one
        for m, directions, group in [(15, 600, 582), (28, 200, 167), (28, 5, 5), (256, 3, 2), (257, 3, 1)]:
            prog = ConicProgram([Block("nonneg", 1)], [np.ones((m, 1))], np.ones(m), [np.ones(1)])
            assert sdp._Layout(prog, np.ones((directions, m))).group == group
