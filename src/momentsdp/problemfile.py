"""One structured-text format family for the four problem kinds.

Every file starts with ``kind: pop | gmp | sdp | pencil`` and continues in
named ``[section]`` blocks; ``#`` starts a comment anywhere.  Polynomials use
the expression syntax of the parser (rational coefficients, ``*``, ``^``,
parentheses); all rational data round-trips exactly.

pop:    variables: x1 x2        [objective] min <poly>
        ball: R (optional)      [constraints] <poly> >= 0 | <poly> == 0

gmp:    [measures]  name: v1 v2 ...        (omit when [dynamics] is present)
        [support <name>]  constraint lines, plus optional `ball: R`
        [dynamics]  horizon: free | fixed T, state:, control:, initial:,
                    terminal: (point c1 c2 ... | measure name),
                    lagrangian:, terminal_cost:, then one or more
                    `cell: <name>` groups each followed by f1:, f2:, ...
        [constraints]  sums of <poly, measure> terms (or mass(name))
                       compared with ==, <=, >=
        [objective]  min|max  sum of <poly, measure> terms
        A [dynamics] section reads into one `DynamicsSpec`
        (`GMPFileData.dynamics`), whose cells and endpoint measures are the
        file's measures.  `gmp_to_text` writes the file back; its
        <poly, measure> sums come from `moment_sum_text`.

sdp:    [blocks]  `kind size` per block (psd | nonneg | zero)
        [b]  whitespace-separated values, possibly over several lines
        [C], [A k]  `block i j value` entries, one section per constraint k;
                    indices are 1-based and only the upper triangle of a psd
                    block is stored.  Values may be rationals like 3/4: they
                    are parsed exactly, then stored as binary floats.
        A program needs a psd or nonneg block and at least one constraint
        (a value in [b]); without either it is an error at [blocks].

pencil: variables:, side:, then [F0] and [F k] with `i j value` entries.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .gmp import (
    DynamicsProblem,
    DynamicsSpec,
    EndpointSpec,
    GMPProblem,
    MeasureDecl,
    MomentConstraint,
    TIME_VAR,
    build_dynamics_gmp,
    time_box,
)
from .polynomials import (
    Polynomial,
    PolynomialParseError,
    VarSpace,
    parse_polynomial,
)
from .relaxation import POPProblem, SemialgebraicSet
from .sdp import Block, BlockData, ConicProgram
from .spectra import Pencil


class ProblemFileError(ValueError):
    """Malformed problem file; carries line (and column when known)."""

    def __init__(self, message: str, line: int, column: Optional[int] = None):
        loc = f"line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message} ({loc})")
        self.line = line
        self.column = column


@dataclass
class GMPFileData:
    """A GMP file as written: declared measures, explicit rows, dynamics."""

    measures: list[MeasureDecl] = field(default_factory=list)
    constraints: list[MomentConstraint] = field(default_factory=list)
    objective: Optional[list[tuple[str, Polynomial]]] = None
    sense: str = "min"
    dynamics: Optional[DynamicsSpec] = None

    def instantiate(self, r: int) -> tuple[GMPProblem, Optional[DynamicsProblem]]:
        """Expand into a solvable problem; dynamics files need the order r."""
        if self.dynamics is None:
            if self.objective is None:
                raise ValueError("a gmp file without dynamics needs an [objective]")
            return (
                GMPProblem(
                    measures=self.measures,
                    constraints=self.constraints,
                    objective=self.objective,
                    sense=self.sense,
                ),
                None,
            )
        supports = {m.name: m.support for m in self.measures}
        dp = build_dynamics_gmp(
            self.dynamics,
            r,
            supports,
            extra_constraints=self.constraints,
            objective=self.objective,
            sense=self.sense,
        )
        return dp.gmp, dp


@dataclass
class ParsedProblem:
    kind: str
    pop: Optional[POPProblem] = None
    gmp: Optional[GMPFileData] = None
    sdp: Optional[ConicProgram] = None
    pencil: Optional[Pencil] = None


# -- low-level line/section scanning ------------------------------------------


@dataclass
class _Line:
    no: int
    text: str


# a section: its name, the line of its `[name]` header, and its lines
_Section = tuple[str, int, list[_Line]]


def _scan(text: str) -> tuple[dict[str, _Line], list[_Section]]:
    """Split into leading `key: value` headers (value and line) and [section] groups."""
    headers: dict[str, _Line] = {}
    sections: list[_Section] = []
    current: Optional[list[_Line]] = None
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ProblemFileError("unterminated section header", no)
            current = []
            sections.append((stripped[1:-1].strip(), no, current))
            continue
        if current is None:
            if ":" not in stripped:
                raise ProblemFileError("expected `key: value` before the first section", no)
            key, value = stripped.split(":", 1)
            key = key.strip().lower()
            if key in headers:
                raise ProblemFileError(f"duplicate header {key!r}", no)
            headers[key] = _Line(no, value.strip())
        else:
            current.append(_Line(no, stripped))
    if "kind" not in headers:
        raise ProblemFileError("missing `kind:` header", 1)
    return headers, sections


def _single_sections(sections: list[_Section]) -> None:
    """Pop and gmp sections other than [constraints] appear once; an [objective] has one line."""
    seen: set[str] = set()
    for name, no, lines in sections:
        key = " ".join(name.split())
        if key in seen and key != "constraints":
            raise ProblemFileError(f"repeated section [{key}]", no)
        if key == "objective" and len(lines) > 1:
            raise ProblemFileError("an [objective] has one line", lines[1].no)
        seen.add(key)


def _number(tok: str, line: int, what: str, parse: Callable = Fraction):
    """`parse(tok)` when it is a finite number; otherwise an error naming `what`."""
    try:
        value = parse(tok)
        if abs(value) < math.inf:
            return value
    except (ValueError, ArithmeticError):
        pass
    raise ProblemFileError(f"expected {what}, got {tok!r}", line)


@contextmanager
def _at(line: int):
    """Report a constructor's ValueError as a ProblemFileError at `line`."""
    try:
        yield
    except ProblemFileError:
        raise
    except ValueError as e:
        raise ProblemFileError(str(e), line) from None


def _poly(text: str, space: VarSpace, line: int) -> Polynomial:
    try:
        return parse_polynomial(text, space)
    except PolynomialParseError as e:
        raise ProblemFileError(str(e), line, e.column + 1)


_REL = re.compile(r"(==|>=|<=)")


def _constraint_poly(line: _Line, space: VarSpace) -> tuple[Polynomial, str]:
    """Parse `p >= 0`-style set constraints into (poly >= 0) or (poly == 0)."""
    parts = _REL.split(line.text)
    if len(parts) != 3:
        raise ProblemFileError("constraint needs exactly one of ==, >=, <=", line.no)
    lhs, rel, rhs = parts
    pl = _poly(lhs, space, line.no)
    pr = _poly(rhs, space, line.no)
    if rel == ">=":
        return pl - pr, "ineq"
    if rel == "<=":
        return pr - pl, "ineq"
    return pl - pr, "eq"


def _parse_support(lines: list[_Line], space: VarSpace) -> SemialgebraicSet:
    ineqs: list[Polynomial] = []
    eqs: list[Polynomial] = []
    ball: Optional[Fraction] = None
    for line in lines:
        if line.text.lower().startswith("ball:"):
            ball = _number(line.text.split(":", 1)[1].strip(), line.no, "a rational ball radius")
            continue
        poly, kind = _constraint_poly(line, space)
        (ineqs if kind == "ineq" else eqs).append(poly)
    return SemialgebraicSet(space, inequalities=ineqs, equalities=eqs, ball_radius=ball)


# -- pop ----------------------------------------------------------------------


def _parse_pop(headers: dict[str, _Line], sections: list[_Section]) -> POPProblem:
    if "variables" not in headers:
        raise ProblemFileError("pop files need a `variables:` header", 1)
    with _at(headers["variables"].no):
        space = VarSpace(tuple(headers["variables"].text.split()))
    objective: Optional[Polynomial] = None
    ineqs: list[Polynomial] = []
    eqs: list[Polynomial] = []
    ball: Optional[Fraction] = None
    if "ball" in headers:
        ball = _number(headers["ball"].text, headers["ball"].no, "a rational ball radius")
    for name, no, lines in sections:
        if name == "objective":
            for line in lines:
                body = line.text
                if not body.lower().startswith("min"):
                    raise ProblemFileError("pop objectives are minimized: write `min <poly>`", line.no)
                objective = _poly(body[3:], space, line.no)
        elif name == "constraints":
            for line in lines:
                poly, kind = _constraint_poly(line, space)
                (ineqs if kind == "ineq" else eqs).append(poly)
        else:
            raise ProblemFileError(f"unknown section [{name}] in a pop file", no)
    if objective is None:
        raise ProblemFileError("pop files need an [objective] section", 1)
    with _at(headers["ball"].no if ball is not None else 1):  # only a radius <= 0 fails
        feasible = SemialgebraicSet(space, inequalities=ineqs, equalities=eqs, ball_radius=ball)
    return POPProblem(objective=objective, feasible_set=feasible)


def pop_to_text(pop: POPProblem) -> str:
    sp = pop.feasible_set.space
    out = ["kind: pop", f"variables: {' '.join(sp.names)}"]
    if pop.feasible_set.ball_radius is not None:
        out.append(f"ball: {pop.feasible_set.ball_radius}")
    out += ["", "[objective]", f"min {pop.objective.to_string(sp)}"]
    out += ["", "[constraints]"]
    for q in pop.feasible_set.inequalities:
        out.append(f"{q.to_string(sp)} >= 0")
    for q in pop.feasible_set.equalities:
        out.append(f"{q.to_string(sp)} == 0")
    return "\n".join(out) + "\n"


# -- gmp ------------------------------------------------------------------------

_TERM = re.compile(r"^<(?P<poly>[^,]+),\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*>$")


def _parse_moment_sum(
    text: str, line_no: int, spaces: dict[str, VarSpace]
) -> list[tuple[str, Polynomial]]:
    """Sum of `<poly, measure>` terms (or mass(name)), with +/- separators."""
    terms: list[tuple[str, Polynomial]] = []
    # split on +/- at depth zero of <...> and (...)
    chunks: list[tuple[int, str]] = []
    depth = 0
    cur = ""
    sign = 1
    for ch in text:
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        if depth == 0 and ch in "+-" and cur.strip():
            chunks.append((sign, cur.strip()))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif depth == 0 and ch in "+-" and not cur.strip():
            sign *= 1 if ch == "+" else -1
        else:
            cur += ch
    if cur.strip():
        chunks.append((sign, cur.strip()))
    for sgn, chunk in chunks:
        m = re.match(r"^mass\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)$", chunk)
        if m:
            name = m.group(1)
            if name not in spaces:
                raise ProblemFileError(f"unknown measure {name!r}", line_no)
            terms.append((name, Polynomial.constant(spaces[name].n, sgn)))
            continue
        m = _TERM.match(chunk)
        if m is None:
            raise ProblemFileError(
                f"expected `<poly, measure>` or `mass(name)`, got {chunk!r}", line_no
            )
        name = m.group("name")
        if name not in spaces:
            raise ProblemFileError(f"unknown measure {name!r}", line_no)
        poly = _poly(m.group("poly"), spaces[name], line_no)
        terms.append((name, poly * sgn))
    if not terms:
        raise ProblemFileError("empty moment expression", line_no)
    return terms


def _parse_gmp(sections: list[_Section]) -> GMPFileData:
    dynamics = [(no, lines) for name, no, lines in sections if name == "dynamics"]
    declared: dict[str, VarSpace] = {}
    supports: dict[str, tuple[int, list[_Line]]] = {}
    dyn: Optional[DynamicsSpec] = None

    for name, no, lines in sections:
        if name == "measures":
            if dynamics:
                raise ProblemFileError(
                    "[measures] and [dynamics] are mutually exclusive; dynamics implies its measures",
                    no,
                )
            for line in lines:
                if ":" not in line.text:
                    raise ProblemFileError("measure lines look like `name: v1 v2`", line.no)
                mname, vars_ = line.text.split(":", 1)
                mname = mname.strip()
                names = tuple(vars_.split())
                if not names:
                    raise ProblemFileError("measure needs at least one variable", line.no)
                if mname in declared:
                    raise ProblemFileError(f"measure {mname!r} declared twice", line.no)
                with _at(line.no):
                    declared[mname] = VarSpace(names)
        elif name.startswith("support"):
            parts = name.split()
            if len(parts) != 2:
                raise ProblemFileError("support sections are [support <measure>]", no)
            supports[parts[1]] = (no, lines)
        elif name not in ("dynamics", "constraints", "objective"):
            raise ProblemFileError(f"unknown section [{name}] in a gmp file", no)

    if dynamics:
        dyn = _parse_dynamics(*dynamics[0])
        declared.update(dyn.measure_spaces())

    spaces = dict(declared)
    measures = []
    for mname, space in declared.items():
        if mname in supports:
            no, lines = supports[mname]
            with _at(no):
                supp = _parse_support(lines, space)
        else:
            supp = SemialgebraicSet(space)
        measures.append(MeasureDecl(mname, supp))
    for sname, (no, _) in supports.items():
        if sname not in declared:
            raise ProblemFileError(f"support given for undeclared measure {sname!r}", no)

    constraints: list[MomentConstraint] = []
    objective: Optional[list[tuple[str, Polynomial]]] = None
    sense = "min"
    for name, _, lines in sections:
        if name == "constraints":
            for line in lines:
                parts = _REL.split(line.text)
                if len(parts) != 3:
                    raise ProblemFileError("constraint needs one of ==, >=, <=", line.no)
                lhs, rel, rhs = parts
                terms = _parse_moment_sum(lhs.strip(), line.no, spaces)
                rval = _number(rhs.strip(), line.no, "a rational right-hand side")
                relation = {"==": "eq", ">=": "ge", "<=": "le"}[rel]
                constraints.append(MomentConstraint(terms, rval, relation))
        elif name == "objective":
            for line in lines:
                body = line.text
                low = body.lower()
                if low.startswith("min"):
                    sense, body = "min", body[3:]
                elif low.startswith("max"):
                    sense, body = "max", body[3:]
                else:
                    raise ProblemFileError("objective lines start with min or max", line.no)
                objective = _parse_moment_sum(body.strip(), line.no, spaces)

    return GMPFileData(
        measures=measures,
        constraints=constraints,
        objective=objective,
        sense=sense,
        dynamics=dyn,
    )


def _parse_dynamics(first: int, lines: list[_Line]) -> DynamicsSpec:
    """The [dynamics] section whose header is on line `first`."""
    horizon: Optional[Fraction] = None
    horizon_seen = False
    states: tuple[str, ...] = ()
    controls: tuple[str, ...] = ()
    lagrangian_text: Optional[tuple[str, int]] = None
    terminal_cost_text: Optional[tuple[str, int]] = None
    initial: Optional[EndpointSpec] = None
    terminal: Optional[EndpointSpec] = None
    cells: list[tuple[str, dict[int, tuple[str, int]]]] = []

    def _endpoint(value: str, no: int) -> EndpointSpec:
        parts = value.split()
        if parts and parts[0] == "point":
            return tuple(_number(v, no, "a rational endpoint coordinate") for v in parts[1:])
        if len(parts) == 2 and parts[0] == "measure":
            return parts[1]
        raise ProblemFileError("endpoints are `point c1 c2 ...` or `measure name`", no)

    for line in lines:
        if ":" not in line.text:
            raise ProblemFileError("dynamics lines look like `key: value`", line.no)
        key, value = line.text.split(":", 1)
        key = key.strip().lower()
        value = value.strip()
        if key == "horizon":
            horizon_seen = True
            if value == "free":
                horizon = None
            else:
                parts = value.split()
                if len(parts) != 2 or parts[0] != "fixed":
                    raise ProblemFileError("horizon is `free` or `fixed T`", line.no)
                horizon = _number(parts[1], line.no, "a rational horizon")
        elif key == "state":
            states = tuple(value.split())
        elif key == "control":
            controls = tuple(value.split())
        elif key == "lagrangian":
            lagrangian_text = (value, line.no)
        elif key == "terminal_cost":
            terminal_cost_text = (value, line.no)
        elif key == "initial":
            initial = _endpoint(value, line.no)
        elif key == "terminal":
            terminal = _endpoint(value, line.no)
        elif key == "cell":
            cells.append((value, {}))
        elif re.fullmatch(r"f\d+", key):
            if not cells:
                raise ProblemFileError("f<i> lines belong to a `cell:` group", line.no)
            cells[-1][1][int(key[1:])] = (value, line.no)
        else:
            raise ProblemFileError(f"unknown dynamics key {key!r}", line.no)

    if not states:
        raise ProblemFileError("dynamics needs `state:` variables", first)
    if not horizon_seen:
        raise ProblemFileError("dynamics needs `horizon: free` or `horizon: fixed T`", first)
    if initial is None or terminal is None:
        raise ProblemFileError("dynamics needs `initial:` and `terminal:`", first)
    if not cells:
        raise ProblemFileError("dynamics needs at least one `cell:` with f<i> lines", first)

    with _at(first):
        dspace = VarSpace((TIME_VAR,) + states + controls)
    lagrangian = (
        _poly(lagrangian_text[0], dspace, lagrangian_text[1])
        if lagrangian_text
        else Polynomial.zero(dspace.n)
    )
    terminal_cost = (
        _poly(terminal_cost_text[0], VarSpace(states), terminal_cost_text[1])
        if terminal_cost_text
        else None
    )
    parsed_cells: list[tuple[str, list[Polynomial]]] = []
    for cname, fmap in cells:
        fs: list[Polynomial] = []
        for i in range(1, len(states) + 1):
            if i not in fmap:
                raise ProblemFileError(f"cell {cname!r} is missing f{i}", first)
            fs.append(_poly(fmap[i][0], dspace, fmap[i][1]))
        parsed_cells.append((cname, fs))

    with _at(first):
        return DynamicsSpec(
            states=states,
            cells=parsed_cells,
            lagrangian=lagrangian,
            initial=initial,
            terminal=terminal,
            controls=controls,
            terminal_cost=terminal_cost,
            horizon=horizon,
        )


def moment_sum_text(terms: Sequence[tuple[str, Polynomial]], spaces: dict[str, VarSpace]) -> str:
    """`<poly, measure>` terms joined by " + ", each poly over its measure's space; "0" if none."""
    return " + ".join(f"<{poly.to_string(spaces[name])}, {name}>" for name, poly in terms) or "0"


def gmp_to_text(data: GMPFileData) -> str:
    out = ["kind: gmp"]
    dyn = data.dynamics
    if dyn is None:
        out += ["", "[measures]"]
        for m in data.measures:
            out.append(f"{m.name}: {' '.join(m.variables)}")
    for m in data.measures:
        supp = m.support
        if not (supp.inequalities or supp.equalities or supp.ball_radius is not None):
            continue
        out += ["", f"[support {m.name}]"]
        for q in supp.inequalities:
            out.append(f"{q.to_string(supp.space)} >= 0")
        for q in supp.equalities:
            out.append(f"{q.to_string(supp.space)} == 0")
        if supp.ball_radius is not None:
            out.append(f"ball: {supp.ball_radius}")
    if dyn is not None:
        out += ["", "[dynamics]"]
        out.append("horizon: free" if dyn.autonomous else f"horizon: fixed {dyn.horizon}")
        out.append(f"state: {' '.join(dyn.states)}")
        if dyn.controls:
            out.append(f"control: {' '.join(dyn.controls)}")
        dspace = dyn.dynamics_space()

        def _endpoint_text(e: EndpointSpec) -> str:
            if isinstance(e, str):
                return f"measure {e}"
            return "point " + " ".join(str(v) for v in e)

        out.append(f"initial: {_endpoint_text(dyn.initial)}")
        out.append(f"terminal: {_endpoint_text(dyn.terminal)}")
        if not dyn.lagrangian.is_zero():
            out.append(f"lagrangian: {dyn.lagrangian.to_string(dspace)}")
        if dyn.terminal_cost is not None and not dyn.terminal_cost.is_zero():
            out.append(f"terminal_cost: {dyn.terminal_cost.to_string(VarSpace(dyn.states))}")
        for cname, fs in dyn.cells:
            out.append(f"cell: {cname}")
            for i, f in enumerate(fs, start=1):
                out.append(f"f{i}: {f.to_string(dspace)}")

    spaces = {m.name: m.support.space for m in data.measures}
    if data.constraints:
        out += ["", "[constraints]"]
        rel_text = {"eq": "==", "ge": ">=", "le": "<="}
        for con in data.constraints:
            out.append(f"{moment_sum_text(con.terms, spaces)} {rel_text[con.relation]} {con.rhs}")
    if data.objective is not None:
        out += ["", "[objective]", f"{data.sense} {moment_sum_text(data.objective, spaces)}"]
    return "\n".join(out) + "\n"


def dynamics_to_file_data(dp: DynamicsProblem) -> GMPFileData:
    """Fold an expanded dynamics problem back into its file form.

    Inverse of `GMPFileData.instantiate` up to the relaxation order: the
    generated transport rows and the auto-added time boxes are stripped so
    the result serializes like a hand-written file.
    """
    dyn = dp.dynamics
    cells = {name for name, _ in dyn.cells}
    measures: list[MeasureDecl] = []
    for m in dp.gmp.measures:
        supp = m.support
        if m.name in cells and not dyn.autonomous:
            box = time_box(len(m.variables))
            supp = replace(supp, inequalities=[q for q in supp.inequalities if q != box])
        measures.append(MeasureDecl(m.name, supp))
    return GMPFileData(
        measures=measures,
        constraints=list(dp.gmp.constraints[len(dp.liouville_rows):]),
        objective=list(dp.gmp.objective),
        sense=dp.gmp.sense,
        dynamics=dyn,
    )


# -- sdp ------------------------------------------------------------------------


def _sdp_value(tok: str) -> float:
    return float(Fraction(tok)) if "/" in tok else float(tok)


def _sdp_entry(line: _Line, blocks: list[Block]) -> tuple[int, list[int], float]:
    """Block, flattened cells (both triangles) and value of a `block i j value` line."""
    parts = line.text.split()
    if len(parts) != 4:
        raise ProblemFileError("sdp entries are `block i j value`", line.no)
    bi, i, j = (_number(t, line.no, "an integer entry index", int) for t in parts[:3])
    v = _number(parts[3], line.no, "a finite entry value", _sdp_value)
    if not 1 <= bi <= len(blocks):
        raise ProblemFileError(f"block index {bi} out of range", line.no)
    blk = blocks[bi - 1]
    if not (1 <= i <= blk.size and 1 <= j <= blk.size):
        raise ProblemFileError(f"entry ({i},{j}) outside block {bi}", line.no)
    if blk.kind == "psd":
        return bi - 1, [(i - 1) * blk.size + j - 1, (j - 1) * blk.size + i - 1], v
    if i != j:
        raise ProblemFileError("vector blocks take diagonal entries only", line.no)
    return bi - 1, [i - 1], v


def _parse_sdp(sections: list[_Section]) -> ConicProgram:
    blocks: list[Block] = []
    b: list[float] = []
    data: list[tuple[Optional[int], int, list[_Line]]] = []  # (k of [A k], or None for [C])
    blocks_no = 1  # the line of the [blocks] header
    for name, no, lines in sections:
        head = name.split()
        if head == ["blocks"]:
            blocks_no = no
            for line in lines:
                parts = line.text.split()
                if len(parts) != 2:
                    raise ProblemFileError("block lines are `kind size`", line.no)
                with _at(line.no):
                    blocks.append(Block(parts[0], int(parts[1])))  # type: ignore[arg-type]
        elif head == ["b"]:
            for line in lines:
                b += [_number(t, line.no, "a finite value", _sdp_value) for t in line.text.split()]
        elif head == ["C"]:
            data.append((None, no, lines))
        elif len(head) == 2 and head[0] == "A":
            data.append((_number(head[1], no, "an integer constraint index", int), no, lines))
        else:
            raise ProblemFileError(f"unknown section [{name}] in an sdp file", no)
    if not blocks:
        raise ProblemFileError("sdp files need a [blocks] section", 1)
    C = [np.zeros(blk.shape) for blk in blocks]
    # a later entry for the same cell overwrites an earlier one
    cells: list[dict[tuple[int, int], float]] = [{} for _ in blocks]
    for k, no, lines in data:
        if k is not None and not 1 <= k <= len(b):
            raise ProblemFileError(f"constraint index {k} out of range (m = {len(b)})", no)
        for line in lines:
            bi, cols, v = _sdp_entry(line, blocks)
            if k is None:
                C[bi].reshape(-1)[cols] = v
            else:
                cells[bi].update(((k - 1, col), v) for col in cols)
    A = [
        BlockData(
            np.array([k for k, _ in cell], dtype=np.intp),
            np.array([col for _, col in cell], dtype=np.intp),
            np.array(list(cell.values()), dtype=float),
        )
        for cell in cells
    ]
    with _at(blocks_no):  # a program without cone blocks or constraints
        return ConicProgram(blocks=blocks, A=A, b=np.asarray(b), C=C)


def sdp_to_text(prog: ConicProgram) -> str:
    out = ["kind: sdp", "", "[blocks]"] + [f"{blk.kind} {blk.size}" for blk in prog.blocks]
    out += ["", "[b]", " ".join(repr(float(v)) for v in prog.b)]

    def _entries(bi: int, cols: np.ndarray, vals: np.ndarray) -> None:
        # nonzeros of one block in cell order; psd blocks write the upper triangle
        blk = prog.blocks[bi]
        for col, v in zip(cols.tolist(), vals.tolist()):
            i, j = divmod(col, blk.size) if blk.kind == "psd" else (col, col)
            if i <= j:
                out.append(f"{bi + 1} {i + 1} {j + 1} {v!r}")

    out += ["", "[C]"]
    for bi, mat in enumerate(prog.C):
        flat = mat.reshape(-1)
        (cols,) = np.nonzero(flat)
        _entries(bi, cols, flat[cols])
    # rows are sorted, so constraint k's entries of a block are one slice
    starts = [np.searchsorted(data.rows, np.arange(prog.m + 1)) for data in prog.A]
    for k in range(prog.m):
        out += ["", f"[A {k + 1}]"]
        for bi, data in enumerate(prog.A):
            lo, hi = starts[bi][k], starts[bi][k + 1]
            _entries(bi, data.cols[lo:hi], data.vals[lo:hi])
    return "\n".join(out) + "\n"


# -- pencil ---------------------------------------------------------------------


def _parse_pencil(headers: dict[str, _Line], sections: list[_Section]) -> Pencil:
    if "variables" not in headers or "side" not in headers:
        raise ProblemFileError("pencil files need `variables:` and `side:` headers", 1)
    with _at(headers["variables"].no):
        n = VarSpace(tuple(headers["variables"].text.split())).n
    side = _number(headers["side"].text, headers["side"].no, "an integer matrix side", int)
    if side < 1:
        raise ProblemFileError("pencil matrices need a positive side", headers["side"].no)
    mats: list[list[list[Fraction]]] = [
        [[Fraction(0)] * side for _ in range(side)] for _ in range(n + 1)
    ]
    for name, no, lines in sections:
        if name == "F0":
            k = 0
        else:
            parts = name.split()
            if len(parts) != 2 or parts[0] != "F":
                raise ProblemFileError(f"unknown section [{name}] in a pencil file", no)
            k = _number(parts[1], no, "an integer matrix index", int)
            if not 1 <= k <= n:
                raise ProblemFileError(f"pencil matrix index {k} out of range", no)
        for line in lines:
            parts = line.text.split()
            if len(parts) != 3:
                raise ProblemFileError("pencil entries are `i j value`", line.no)
            i, j = (_number(t, line.no, "an integer entry index", int) for t in parts[:2])
            v = _number(parts[2], line.no, "a rational entry value")
            if not (1 <= i <= side and 1 <= j <= side):
                raise ProblemFileError(f"entry ({i},{j}) outside the {side}x{side} matrix", line.no)
            mats[k][i - 1][j - 1] = v
            mats[k][j - 1][i - 1] = v
    return Pencil(
        nvars=n, side=side, coefficients=[tuple(tuple(row) for row in M) for M in mats]
    )


def pencil_to_text(pencil: Pencil, variable_names: Optional[Sequence[str]] = None) -> str:
    names = list(variable_names or (f"x{i+1}" for i in range(pencil.nvars)))
    out = ["kind: pencil", f"variables: {' '.join(names)}", f"side: {pencil.side}"]
    for k, M in enumerate(pencil.coefficients):
        header = "F0" if k == 0 else f"F {k}"
        entries = []
        for i in range(pencil.side):
            for j in range(i, pencil.side):
                if M[i][j] != 0:
                    entries.append(f"{i + 1} {j + 1} {M[i][j]}")
        if entries or k == 0:
            out += ["", f"[{header}]"] + entries
    return "\n".join(out) + "\n"


# -- entry points ----------------------------------------------------------------


# headers each kind reads besides `kind:`
_HEADERS = {"pop": {"variables", "ball"}, "gmp": set(), "sdp": set(),
            "pencil": {"variables", "side"}}


def parse_problem_text(text: str) -> ParsedProblem:
    headers, sections = _scan(text)
    kind = headers["kind"].text.lower()
    if kind not in _HEADERS:
        raise ProblemFileError(f"unknown kind {headers['kind'].text!r}", headers["kind"].no)
    for key, line in headers.items():
        if key != "kind" and key not in _HEADERS[kind]:
            raise ProblemFileError(f"unknown header {key!r} in a {kind} file", line.no)
    if kind in ("pop", "gmp"):
        _single_sections(sections)
    if kind == "pop":
        return ParsedProblem(kind="pop", pop=_parse_pop(headers, sections))
    if kind == "gmp":
        return ParsedProblem(kind="gmp", gmp=_parse_gmp(sections))
    if kind == "sdp":
        return ParsedProblem(kind="sdp", sdp=_parse_sdp(sections))
    return ParsedProblem(kind="pencil", pencil=_parse_pencil(headers, sections))


def load_problem(path: str) -> ParsedProblem:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ProblemFileError(f"not UTF-8 text: {e.reason}", raw.count(b"\n", 0, e.start) + 1)
    return parse_problem_text(text)


def problem_to_text(p: ParsedProblem) -> str:
    if p.kind == "pop":
        return pop_to_text(p.pop)
    if p.kind == "gmp":
        return gmp_to_text(p.gmp)
    if p.kind == "sdp":
        return sdp_to_text(p.sdp)
    if p.kind == "pencil":
        return pencil_to_text(p.pencil)
    raise ValueError(f"unknown kind {p.kind!r}")
