"""One structured-text format family for the four problem kinds.

Every file starts with ``kind: pop | gmp | sdp | pencil`` and continues in
named ``[section]`` blocks; ``#`` starts a comment anywhere.  Polynomials use
the expression syntax of the parser (rational coefficients, ``*``, ``^``,
parentheses); all rational data is parsed exactly.

One rule holds in every kind: a header, a section and a `key:` line appear
once, and a repeat is an error at its second line.  Only [constraints] may
repeat (its lines join in file order), and only `cell:` starts a group of
its own in [dynamics].  Within one [C], [A k] or [F k] section a later
entry for the same cell overwrites an earlier one.

pop:    variables: x1 x2        [objective] min <poly>
        ball: R (optional)      [constraints] <poly> >= 0 | <poly> == 0
        [constraints] reads as a [support] section whose `ball:` may be
        the header instead.

gmp:    [measures]  name: v1 v2 ...        (omit when [dynamics] is present)
        [support <name>]  constraint lines, plus optional `ball: R`
        [dynamics]  horizon: free | fixed T, state:, control:, initial:,
                    terminal: (point c1 c2 ... | measure name),
                    lagrangian:, terminal_cost:, and one or more
                    `cell: <name>` groups, each holding exactly f1:, ...,
                    fn: for n states; the other keys may follow the groups.
        [constraints]  sums of <poly, measure> terms (or mass(name))
                       compared with ==, <=, >=
        [objective]  min|max  sum of <poly, measure> terms
        A [dynamics] section reads into one `DynamicsSpec`
        (`GMPFileData.dynamics`), whose cells and endpoint measures are the
        file's measures.

sdp:    [blocks]  `kind size` per block (psd | nonneg | zero)
        [b]  whitespace-separated values, possibly over several lines
        [C], [A k]  `block i j value` entries, one section per constraint k;
                    indices are 1-based and only the upper triangle of a psd
                    block is stored.  Values may be rationals like 3/4: they
                    are parsed exactly, then stored as binary floats.
        A program needs a psd or nonneg block and at least one constraint
        (a value in [b]); without either it is an error at [blocks].

pencil: variables:, side: (1 to `spectra.MAX_SYMBOLIC_SIDE`, the largest
        side whose symbolic minors are computed), then [F0] and [F k] with
        `i j value` entries.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
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
)
from .polynomials import (
    Polynomial,
    PolynomialParseError,
    VarSpace,
    parse_polynomial,
)
from .relaxation import POPProblem, SemialgebraicSet
from .sdp import Block, BlockData, ConicProgram
from .spectra import MAX_SYMBOLIC_SIDE, Pencil


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
    col: int = 0  # the file line's column of text[0], from 0

    def part(self, start: int, end: Optional[int] = None) -> "_Line":
        """text[start:end] at its own column of the file line."""
        return _Line(self.no, self.text[start:end], self.col + start)


# a section: its name, the line of its `[name]` header, and its lines
_Section = tuple[str, int, list[_Line]]


def _table(
    lines: Sequence[_Line], what: str, table: Optional[dict[str, _Line]] = None, fold: bool = True
) -> dict[str, _Line]:
    """`key: value` lines added to `table` as key -> value and line; a key's second line is an error.

    Keys are read in lower case unless `fold` is False (measure names).
    """
    table = {} if table is None else table
    for line in lines:
        if ":" not in line.text:
            raise ProblemFileError(f"expected `key: value` in {what} lines", line.no)
        key, value = line.text.split(":", 1)
        key = key.strip().lower() if fold else key.strip()
        if key in table:
            raise ProblemFileError(f"repeated {what} {key!r}", line.no)
        start = len(line.text) - len(value.lstrip())
        table[key] = line.part(start, start + len(value.strip()))
    return table


def _scan(text: str) -> tuple[dict[str, _Line], list[_Section]]:
    """Split into the leading `key: value` headers and [section] groups (names in single spaces)."""
    lines = [
        _Line(no, stripped, len(raw) - len(raw.lstrip()))
        for no, raw in enumerate(text.splitlines(), start=1)
        if (stripped := raw.split("#", 1)[0].strip())
    ]
    first = next((k for k, line in enumerate(lines) if line.text.startswith("[")), len(lines))
    headers = _table(lines[:first], "header")
    sections: list[_Section] = []
    for line in lines[first:]:
        if not line.text.startswith("["):
            sections[-1][2].append(line)
        elif line.text.endswith("]"):
            sections.append((" ".join(line.text[1:-1].split()), line.no, []))
        else:
            raise ProblemFileError("unterminated section header", line.no)
    if "kind" not in headers:
        raise ProblemFileError("missing `kind:` header", 1)
    return headers, sections


def _single_sections(
    sections: list[_Section], kind: str, key: Callable[[str, int], object]
) -> dict:
    """(header line, lines) of each section under `key(name, header line)`.

    `key` gives None for a name `kind` does not know.  Only [constraints]
    may repeat; its lines join in file order.
    """
    out: dict = {}
    for name, no, lines in sections:
        k = key(name, no)
        if k is None:
            raise ProblemFileError(f"unknown section [{name}] in a {kind} file", no)
        if k in out and k != "constraints":
            raise ProblemFileError(f"repeated section [{name}]", no)
        out.setdefault(k, (no, []))[1].extend(lines)
    return out


def _lines(sections: dict, key: str) -> list[_Line]:
    """The lines of a section of `_single_sections`; none when it is absent."""
    return sections[key][1] if key in sections else []


def _indexed(name: str, head: str, no: int) -> Optional[int]:
    """k of a `[head k]` section, None for another name."""
    parts = name.split()
    if len(parts) != 2 or parts[0] != head:
        return None
    return _number(parts[1], no, f"an integer [{head} k] index", int)


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
    """Report a constructor's ValueError or MemoryError as a ProblemFileError at `line`."""
    try:
        yield
    except ProblemFileError:
        raise
    except (ValueError, MemoryError) as e:
        raise ProblemFileError(str(e), line) from None


def _poly(part: _Line, space: VarSpace) -> Polynomial:
    """The polynomial of a line or part of one; a parse error names the file line's column."""
    try:
        return parse_polynomial(part.text, space)
    except PolynomialParseError as e:
        raise ProblemFileError(e.reason, part.no, part.col + e.column + 1)


_REL = re.compile(r"==|>=|<=")


def _relation(line: _Line) -> tuple[_Line, str, _Line]:
    """The left side, relation and right side of a constraint line."""
    found = list(_REL.finditer(line.text))
    if len(found) != 1:
        raise ProblemFileError("constraint needs exactly one of ==, >=, <=", line.no)
    rel = found[0]
    return line.part(0, rel.start()), rel.group(), line.part(rel.end())


def _objective(sections: dict) -> Optional[tuple[str, _Line]]:
    """The sense (min or max) and the body of the one [objective] line; None without one."""
    lines = _lines(sections, "objective")
    if len(lines) > 1:
        raise ProblemFileError("an [objective] has one line", lines[1].no)
    for line in lines:
        sense = line.text[:3].lower()
        if sense not in ("min", "max"):
            raise ProblemFileError("objective lines start with min or max", line.no)
        return sense, line.part(3)
    return None


def _parse_support(
    lines: list[_Line], space: VarSpace, ball: Optional[_Line] = None
) -> SemialgebraicSet:
    """Constraint lines and at most one `ball: R`, which `ball` (a pop's header) may give."""
    ineqs: list[Polynomial] = []
    eqs: list[Polynomial] = []
    keyed: list[_Line] = []
    for line in lines:
        if line.text.lower().startswith("ball:"):
            keyed.append(line)
            continue
        lhs, rel, rhs = _relation(line)
        pl, pr = _poly(lhs, space), _poly(rhs, space)
        if rel == "==":
            eqs.append(pl - pr)
        else:
            ineqs.append(pl - pr if rel == ">=" else pr - pl)
    ball = _table(keyed, "key", {"ball": ball} if ball else None).get("ball")
    if ball is None:
        return SemialgebraicSet(space, ineqs, eqs)
    radius = _number(ball.text, ball.no, "a rational ball radius")
    with _at(ball.no):  # only a radius <= 0 fails
        return SemialgebraicSet(space, ineqs, eqs, ball_radius=radius)


# -- pop ----------------------------------------------------------------------


def _parse_pop(headers: dict[str, _Line], sections: list[_Section]) -> POPProblem:
    if "variables" not in headers:
        raise ProblemFileError("pop files need a `variables:` header", 1)
    with _at(headers["variables"].no):
        space = VarSpace(tuple(headers["variables"].text.split()))
    secs = _single_sections(
        sections, "pop", lambda name, no: name if name in ("objective", "constraints") else None
    )
    objective = _objective(secs)
    if objective is None:
        raise ProblemFileError("pop files need an [objective] section", 1)
    sense, body = objective
    if sense != "min":
        raise ProblemFileError("pop objectives are minimized: write `min <poly>`", body.no)
    return POPProblem(
        objective=_poly(body, space),
        feasible_set=_parse_support(_lines(secs, "constraints"), space, headers.get("ball")),
    )


# -- gmp ------------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# a term of a moment sum, after its signs: mass(name) or <poly, name>
_TERM = re.compile(
    rf"\s*(?P<signs>[-+\s]*)"
    rf"(?:mass\(\s*(?P<mass>{_NAME})\s*\)|<(?P<poly>[^,<>]+),\s*(?P<name>{_NAME})\s*>)"
)


def _parse_moment_sum(line: _Line, spaces: dict[str, VarSpace]) -> list[tuple[str, Polynomial]]:
    """Sum of `<poly, measure>` terms (or mass(name)), each but the first after + or -."""
    text, line_no = line.text, line.no
    terms: list[tuple[str, Polynomial]] = []
    pos = 0
    while text[pos:].strip():
        m = _TERM.match(text, pos)
        if m is None or (terms and not m.group("signs").strip()):
            rest = text[pos:].strip()
            raise ProblemFileError(f"expected `<poly, measure>` or `mass(name)`, got {rest!r}", line_no)
        name = m.group("mass") or m.group("name")
        if name not in spaces:
            raise ProblemFileError(f"unknown measure {name!r}", line_no)
        sign = -1 if m.group("signs").count("-") % 2 else 1
        if m.group("mass"):
            terms.append((name, Polynomial.constant(spaces[name].n, sign)))
        else:
            terms.append((name, _poly(line.part(*m.span("poly")), spaces[name]) * sign))
        pos = m.end()
    if not terms:
        raise ProblemFileError("empty moment expression", line_no)
    return terms


def _gmp_section(name: str, no: int) -> Optional[str]:
    if name.split()[:1] == ["support"]:
        if len(name.split()) != 2:
            raise ProblemFileError("support sections are [support <measure>]", no)
        return name
    return name if name in ("measures", "dynamics", "constraints", "objective") else None


def _parse_gmp(sections: list[_Section]) -> GMPFileData:
    secs = _single_sections(sections, "gmp", _gmp_section)
    dyn: Optional[DynamicsSpec] = None
    spaces: dict[str, VarSpace] = {}
    if "dynamics" in secs:
        if "measures" in secs:
            raise ProblemFileError(
                "[measures] and [dynamics] are mutually exclusive; dynamics implies its measures",
                secs["measures"][0],
            )
        dyn = _parse_dynamics(*secs["dynamics"])
        spaces = dyn.measure_spaces()
    for mname, line in _table(_lines(secs, "measures"), "measure", fold=False).items():
        if not line.text:
            raise ProblemFileError("measure needs at least one variable", line.no)
        with _at(line.no):
            spaces[mname] = VarSpace(tuple(line.text.split()))

    for k, (no, _) in secs.items():
        if k.startswith("support ") and k.split()[1] not in spaces:
            raise ProblemFileError(f"support given for undeclared measure {k.split()[1]!r}", no)
    measures = [
        MeasureDecl(m, _parse_support(_lines(secs, f"support {m}"), space))
        for m, space in spaces.items()
    ]

    constraints: list[MomentConstraint] = []
    for line in _lines(secs, "constraints"):
        lhs, rel, rhs = _relation(line)
        constraints.append(MomentConstraint(
            _parse_moment_sum(lhs, spaces),
            _number(rhs.text.strip(), line.no, "a rational right-hand side"),
            {"==": "eq", ">=": "ge", "<=": "le"}[rel],
        ))
    sense, body = _objective(secs) or ("min", None)
    return GMPFileData(
        measures=measures,
        constraints=constraints,
        objective=_parse_moment_sum(body, spaces) if body else None,
        sense=sense,
        dynamics=dyn,
    )


_DYNAMICS_KEYS = ("horizon", "state", "control", "initial", "terminal", "lagrangian", "terminal_cost")


def _endpoint(line: _Line) -> EndpointSpec:
    parts = line.text.split()
    if parts and parts[0] == "point":
        return tuple(_number(v, line.no, "a rational endpoint coordinate") for v in parts[1:])
    if len(parts) == 2 and parts[0] == "measure":
        return parts[1]
    raise ProblemFileError("endpoints are `point c1 c2 ...` or `measure name`", line.no)


def _parse_dynamics(first: int, lines: list[_Line]) -> DynamicsSpec:
    """The [dynamics] section whose header is on line `first`."""
    keys: list[_Line] = []
    groups: list[list[_Line]] = []  # a `cell:` line and its f<i> lines
    for line in lines:
        key = line.text.split(":", 1)[0].strip().lower()
        if key == "cell":
            groups.append([line])
        elif re.fullmatch(r"f\d+", key):
            if not groups:
                raise ProblemFileError("f<i> lines belong to a `cell:` group", line.no)
            groups[-1].append(line)
        elif key in _DYNAMICS_KEYS or ":" not in line.text:
            keys.append(line)
        else:
            raise ProblemFileError(f"unknown dynamics key {key!r}", line.no)
    table = _table(keys, "dynamics key")
    states = tuple(table["state"].text.split()) if "state" in table else ()
    if not states:
        raise ProblemFileError("dynamics needs `state:` variables", first)
    if "horizon" not in table:
        raise ProblemFileError("dynamics needs `horizon: free` or `horizon: fixed T`", first)
    if "initial" not in table or "terminal" not in table:
        raise ProblemFileError("dynamics needs `initial:` and `terminal:`", first)
    if not groups:
        raise ProblemFileError("dynamics needs at least one `cell:` with f<i> lines", first)

    horizon = table["horizon"]
    T: Optional[Fraction] = None
    if horizon.text != "free":
        parts = horizon.text.split()
        if len(parts) != 2 or parts[0] != "fixed":
            raise ProblemFileError("horizon is `free` or `fixed T`", horizon.no)
        T = _number(parts[1], horizon.no, "a rational horizon")
    controls = tuple(table["control"].text.split()) if "control" in table else ()
    with _at(first):
        dspace = VarSpace((TIME_VAR,) + states + controls)
    fields = [f"f{i}" for i in range(1, len(states) + 1)]
    cells: list[tuple[str, list[Polynomial]]] = []
    for group in groups:
        fs = _table(group, "cell key")
        cname = fs.pop("cell").text
        for key, line in fs.items():
            if key not in fields:
                raise ProblemFileError(
                    f"cell {cname!r} takes {' '.join(fields)} (one per state), not {key}", line.no
                )
        for key in fields:
            if key not in fs:
                raise ProblemFileError(f"cell {cname!r} is missing {key}", group[0].no)
        cells.append((cname, [_poly(fs[key], dspace) for key in fields]))

    def poly(key: str, space: VarSpace, default: Optional[Polynomial]) -> Optional[Polynomial]:
        return _poly(table[key], space) if key in table else default

    with _at(first):
        return DynamicsSpec(
            states=states,
            cells=cells,
            lagrangian=poly("lagrangian", dspace, Polynomial.zero(dspace.n)),
            initial=_endpoint(table["initial"]),
            terminal=_endpoint(table["terminal"]),
            controls=controls,
            terminal_cost=poly("terminal_cost", VarSpace(states), None),
            horizon=T,
        )


def moment_sum_text(terms: Sequence[tuple[str, Polynomial]], spaces: dict[str, VarSpace]) -> str:
    """`<poly, measure>` terms joined by " + ", each poly over its measure's space; "0" if none."""
    return " + ".join(f"<{poly.to_string(spaces[name])}, {name}>" for name, poly in terms) or "0"


# -- sdp ------------------------------------------------------------------------


def _sdp_value(tok: str) -> float:
    return float(Fraction(tok)) if "/" in tok else float(tok)


def _entry(line: _Line, shape: str, parse: Callable) -> tuple[list[int], object]:
    """The integer indices and the `parse`d value of an entry line laid out as `shape`."""
    *indices, value = line.text.split()
    if len(indices) + 1 != len(shape.split()):
        raise ProblemFileError(f"entries are `{shape}`", line.no)
    return (
        [_number(t, line.no, "an integer entry index", int) for t in indices],
        _number(value, line.no, "a finite entry value", parse),
    )


def _sdp_entry(line: _Line, blocks: list[Block]) -> tuple[int, list[int], float]:
    """Block, flattened cells (both triangles) and value of a `block i j value` line."""
    (bi, i, j), v = _entry(line, "block i j value", _sdp_value)
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
    """[A k] sections are keyed by k, the others by name."""
    secs = _single_sections(
        sections,
        "sdp",
        lambda name, no: name if name in ("blocks", "b", "C") else _indexed(name, "A", no),
    )
    if "blocks" not in secs:
        raise ProblemFileError("sdp files need a [blocks] section", 1)
    blocks_no, lines = secs["blocks"]
    blocks: list[Block] = []
    C: list[np.ndarray] = []
    for line in lines:
        parts = line.text.split()
        if len(parts) != 2:
            raise ProblemFileError("block lines are `kind size`", line.no)
        size = _number(parts[1], line.no, "an integer block size", int)
        with _at(line.no):  # a size numpy cannot allocate fails here too
            blocks.append(Block(parts[0], size))  # type: ignore[arg-type]
            C.append(np.zeros(blocks[-1].shape))
    b = [
        _number(t, line.no, "a finite value", _sdp_value)
        for line in _lines(secs, "b")
        for t in line.text.split()
    ]
    # a later entry for the same cell overwrites an earlier one
    cells: list[dict[tuple[int, int], float]] = [{} for _ in blocks]
    for k, (no, lines) in secs.items():
        if k in ("blocks", "b"):
            continue
        if k != "C" and not 1 <= k <= len(b):
            raise ProblemFileError(f"constraint index {k} out of range (m = {len(b)})", no)
        for line in lines:
            bi, cols, v = _sdp_entry(line, blocks)
            if k == "C":
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


# -- pencil ---------------------------------------------------------------------


def _parse_pencil(headers: dict[str, _Line], sections: list[_Section]) -> Pencil:
    if "variables" not in headers or "side" not in headers:
        raise ProblemFileError("pencil files need `variables:` and `side:` headers", 1)
    with _at(headers["variables"].no):
        n = VarSpace(tuple(headers["variables"].text.split())).n
    side_line = headers["side"]
    side = _number(side_line.text, side_line.no, "an integer matrix side", int)
    if not 1 <= side <= MAX_SYMBOLIC_SIDE:
        raise ProblemFileError(f"a pencil's side is 1 to {MAX_SYMBOLIC_SIDE}, got {side}", side_line.no)

    def index(name: str, no: int) -> Optional[int]:
        if name == "F0":
            return 0
        k = _indexed(name, "F", no)
        if k is not None and not 1 <= k <= n:
            raise ProblemFileError(f"pencil matrix index {k} out of range", no)
        return k

    mats = [[[Fraction(0)] * side for _ in range(side)] for _ in range(n + 1)]
    for k, (_, lines) in _single_sections(sections, "pencil", index).items():
        for line in lines:
            (i, j), v = _entry(line, "i j value", Fraction)
            if not (1 <= i <= side and 1 <= j <= side):
                raise ProblemFileError(f"entry ({i},{j}) outside the {side}x{side} matrix", line.no)
            mats[k][i - 1][j - 1] = mats[k][j - 1][i - 1] = v
    return Pencil(
        nvars=n, side=side, coefficients=[tuple(tuple(row) for row in M) for M in mats]
    )


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
