"""Block supermatrices over a supercommutative ring, with the formal odd unit.

A matrix carries a row split r0|r1 and a column split c0|c1.  Blocks B1
(even rows x even cols) and B4 (odd x odd) hold even entries, B2 and B3 hold
odd entries.  Besides plain ring elements an entry may be the formal symbol
1nu, which multiplies by the rule  z * 1nu = 1nu * z = nu(z).  SuperMatrix
is the one matrix type: as its subclass action.GLPoint, a point of GL(m|n)
over Lambda_r, and in the tests a chart label over the chart ring.  Its constructor
checks what it is given; SuperMatrix._of takes a value the kernel built.
matmul, on nested lists, is the kernel's one matrix product and carries the
odd-unit rule; smat_mul and smat_inv are the product and inverse on
SuperMatrix.  The paper's column operators (the minors M and M' and the
remainder D) are test references, in tests/paper_reference.py.

Entries are duck-typed: SuperFunction and GrassmannNumber both provide the
required +, -, *, add_product(), parity(), nu(), inv(), has_body(),
is_zero(), ring_one(), ring_zero().
"""

from __future__ import annotations

from .errors import DoubleNu, NuEntriesPresent
from .linalg import inverse
from .superalgebra import GrassmannNumber


class NuSymbol:
    """The formal odd unit 1nu appearing in non-standard identities."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "1nu"


NU = NuSymbol()


def is_nu(entry) -> bool:
    return entry is NU


class SuperMatrix:
    """A block supermatrix: row split r0|r1, column split c0|c1, entries as
    a list of rows, and proto, a zero of the entry ring (used to mint 0 and
    1).  The constructor checks the shape, the ring of each entry and its
    block parity; values the kernel builds come through _of unchecked."""

    __slots__ = ("row_split", "col_split", "entries", "proto")

    def __init__(self, row_split, col_split, entries, proto):
        self.row_split = (int(row_split[0]), int(row_split[1]))
        self.col_split = (int(col_split[0]), int(col_split[1]))
        self.entries = entries = [list(row) for row in entries]
        self.proto = proto
        r0, c0 = self.row_split[0], self.col_split[0]
        ncols = sum(self.col_split)
        if len(entries) != sum(self.row_split) or any(len(row) != ncols for row in entries):
            raise ValueError("shape mismatch")
        for i, row in enumerate(entries):
            for j, e in enumerate(row):
                want = int((i >= r0) ^ (j >= c0))
                if is_nu(e):
                    if want != 1:
                        raise ValueError(f"1nu in an even block at ({i},{j})")
                    continue
                if e.ring_zero() != proto:
                    raise ValueError(f"entry ({i},{j}) is in {_ring(e)}, not {_ring(proto)}")
                p = e.parity()
                if p is None or (p != want and not e.is_zero()):
                    raise ValueError(f"entry ({i},{j}) has parity {p}, block wants {want}")

    @classmethod
    def _of(cls, row_split, col_split, entries, proto):
        """A value the kernel built, taken as it is: no copy and no check."""
        A = object.__new__(cls)
        A.row_split = row_split
        A.col_split = col_split
        A.entries = entries
        A.proto = proto
        return A

    @classmethod
    def identity(cls, n0: int, n1: int, proto) -> "SuperMatrix":
        one = proto.ring_one()
        n = n0 + n1
        entries = [[one if i == j else proto for j in range(n)] for i in range(n)]
        return cls._of((n0, n1), (n0, n1), entries, proto)

    def __eq__(self, other):
        # NU is a singleton without __eq__: it equals itself and no ring element
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (self.row_split, self.col_split, self.entries) == (
            other.row_split, other.col_split, other.entries)

    def __repr__(self):
        return format_blocked(
            [[repr(e) for e in row] for row in self.entries],
            self.row_split[0],
            self.col_split[0],
        )


def _ring(x) -> str:
    """The name of an element's ring: Lambda_r, or a chart ring's context."""
    return f"Lambda_{x.r}" if isinstance(x, GrassmannNumber) else repr(x.ctx)


def matmul(A, B, zero):
    """Row-by-column product of nested lists, the one product of the kernel.

    A formal odd unit multiplies by  z 1nu = 1nu z = nu(z);  two odd units
    never meet.  Zero factors are skipped: each entry of B is tested once
    per product, and the zero entries of a row of A are dropped once per row.
    """
    ncols = len(B[0]) if B else 0
    # row k of B with None in place of its zero entries
    live = [[b if b is NU or not b.is_zero() else None for b in brow] for brow in B]
    out = []
    for i, arow in enumerate(A):
        factors = [(a, brow) for a, brow in zip(arow, live) if a is NU or not a.is_zero()]
        row = []
        for j in range(ncols):
            acc = zero
            for a, brow in factors:
                b = brow[j]
                if b is None:
                    continue
                if a is NU:
                    if b is NU:
                        raise DoubleNu(f"two odd units meet at ({i},{j})")
                    acc = acc + b.nu()
                elif b is NU:
                    acc = acc + a.nu()
                else:
                    acc = acc.add_product(a, b)
            row.append(acc)
        out.append(row)
    return out


def smat_mul(A: SuperMatrix, B: SuperMatrix) -> SuperMatrix:
    """Row-by-column product; 1nu factors resolve through the involution."""
    if A.col_split != B.row_split:
        raise ValueError(f"split mismatch: {A.col_split} vs {B.row_split}")
    out = matmul(A.entries, B.entries, A.proto)
    return SuperMatrix._of(A.row_split, B.col_split, out, A.proto)


def smat_inv(A: SuperMatrix) -> SuperMatrix:
    """Exact two-sided inverse, solving  A X = 1  with body-invertible pivots."""
    if A.row_split != A.col_split:
        raise ValueError("inversion needs matching row and column splits")
    if any(is_nu(e) for row in A.entries for e in row):
        raise NuEntriesPresent("route odd units away before inverting")
    return SuperMatrix._of(A.row_split, A.col_split, inverse(A.entries), A.proto)


def format_blocked(tokens, r0: int, c0: int) -> str:
    """Bracket-and-divider layout mirroring the block structure."""
    if not tokens:
        return "[]"
    ncols = len(tokens[0])
    widths = [max(len(row[j]) for row in tokens) for j in range(ncols)]
    lines = []
    for i, row in enumerate(tokens):
        cells = []
        for j, tok in enumerate(row):
            cells.append(tok.rjust(widths[j]))
            if j + 1 == c0 and c0 < ncols:
                cells.append("|")
        lines.append("[ " + " ".join(cells) + " ]")
        if i + 1 == r0 and r0 < len(tokens):
            lines.append("-" * len(lines[-1]))
    return "\n".join(lines)
