"""Block supermatrices over a supercommutative ring, with the formal odd unit.

A matrix carries a row split r0|r1 and a column split c0|c1.  Blocks B1
(even rows x even cols) and B4 (odd x odd) hold even entries, B2 and B3 hold
odd entries.  Besides plain ring elements an entry may be the formal symbol
1nu, which multiplies by the rule  z * 1nu = 1nu * z = nu(z).  matmul, on
nested lists, is the kernel's one matrix product and carries that rule;
smat_mul and smat_inv are the product and inverse on SuperMatrix.  The
paper's column operators (the minors M and M' and the remainder D) are
test references, in tests/paper_reference.py.

Entries are duck-typed: SuperFunction and GrassmannNumber both provide the
required +, -, *, add_product(), parity(), nu(), inv(), has_body(),
is_zero(), ring_one(), ring_zero().
"""

from __future__ import annotations

from .errors import DoubleNu, NuEntriesPresent
from .linalg import inverse


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
    __slots__ = ("row_split", "col_split", "entries", "proto")

    def __init__(self, row_split, col_split, entries, proto, validate=True):
        """proto: any zero element of the entry ring (used to mint 0 and 1)."""
        self.row_split = (int(row_split[0]), int(row_split[1]))
        self.col_split = (int(col_split[0]), int(col_split[1]))
        self.entries = [list(row) for row in entries]
        self.proto = proto
        if validate:
            self._validate()

    @property
    def nrows(self) -> int:
        return self.row_split[0] + self.row_split[1]

    @property
    def ncols(self) -> int:
        return self.col_split[0] + self.col_split[1]

    def block_parity(self, i: int, j: int) -> int:
        return int((i >= self.row_split[0]) ^ (j >= self.col_split[0]))

    def _validate(self):
        if len(self.entries) != self.nrows:
            raise ValueError("row count mismatch")
        for i, row in enumerate(self.entries):
            if len(row) != self.ncols:
                raise ValueError("column count mismatch")
            for j, e in enumerate(row):
                want = self.block_parity(i, j)
                if is_nu(e):
                    if want != 1:
                        raise ValueError(f"1nu in an even block at ({i},{j})")
                    continue
                p = e.parity()
                if p is None or (p != want and not e.is_zero()):
                    raise ValueError(
                        f"entry at ({i},{j}) has parity {p}, block wants {want}"
                    )

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n0: int, n1: int, proto) -> "SuperMatrix":
        one = proto.ring_one()
        zero = proto.ring_zero()
        n = n0 + n1
        entries = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return cls((n0, n1), (n0, n1), entries, proto, validate=False)

    # -- basic structure -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if self.row_split != other.row_split or self.col_split != other.col_split:
            return False
        for ra, rb in zip(self.entries, other.entries):
            for a, b in zip(ra, rb):
                if is_nu(a) != is_nu(b):
                    return False
                if not is_nu(a) and a != b:
                    return False
        return True

    def has_nu(self) -> bool:
        return any(is_nu(e) for row in self.entries for e in row)

    def __repr__(self):
        return format_blocked(
            [[repr(e) for e in row] for row in self.entries],
            self.row_split[0],
            self.col_split[0],
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self, entry_to_dict) -> dict:
        return {
            "row_split": list(self.row_split),
            "col_split": list(self.col_split),
            "entries": [
                ["1nu" if is_nu(e) else entry_to_dict(e) for e in row]
                for row in self.entries
            ],
        }

    @classmethod
    def from_dict(cls, data: dict, entry_from_dict, proto) -> "SuperMatrix":
        entries = [
            [NU if e == "1nu" else entry_from_dict(e) for e in row]
            for row in data["entries"]
        ]
        return cls(tuple(data["row_split"]), tuple(data["col_split"]), entries, proto)


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
    out = matmul(A.entries, B.entries, A.proto.ring_zero())
    return SuperMatrix(A.row_split, B.col_split, out, A.proto, validate=False)


def smat_inv(A: SuperMatrix) -> SuperMatrix:
    """Exact two-sided inverse, solving  A X = 1  with body-invertible pivots."""
    if A.row_split != A.col_split:
        raise ValueError("inversion needs matching row and column splits")
    if A.has_nu():
        raise NuEntriesPresent("route odd units away before inverting")
    return SuperMatrix(A.row_split, A.col_split, inverse(A.entries), A.proto, validate=False)


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
