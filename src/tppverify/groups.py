"""Group backends: finite multiplication tables and explicit matrix groups."""

from __future__ import annotations

import random

from .matrices import Mat, mat_inv_exact, mat_inv_series


class GroupFormatError(ValueError):
    """A group descriptor violated its consistency contract."""


class TableGroup:
    """A finite group given by its multiplication table.

    Elements are indices 0..order-1.  Associativity is spot-checked on random
    triples at load; the inverse table is checked exactly.
    """

    mode = "table"

    def __init__(self, table, identity: int, inverse=None, check_triples: int = 64, seed: int = 0):
        self.table = [list(row) for row in table]
        n = len(self.table)
        if any(len(row) != n for row in self.table):
            raise GroupFormatError("multiplication table must be square")
        if any(not (0 <= x < n) for row in self.table for x in row):
            raise GroupFormatError("table entries out of range")
        self.order = n
        self.identity = identity
        if inverse is None:
            inverse = self._find_inverses()
        self.inverse = list(inverse)
        self._check(check_triples, seed)

    def _find_inverses(self):
        inv = [None] * self.order
        for g in range(self.order):
            for h in range(self.order):
                if self.table[g][h] == self.identity and self.table[h][g] == self.identity:
                    inv[g] = h
                    break
            if inv[g] is None:
                raise GroupFormatError(f"element {g} has no inverse")
        return inv

    def _check(self, check_triples, seed):
        e = self.identity
        for g in range(self.order):
            if self.table[e][g] != g or self.table[g][e] != g:
                raise GroupFormatError(f"identity axiom fails at element {g}")
            if self.table[g][self.inverse[g]] != e or self.table[self.inverse[g]][g] != e:
                raise GroupFormatError(f"inverse table inconsistent at element {g}")
        rng = random.Random(seed)
        for _ in range(check_triples):
            a = rng.randrange(self.order)
            b = rng.randrange(self.order)
            c = rng.randrange(self.order)
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise GroupFormatError(f"associativity fails on triple ({a},{b},{c})")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self):
        return range(self.order)

    @classmethod
    def cyclic(cls, n: int) -> "TableGroup":
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(table, identity=0, inverse=[(-i) % n for i in range(n)])

    def to_json(self):
        return {
            "type": "table",
            "table": self.table,
            "identity": self.identity,
            "inverse": self.inverse,
        }

    @classmethod
    def from_json(cls, obj) -> "TableGroup":
        _require(obj, "table", "identity")
        return cls(obj["table"], obj["identity"], obj.get("inverse"))


class MatrixGroupOps:
    """Explicit-matrix mode: exact matrices or 1-parameter series families."""

    mode = "matrix"

    def __init__(self, dim: int):
        self.dim = dim

    def mul(self, a: Mat, b: Mat) -> Mat:
        return a.matmul(b)

    def inv(self, a: Mat) -> Mat:
        if a.has_series_entries():
            return mat_inv_series(a)
        return mat_inv_exact(a)

    def to_json(self):
        return {"type": "matrix", "dim": self.dim}

    @classmethod
    def from_json(cls, obj) -> "MatrixGroupOps":
        _require(obj, "dim")
        try:
            return cls(int(obj["dim"]))
        except (TypeError, ValueError):
            raise GroupFormatError(
                f"matrix group descriptor has a malformed 'dim': {obj['dim']!r}") from None


def _require(obj, *keys):
    """Reject a group descriptor that lacks one of keys."""
    for key in keys:
        if key not in obj:
            raise GroupFormatError(f"{obj.get('type')} group descriptor is missing {key!r}")
