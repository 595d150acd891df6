"""Symmetrizable Cartan data, Serre quotients and Verma modules.

The negative nilpotent algebra is presented on generators theta_1..theta_r
modulo the Serre relations ad(theta_j)^(1-a_jk)(theta_k) = 0.  Its universal
envelope is handled weight space by weight space: words of a fixed
multidegree span the free weight space, the Serre ideal's span is row-reduced
over Q to a reduced echelon basis, and the surviving (non-pivot) words form a
canonical basis of the quotient.  Verma vectors are finite combinations of
basis words, each of which fixes its depth; E/H/F act exactly.

Weight convention: the module labelled by hw = (<H_1,lam>, ..., <H_r,lam>)
satisfies H_i v = (<H_i,lam> - 1) v on the highest-weight vector, i.e. the
label is shifted by the Weyl vector (<H_i,rho> = 1).
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Sequence

from .scalars import QQ, Combination, ParameterContext, ParamScalar

Word = tuple  # tuple of 0-based generator indices
Depth = tuple  # multidegree: how many times each generator occurs

__all__ = [
    "CartanData",
    "WeightSpace",
    "VermaModule",
    "VermaVector",
    "words_of_degree",
    "serre_element",
    "partial_derivation",
    "gen",
    "br",
]


class CartanData:
    """A symmetrizable generalized Cartan matrix with symmetrizers."""

    __slots__ = ("matrix", "sym", "name", "_ws_cache")

    def __init__(self, matrix: Sequence[Sequence[int]], name: str = ""):
        matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        r = len(matrix)
        if any(len(row) != r for row in matrix):
            raise ValueError("Cartan matrix must be square")
        for i in range(r):
            if matrix[i][i] != 2:
                raise ValueError("diagonal entries must equal 2")
            for j in range(r):
                if i != j:
                    if matrix[i][j] > 0:
                        raise ValueError("off-diagonal entries must be <= 0")
                    if (matrix[i][j] == 0) != (matrix[j][i] == 0):
                        raise ValueError("zero pattern must be symmetric")
        self.matrix = matrix
        self.sym = self._symmetrize()
        self.name = name or "rank%d" % r
        self._ws_cache: dict = {}

    def _symmetrize(self) -> tuple:
        r = len(self.matrix)
        d = [None] * r
        for start in range(r):
            if d[start] is not None:
                continue
            d[start] = QQ(1)
            queue = [start]
            while queue:
                i = queue.pop()
                for j in range(r):
                    if i != j and self.matrix[i][j] != 0:
                        dj = d[i] * QQ(self.matrix[i][j], self.matrix[j][i])
                        if d[j] is None:
                            d[j] = dj
                            queue.append(j)
                        elif d[j] != dj:
                            raise ValueError("Cartan matrix is not symmetrizable")
        return tuple(d)

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def a(self, i: int, j: int) -> int:
        """<H_i, alpha_j>."""
        return self.matrix[i][j]

    def __repr__(self):
        return "CartanData(%s)" % self.name

    # -- standard instances -------------------------------------------------

    @classmethod
    def sl2(cls):
        return cls([[2]], name="A1")

    @classmethod
    def sl3(cls):
        return cls([[2, -1], [-1, 2]], name="A2")

    @classmethod
    def b2(cls):
        return cls([[2, -1], [-2, 2]], name="B2")

    @classmethod
    def g2(cls):
        return cls([[2, -1], [-3, 2]], name="G2")

    # -- weights --------------------------------------------------------------

    def reflect(self, hw: tuple, i: int) -> tuple:
        """Simple reflection on the pairing vector: <H_j, r_i lam>."""
        return tuple(hw[j] - hw[i] * self.matrix[j][i] for j in range(self.rank))

    def weight_sequence(self, hw: tuple, reflections: Sequence[int]) -> list:
        """lam_1 = hw, lam_{p+1} = r_{i_p} lam_p for the given index word."""
        out = [tuple(hw)]
        for i in reflections:
            out.append(self.reflect(out[-1], i))
        return out


def words_of_degree(depth: Depth) -> list:
    """All words with the given letter multiplicities, lexicographically."""
    letters = []
    for i, n in enumerate(depth):
        letters.extend([i] * n)
    if not letters:
        return [()]
    out = sorted(set(itertools.permutations(letters)))
    return out


def serre_element(cd: CartanData, j: int, k: int) -> dict:
    """ad(theta_j)^(1-a_jk)(theta_k) expanded in the free algebra."""
    if j == k:
        raise ValueError("Serre element needs distinct indices")
    a = 1 - cd.a(j, k)
    out = {}
    for p in range(a + 1):
        word = (j,) * (a - p) + (k,) + (j,) * p
        out[word] = QQ((-1) ** p * comb(a, p))
    return out


def _word_depth(word: Word, rank: int) -> Depth:
    d = [0] * rank
    for i in word:
        d[i] += 1
    return tuple(d)


class WeightSpace:
    """One multidegree slice of U(n_-) with its Serre-ideal echelon basis."""

    __slots__ = ("cd", "depth", "words", "index", "rows", "basis_words")

    def __init__(self, cd: CartanData, depth: Depth):
        self.cd = cd
        self.depth = tuple(depth)
        self.words = words_of_degree(self.depth)
        self.index = {w: n for n, w in enumerate(self.words)}
        self.rows = {}
        self._build_ideal()
        pivots = set(self.rows)
        self.basis_words = [w for n, w in enumerate(self.words) if n not in pivots]

    def _build_ideal(self):
        cd, depth = self.cd, self.depth
        r = cd.rank
        for j in range(r):
            for k in range(r):
                if j == k:
                    continue
                rel = serre_element(cd, j, k)
                rel_depth = _word_depth(next(iter(rel)), r)
                free = tuple(d - s for d, s in zip(depth, rel_depth))
                if any(x < 0 for x in free):
                    continue
                for left in _split_degrees(free):
                    right = tuple(f - l for f, l in zip(free, left))
                    for u in words_of_degree(left):
                        for v in words_of_degree(right):
                            vec = {}
                            for mid, c in rel.items():
                                idx = self.index[u + mid + v]
                                vec[idx] = vec.get(idx, QQ(0)) + c
                            self._insert({i: c for i, c in vec.items() if c})

    def _insert(self, vec: dict):
        rows = self.rows
        # rows never contain other pivots, so one pass clears every pivot column
        for p in sorted(set(vec) & set(rows)):
            c = vec.get(p)
            if not c:
                continue
            for i, rc in rows[p].items():
                s = vec.get(i, QQ(0)) - c * rc
                if s:
                    vec[i] = s
                else:
                    vec.pop(i, None)
        if not vec:
            return
        p = min(vec)
        inv = 1 / vec[p]
        row = {i: c * inv for i, c in vec.items()}
        # eliminate the new pivot from existing rows: reduced echelon invariant
        for other in rows.values():
            c = other.get(p)
            if c:
                for i, rc in row.items():
                    s = other.get(i, QQ(0)) - c * rc
                    if s:
                        other[i] = s
                    else:
                        other.pop(i, None)
        rows[p] = row

    def reduce(self, combo: dict) -> dict:
        """Normal form of {word: scalar} as coordinates on basis words."""
        acc: dict = {}
        for w, c in combo.items():
            if not c:
                continue
            n = self.index[w]
            if n in self.rows:
                for i, rc in self.rows[n].items():
                    if i == n:
                        continue
                    # pivot word rewrites as minus the rest of its row
                    acc[i] = acc.get(i, 0) - c * rc
            else:
                acc[n] = acc.get(n, 0) + c
        out = {}
        for n, c in acc.items():
            if n in self.rows:
                raise AssertionError("reduced echelon rows must eliminate pivots")
            if c:
                out[self.words[n]] = c
        return out


def _split_degrees(bound: Depth) -> Iterable[Depth]:
    ranges = [range(b + 1) for b in bound]
    return itertools.product(*ranges)


def weight_space(cd: CartanData, depth: Depth) -> WeightSpace:
    depth = tuple(depth)
    ws = cd._ws_cache.get(depth)
    if ws is None:
        ws = WeightSpace(cd, depth)
        cd._ws_cache[depth] = ws
    return ws


def _by_depth(combo: dict, rank: int) -> dict:
    """A {word: scalar} map grouped as {depth: {word: scalar}}."""
    out: dict = {}
    for w, c in combo.items():
        out.setdefault(_word_depth(w, rank), {})[w] = c
    return out


def _reduce_full(cd: CartanData, combo: dict) -> dict:
    """Normal form of a mixed-degree {word: scalar} map."""
    out = {}
    for depth, part in _by_depth(combo, cd.rank).items():
        out.update(weight_space(cd, depth).reduce(part))
    return out


def partial_derivation(cd: CartanData, i: int, combo: dict) -> dict:
    """The derivation with partial_i(theta_j) = delta_ij, by letter deletion."""
    acc: dict = {}
    for w, c in combo.items():
        for p, letter in enumerate(w):
            if letter == i:
                dw = w[:p] + w[p + 1 :]
                acc[dw] = acc.get(dw, 0) + c
    return _reduce_full(cd, acc)


# ---------------------------------------------------------------------------
# bracket trees in the free Lie algebra on E_i, H_i, F_i


def gen(kind: str, i: int = 0):
    if kind not in ("e", "h", "f"):
        raise ValueError("generator kind must be e, h or f")
    return (kind, i)


def br(x, y):
    return ("br", x, y)


# ---------------------------------------------------------------------------
# Verma modules


class VermaVector(Combination):
    """Finite combination of basis words with exact coefficients.

    ``terms`` maps a basis word of its weight space to a nonzero scalar; a
    word fixes its depth, so ``parts`` regroups the terms by depth.  Sums
    are `Combination`'s, over ``module``.
    """

    __slots__ = ("module",)
    _space = "module"

    def __init__(self, module: "VermaModule", terms: dict):
        self.module = module
        self.terms = {w: c for w, c in terms.items() if c}

    def _like(self, terms: dict) -> "VermaVector":
        return VermaVector(self.module, terms)

    def parts(self) -> dict:
        """The terms grouped by depth: {depth: {word: scalar}}."""
        return _by_depth(self.terms, self.module.cd.rank)

    def __rmul__(self, scalar):
        return VermaVector(self.module, {w: c * scalar for w, c in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for depth, part in sorted(self.parts().items()):
            for w, c in sorted(part.items()):
                mono = "".join("F%d" % (i + 1) for i in w) or "1"
                bits.append("(%s)*%s v" % (c, mono))
        return " + ".join(bits)

    __repr__ = __str__


class VermaModule:
    """Verma module over the Kac-Moody data with pairing labels hw."""

    def __init__(self, cd: CartanData, hw: Sequence, ctx: ParameterContext):
        self.cd = cd
        self.ctx = ctx
        self.hw = tuple(ctx.scalar(x) for x in hw)
        if len(self.hw) != cd.rank:
            raise ValueError("need one weight label per simple root")

    def zero(self) -> VermaVector:
        return VermaVector(self, {})

    def vacuum(self) -> VermaVector:
        return VermaVector(self, {(): self.ctx.one()})

    def basis_vectors(self, depth: Depth) -> list:
        ws = weight_space(self.cd, depth)
        one = self.ctx.one()
        return [VermaVector(self, {w: one}) for w in ws.basis_words]

    def h_eigenvalue(self, i: int, depth: Depth) -> ParamScalar:
        """H_i on the depth slice: <H_i, lam - rho> minus the root shifts."""
        shift = sum(self.cd.a(i, j) * depth[j] for j in range(self.cd.rank))
        return self.hw[i] - (1 + shift)

    # -- Chevalley actions -----------------------------------------------------

    def f(self, i: int, vec: VermaVector) -> VermaVector:
        return VermaVector(self, _reduce_full(self.cd, {(i,) + w: c for w, c in vec.terms.items()}))

    def h(self, i: int, vec: VermaVector) -> VermaVector:
        out = {}
        for depth, part in vec.parts().items():
            ev = self.h_eigenvalue(i, depth)
            out.update((w, c * ev) for w, c in part.items())
        return VermaVector(self, out)

    def e(self, i: int, vec: VermaVector) -> VermaVector:
        """E_i by deleting occurrences of theta_i.

        [E_i, theta_{j1}..theta_{jm}] inserts H_i at each matching slot; H_i
        commuted to the right past the suffix picks up -sum a_{i,j_l}, and on
        the vacuum contributes <H_i, lam - rho>.
        """
        base = self.hw[i] - 1
        acc: dict = {}
        cd = self.cd
        for w, c in vec.terms.items():
            suffix_shift = 0
            # iterate from the right so the suffix pairing accumulates
            for p in range(len(w) - 1, -1, -1):
                if w[p] == i:
                    coeff = c * (base - suffix_shift)
                    dw = w[:p] + w[p + 1 :]
                    if coeff:
                        acc[dw] = acc.get(dw, 0) + coeff
                suffix_shift += cd.a(i, w[p])
        # a word fixes its depth, so the images of different depths never merge
        return VermaVector(self, _reduce_full(cd, acc))

    def act(self, tree, vec: VermaVector) -> VermaVector:
        """Action of a bracket tree via nested commutators."""
        kind = tree[0]
        if kind == "br":
            _, x, y = tree
            return self.act(x, self.act(y, vec)) - self.act(y, self.act(x, vec))
        _, i = tree
        if kind == "e":
            return self.e(i, vec)
        if kind == "h":
            return self.h(i, vec)
        return self.f(i, vec)

    def multiply_right(self, vec: VermaVector, word: Word) -> VermaVector:
        """x v -> (x * theta_word) v, the right regular shift used by screenings."""
        return VermaVector(self, _reduce_full(self.cd, {w + word: c for w, c in vec.terms.items()}))

    def apply_derivation(self, i: int, vec: VermaVector) -> VermaVector:
        return VermaVector(self, partial_derivation(self.cd, i, vec.terms))
