"""Exponent bookkeeping for the generator recursion.

Fix twists sigma_1 >= ... >= sigma_s >= 0 and let r be the number of positive
twists.  All exponent vectors alpha below live in Z^s_{>=0} and are supported
on the first r coordinates (the zero twists never contribute weight, so
allowing them would only create redundant multiples).  The weight of alpha is
<alpha, sigma> = sum alpha_i * sigma_i.

Three families parametrize the generator supply at a cutoff c:

  * below_weight_exponents(c):   alpha with weight < c  (the recursion range);
  * minimal_weight_exponents(c): the componentwise-minimal alpha with
    weight >= c (first exponents past the cutoff);
  * weight_drop_monomials(c):    triples (j, k, alpha) with alpha minimal and
    j + k = weight(alpha) - c, splitting the overshoot into an x-monomial.

Enumeration order everywhere: ascending weight, and within a weight the
lexicographically earliest-loaded coordinate first ((2,0) before (1,1) before
(0,2)).  bidegree_table summarizes, for the two-row case s = 2, how many
minimal generators of each bidegree the tower produces, and renders the grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter


def _check_sigma(sigma: tuple) -> tuple[tuple, int]:
    sigma = tuple(int(v) for v in sigma)
    if not sigma:
        raise ValueError("empty twist vector")
    if any(v < 0 for v in sigma):
        raise ValueError("twists must be nonnegative")
    if any(sigma[i] < sigma[i + 1] for i in range(len(sigma) - 1)):
        raise ValueError("twists must be nonincreasing")
    r = sum(1 for v in sigma if v > 0)
    return sigma, r


def weight(alpha: tuple, sigma: tuple) -> int:
    return sum(a * v for a, v in zip(alpha, sigma))


def _box(c: int, sigma: tuple, r: int):
    """(weight, alpha) for each alpha with alpha_i <= ceil(c / sigma_i), a box
    holding both families below, in descending lexicographic order of alpha.
    alpha lists the first r (positive-twist) coordinates only."""
    ranges = [range(-(-c // v), -1, -1) for v in sigma[:r]]
    loads = [[a * v for a in box] for box, v in zip(ranges, sigma)]
    return zip(map(sum, product(*loads)), product(*ranges))


def _in_order(pairs: list, s: int) -> list[tuple]:
    """The alphas of box pairs in enumeration order, padded to length s: a
    stable sort by weight keeps descending lexicographic order within a
    weight, which loads the earliest coordinate first."""
    pairs.sort(key=itemgetter(0))
    return [alpha + (0,) * (s - len(alpha)) for _, alpha in pairs]


def below_weight_exponents(c: int, sigma: tuple) -> list[tuple]:
    """All alpha supported on positive twists with weight < c.

    Sorted by (weight, earliest-coordinate-loaded-first).  c = 0 gives [];
    any c >= 1 includes the zero vector.
    """
    sigma, r = _check_sigma(sigma)
    if c < 0:
        raise ValueError("cutoff must be nonnegative")
    return _in_order([(w, a) for w, a in _box(c, sigma, r) if w < c],
                     len(sigma))


def minimal_weight_exponents(c: int, sigma: tuple) -> list[tuple]:
    """Componentwise-minimal alpha (supported on positive twists) with weight >= c.

    Requires c >= 1: at c <= 0 the zero vector is the unique minimal element
    and none of the downstream constructions apply, so that call is rejected.
    alpha is minimal exactly when weight - sigma_i < c for every loaded i,
    which caps alpha_i at ceil(c / sigma_i).
    """
    sigma, r = _check_sigma(sigma)
    if c <= 0:
        raise ValueError("cutoff must be positive")
    # sigma[0] is the largest twist, so the first test is a cheap prefilter
    return _in_order([(w, a) for w, a in _box(c, sigma, r)
                      if c <= w < c + sigma[0]
                      and all(w - v < c for a_i, v in zip(a, sigma) if a_i)],
                     len(sigma))


def weight_drop_monomials(c: int, sigma: tuple) -> list[tuple[int, int, tuple]]:
    """Triples (j, k, alpha): alpha minimal past the cutoff, j + k its overshoot.

    For each alpha from minimal_weight_exponents the overshoot
    ell = weight(alpha) - c is split into all x-monomial exponents
    (j, k), j + k = ell, with j (the x0 power) descending.
    """
    sigma, _ = _check_sigma(sigma)
    out: list[tuple[int, int, tuple]] = []
    for alpha in minimal_weight_exponents(c, sigma):
        ell = weight(alpha, sigma) - c
        for j in range(ell, -1, -1):
            out.append((j, ell - j, alpha))
    return out


@dataclass(frozen=True)
class BidegreeTable:
    """Counts of minimal generators by bidegree (x-degree, T-degree).

    counts maps (xdeg, tdeg) -> multiplicity; x_separator is the x-degree
    column after which the rendered grid draws a vertical rule (the last
    column where generators of T-degree 1 from the presentation itself can
    still appear).
    """

    counts: dict
    x_separator: int

    def marks(self) -> list[tuple[int, int, int]]:
        return sorted((x, t, c) for (x, t), c in self.counts.items())

    def render(self) -> str:
        if not self.counts:
            return "(empty)"
        xs = [x for (x, _t) in self.counts]
        ts = [t for (_x, t) in self.counts]
        xmax = max(xs + [self.x_separator])
        xmin = min(0, min(xs))
        tmax, tmin = max(ts), min(min(ts), 1)
        width = max(len(str(v)) for v in list(self.counts.values()) + [xmax, abs(xmin)])
        lines = []
        for t in range(tmax, tmin - 1, -1):
            cells = []
            for x in range(xmin, xmax + 1):
                v = self.counts.get((x, t))
                cells.append((str(v) if v else ".").rjust(width))
                if x == self.x_separator:
                    cells.append("|")
            lines.append(f"t={t:>2} " + " ".join(cells))
        footer = []
        for x in range(xmin, xmax + 1):
            footer.append(str(x).rjust(width))
            if x == self.x_separator:
                footer.append("|")
        lines.append("x:   " + " ".join(footer))
        return "\n".join(lines)


def bidegree_table(col_degrees: tuple, sigma: tuple) -> BidegreeTable:
    """Bidegrees (with multiplicity) of the minimal generators, two-row case.

    col_degrees are the full nondecreasing column degrees d_1 <= ... <= d_{n-1}
    of the presentation; sigma the twists at the top level m = n - 2 (so
    exactly two of them).  Counts:

      * (d_{n-2}, 1) once per column of that degree among the first n-2
        (the T-linear equations that survive to the top level);
      * the tower contributions, by the shape of sigma: with sigma_2 = 0 one
        generator of bidegree (d_{n-1} - j*sigma_1, j+1) for each feasible j;
        with sigma_1 > sigma_2 > 0 one for each feasible split j = i + (j-i);
        with sigma_1 = sigma_2 a full ladder, j+1 generators at level j.
    """
    sigma, _r = _check_sigma(sigma)
    if len(sigma) != 2:
        raise ValueError("bidegree table requires exactly two twists (s = 2)")
    col_degrees = tuple(int(d) for d in col_degrees)
    if len(col_degrees) < 2:
        raise ValueError("need at least two column degrees")
    dm = col_degrees[-2]
    dn = col_degrees[-1]
    gap = dn - dm
    s1, s2 = sigma

    counts: dict = {}

    def add(x: int, t: int, mult: int = 1) -> None:
        counts[(x, t)] = counts.get((x, t), 0) + mult

    add(dm, 1, sum(1 for d in col_degrees[:-1] if d == dm))

    if s2 == 0:
        for j in range(gap // s1 + 1):
            add(dn - j * s1, j + 1)
    elif s1 > s2:
        for j in range(gap // s2 + 1):
            top = min(j, (gap - j * s2) // (s1 - s2))
            for i in range(top + 1):
                add(dn - i * s1 - (j - i) * s2, j + 1)
    else:
        for j in range(gap // s1 + 1):
            add(dn - j * s1, j + 1, j + 1)

    return BidegreeTable(counts=counts, x_separator=dm - 1)
