"""Polynomials over k[x0,x1], k[x0,x1][T1..Tn] and k[x0,x1][w1..ws].

A `PolyRing` fixes the coefficient field and the list of T-like variables
together with their x-degree weights:

  * no T-like variables            -> the base ring R = k[x0,x1]
  * T1..Tn, weight 0 each          -> the symmetric-algebra ambient S
  * w1..ws, weight -sigma_i        -> the coordinate ring of the free hull,
                                      where w_i carries bidegree (-sigma_i, 1)

Terms are stored as a dict mapping exponent tuples (x0, x1, t_1, ..., t_k) to
nonzero field elements.  Nothing forces a polynomial to be bihomogeneous — the
Groebner layer needs inhomogeneous intermediates — but `bidegree` validates it.

The x-bidegree of a monomial is  x0 + x1 + sum(e_i * weight_i)  and the
T-bidegree is  sum(e_i);  for R-polynomials the single grading is x0 + x1.

`sub_multiple` is the one multiply-accumulate kernel for terms dicts: it
subtracts c * x^shift * g from a terms dict in place, reducing mod p only when
the field has a modulus.  It takes the monomials of x^shift * g already
shifted, so the same loop serves exponent tuples (`shifted` forms them; a zero
shift passes g's own keys) and the oracle's packed one-int monomials, where a
shift is one int add.  Every `Poly` operation (add, subtract, negate, scale,
multiply), the parser and the oracle's reduction and S-polynomials call it.

`RingMap` holds the one T-substitution, and applies it through arrays.  A ring
map given by a matrix -- the hull substitution T_j -> sum_i xi[i][j] w_i, a
constant change of T-coordinates, or the evaluation T_i -> y * f_i -- is built
once from its images (`linear_images` returns a matrix's), memoizes the image
of each T-monomial once as integer arrays, and applies to a whole batch of
polynomials with one gather, one sort and one `reduceat` per `MERGE_ROWS` rows.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, pairwise
from math import prod
from operator import add

import numpy as np

MERGE_ROWS = 1 << 14    # memo rows per merge of `RingMap.apply_all`, at most


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


class GradingError(ValueError):
    """Raised when a polynomial fails a required homogeneity check."""


@dataclass(frozen=True)
class PolyRing:
    field: object
    tvar_names: tuple = ()
    tweights: tuple = ()

    def __post_init__(self):
        if len(self.tvar_names) != len(self.tweights):
            raise ValueError("one weight per T-like variable required")

    @property
    def nvars(self):
        return 2 + len(self.tvar_names)

    @property
    def zero_shift(self):
        return (0,) * self.nvars

    @property
    def var_names(self):
        return ("x0", "x1") + tuple(self.tvar_names)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {self.zero_shift: self.field.one})

    def var(self, name: str) -> "Poly":
        try:
            i = self.var_names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} in this ring") from None
        exps = [0] * self.nvars
        exps[i] = 1
        return Poly(self, {tuple(exps): self.field.one})

    def monomial(self, exps, coeff=1) -> "Poly":
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple {exps}")
        c = self.field(coeff)
        return Poly(self, {exps: c} if c else {})

    def from_terms(self, terms: dict) -> "Poly":
        clean = {}
        for m, c in terms.items():
            c = self.field(c)
            if c:
                clean[tuple(m)] = c
        return Poly(self, clean)


def ring_R(field) -> PolyRing:
    return PolyRing(field)


def ring_S(field, n: int) -> PolyRing:
    return PolyRing(field, tuple(f"T{i+1}" for i in range(n)), (0,) * n)


def ring_scroll(field, sigma) -> PolyRing:
    sigma = tuple(sigma)
    return PolyRing(field, tuple(f"w{i+1}" for i in range(len(sigma))),
                    tuple(-s for s in sigma))


def sub_multiple(work: dict, c, monos, coeffs, p) -> list:
    """work -= c * x^shift * g in place; the monomials it added to work.

    The one multiply-accumulate kernel, for both fields and both monomial
    forms: `monos` are the monomials of x^shift * g, already shifted, and
    `coeffs` are g's coefficients in the same order.  Terms that reach zero
    are deleted, and p is the field's modulus, None over Q.
    """
    new = []
    for nm, gc in zip(monos, coeffs):
        old = work.get(nm)
        nv = -c * gc if old is None else old - c * gc
        if p is not None:
            nv %= p
        if nv:
            work[nm] = nv
            if old is None:
                new.append(nm)
        elif old is not None:
            del work[nm]
    return new


def shifted(terms: dict, shift: tuple) -> list:
    """The exponent tuples of x^shift * terms, in the order of terms."""
    return [tuple(map(add, m, shift)) for m in terms]


def print_key(exps):
    # Degree-reverse-lexicographic with x0 > x1 > T1 > ... (or w1 > ...).
    return (sum(exps), tuple(-e for e in reversed(exps)))


class Poly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def monomial_xdeg(self, m) -> int:
        w = self.ring.tweights
        return m[0] + m[1] + sum(e * wi for e, wi in zip(m[2:], w))

    def xdeg(self):
        degs = {self.monomial_xdeg(mm) for mm in self.terms}
        if len(degs) != 1:
            raise GradingError("x-degree undefined: polynomial is zero or mixed")
        return degs.pop()

    def tdeg(self):
        degs = {sum(m[2:]) for m in self.terms}
        if len(degs) != 1:
            raise GradingError("T-degree undefined: polynomial is zero or mixed")
        return degs.pop()

    def is_bihomogeneous(self) -> bool:
        if not self.terms:
            return True
        try:
            self.xdeg(), self.tdeg()
        except GradingError:
            return False
        return True

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: print_key(t[0]), reverse=True)

    def lead_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no lead monomial")
        return max(self.terms, key=print_key)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials live in different rings")

    def _minus(self, c, other):
        """self - c * other, through the one kernel."""
        self._check(other)
        out = dict(self.terms)
        sub_multiple(out, c, other.terms, other.terms.values(),
                     self.ring.field.modulus)
        return Poly(self.ring, out)

    def __add__(self, other):
        return self._minus(-1, other)

    def __sub__(self, other):
        return self._minus(1, other)

    def __neg__(self):
        return self.ring.zero()._minus(1, self)

    def scale(self, c):
        return self.ring.zero()._minus(-self.ring.field(c), self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        p = self.ring.field.modulus
        out = {}
        for m, c in self.terms.items():
            sub_multiple(out, -c, shifted(other.terms, m),
                         other.terms.values(), p)
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(e):
            out = out * self
        return out

    def monic(self):
        if not self.terms:
            return self
        lc = self.terms[self.lead_monomial()]
        return self.scale(self.ring.field.inv(lc))

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return f"<{poly_to_str(self)}>"


def bidegree(p: Poly):
    """The (x-degree, T-degree) of a nonzero bihomogeneous polynomial.

    For a polynomial over the base ring the T-degree is 0.  Raises GradingError
    on zero or on mixed degrees.
    """
    if p.is_zero():
        raise GradingError("degree of the zero polynomial is undefined")
    return (p.xdeg(), p.tdeg())


# -- text format -----------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|([\^*+/-]))")


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) is not None:
            out.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            out.append(("name", m.group(2), m.start(2)))
        else:
            out.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """Parse `poly := term (('+'|'-') term)*` with an optional leading sign.

    term  := [coeff '*'?] monomial | coeff
    coeff := int | int '/' uint
    mono  := var ('^' uint)? ('*' var ('^' uint)?)*

    Variables must belong to the ring, over F_p no denominator may be
    divisible by p, and the result must be homogeneous (base ring) or
    bihomogeneous (T/w rings).
    """
    toks = _tokenize(text)
    idx = 0
    names = ring.var_names

    def peek():
        return toks[idx]

    def take():
        nonlocal idx
        t = toks[idx]
        idx += 1
        return t

    def parse_coeff():
        kind, val, pos = take()
        if kind != "int":
            raise ParseError("expected an integer coefficient", pos)
        if peek()[0] == "op" and peek()[1] == "/":
            take()
            k2, v2, p2 = take()
            if k2 != "int":
                raise ParseError("expected integer denominator", p2)
            if v2 == 0:
                raise ParseError("zero denominator", p2)
            return Fraction(val, v2)
        return val

    def parse_var_power(exps):
        kind, val, pos = take()
        if kind != "name":
            raise ParseError("expected a variable", pos)
        try:
            vi = names.index(val)
        except ValueError:
            raise ParseError(f"unknown variable {val!r}", pos) from None
        e = 1
        if peek()[0] == "op" and peek()[1] == "^":
            take()
            k2, v2, p2 = take()
            if k2 != "int":
                raise ParseError("expected integer exponent", p2)
            e = v2
        exps[vi] += e

    def parse_term():
        coeff = Fraction(1)
        exps = [0] * ring.nvars
        kind, val, pos = peek()
        if kind == "int":
            coeff = Fraction(parse_coeff())
            if peek()[0] == "op" and peek()[1] == "*":
                take()
                parse_var_power(exps)
            elif peek()[0] == "name":
                parse_var_power(exps)
            else:
                return coeff, tuple(exps)
        elif kind == "name":
            parse_var_power(exps)
        else:
            raise ParseError("expected a term", pos)
        while peek()[0] == "op" and peek()[1] == "*":
            take()
            parse_var_power(exps)
        return coeff, tuple(exps)

    terms = {}
    sign = 1
    if peek()[0] == "op" and peek()[1] in "+-":
        sign = -1 if take()[1] == "-" else 1
    while True:
        start = peek()[2]
        coeff, exps = parse_term()
        try:
            c = ring.field(-sign * coeff)
        except ZeroDivisionError:
            raise ParseError(f"coefficient {coeff} has a denominator "
                             f"divisible by {ring.field.modulus}", start) from None
        sub_multiple(terms, c, (exps,), (1,), ring.field.modulus)
        kind, val, pos = peek()
        if kind == "end":
            break
        if kind != "op" or val not in "+-":
            raise ParseError("expected '+', '-' or end of input", pos)
        sign = -1 if take()[1] == "-" else 1
    p = Poly(ring, terms)
    if ring.tvar_names:
        if not p.is_bihomogeneous():
            raise GradingError(f"not bihomogeneous: {text!r}")
    else:
        if not p.is_zero():
            degs = {m[0] + m[1] for m in p.terms}
            if len(degs) != 1:
                raise GradingError(f"not homogeneous: {text!r}")
    return p


def _monomial_str(exps, names):
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_to_str(p: Poly) -> str:
    """Canonical text form; `parse_poly(poly_to_str(p), p.ring) == p`.

    Terms in descending degrevlex order; F_p coefficients as 0..p-1, rational
    coefficients with explicit signs.
    """
    if p.is_zero():
        return "0"
    names = p.ring.var_names
    chunks = []
    for i, (m, c) in enumerate(p.sorted_terms()):
        neg = isinstance(c, Fraction) and c < 0
        mag = -c if neg else c
        mono = _monomial_str(m, names)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks)


# -- ring moves ------------------------------------------------------------

def promote(p: Poly, target: PolyRing) -> Poly:
    """Reinterpret a base-ring polynomial inside a ring with T-like variables."""
    if p.ring.tvar_names:
        raise ValueError("promote expects a base-ring polynomial")
    pad = (0,) * len(target.tvar_names)
    return Poly(target, {m + pad: c for m, c in p.terms.items()})


class RingMap:
    """The ring map T_j -> images[j] into `target`, carrying x0, x1 over.

    `images` are polynomials of the target ring, one per T-like variable of
    the source ring.  Each T-monomial T^b is imaged once for the life of the
    map, into one memo of arrays: a row per term of the image, holding its
    full target exponent tuple (x0 included, as an image need not be
    x-homogeneous) and its coefficient, and `memo` maps b to its rows'
    slice.  `fill` forms new entries a T-degree at a time, the image of T_j
    times the entry of T^(b - e_j) for j the last variable of T^b, through
    the kernel that applies the map, and `image` reads a batch of entries
    for `gradedlin.image_rows`.

    `apply_all` is the one apply routine: every term c x^a T^b of every
    polynomial of the batch gathers b's rows, shifted by x^a and scaled by
    c, and one sort and one `reduceat` merge equal monomials, so a batch
    pays numpy's fixed cost once, or once per run of `MERGE_ROWS` rows, and
    callers never size their batches; `__call__` is its one-polynomial form.
    Over F_p each product is reduced mod p before the sums (below
    p**2 < 2**62, exact in int64); over Q the same code runs on `Fraction`
    object arrays.
    """

    __slots__ = ("images", "target", "memo", "_units", "_exps", "_coeffs",
                 "_top")

    def __init__(self, images, target: PolyRing):
        self.images = tuple(images)
        self.target = target
        if any(img.ring is not target and img.ring != target
               for img in self.images):
            raise ValueError("every image of a ring map must live in its "
                             "target ring")
        # the rows open with the image of T^0, then the image of each T_j,
        # whose slice `_units` keeps and `memo` lists once asked for
        terms = [{target.zero_shift: target.field.one}]
        terms += [img.terms for img in self.images]
        self._exps = np.array([m for t in terms for m in t],
                              dtype=np.int64).reshape(-1, target.nvars)
        self._coeffs = self._coeff_array([c for t in terms
                                          for c in t.values()])
        self._top = self._exps.max(axis=0)       # largest exponent per column
        ends = list(accumulate(map(len, terms)))
        self._units = tuple(zip(ends[:-1], ends[1:]))
        self.memo = {(0,) * len(self.images): (0, 1)}

    def _coeff_array(self, coeffs):
        dtype = object if self.target.field.modulus is None else np.int64
        return np.array(coeffs, dtype=dtype)

    def _rows(self, spans):
        """(term, idx): the memo index of every row of every slice of spans,
        in order, with the index of its slice."""
        lens = spans[:, 1] - spans[:, 0]
        term = np.arange(len(lens)).repeat(lens)
        idx = (spans[:, 0] - lens.cumsum() + lens).repeat(lens)
        idx += np.arange(len(idx))
        return term, idx

    def _merge(self, owner, spans, coeffs, shifts):
        """sum_k coeffs_k * x^shifts_k * (memo rows spans_k), one sum per
        owner (nondecreasing): (owner, exps, coeffs) sorted by owner, then by
        monomial, with equal monomials merged and zero sums dropped.  A shift
        gives the leading exponents, x0 and x1, and the T-part if it has one.

        A gathered row is held as four ints (its term, its memo row, its
        key and its product), not as an exponent tuple: the key reads the
        owner and the exponents as digits, each in the radix one past its
        largest value, and exponents are read back for the merged rows only.
        """
        mod = self.target.field.modulus
        term, idx = self._rows(spans)
        if not len(term):
            return owner[:0], self._exps[:0], self._coeffs[:0]
        lead = shifts.shape[1]
        radices = self._top + 1
        radices[:lead] += shifts.max(axis=0)
        radices = [int(owner[-1]) + 1] + radices.tolist()
        if prod(radices) >= 1 << 63:
            raise OverflowError("monomial keys do not fit in int64")
        weights = np.array([prod(radices[i:]) for i in range(2, len(radices))]
                           + [1], dtype=np.int64)
        key = ((self._exps @ weights)[idx]
               + (owner * prod(radices[1:]) + shifts @ weights[:lead])[term])
        products = self._coeffs[idx] * coeffs[term]
        if mod is not None:
            products %= mod
        order = key.argsort()
        key = key[order]
        heads = np.empty(len(key), dtype=bool)
        heads[0] = True
        np.not_equal(key[1:], key[:-1], out=heads[1:])
        heads = heads.nonzero()[0]
        sums = np.add.reduceat(products[order], heads)
        if mod is not None:
            sums %= mod
        live = sums != 0
        picked = order[heads[live]]
        term, exps = term[picked], self._exps[idx[picked]]
        exps[:, :lead] += shifts[term]
        return owner[term], exps, sums[live]

    def fill(self, texps):
        """Memo entries for every T-exponent tuple of texps, one `_merge` per
        T-degree."""
        need = {}
        for b in set(texps).difference(self.memo):
            while b not in self.memo and b not in need:
                j = max(k for k, e in enumerate(b) if e)
                prev = b[:j] + (b[j] - 1,) + b[j + 1:]
                need[b] = (j, prev)
                b = prev
        by_degree = {}
        for b, (j, prev) in need.items():
            by_degree.setdefault(sum(b), []).append((b, j, prev))
        for deg, batch in sorted(by_degree.items()):
            if deg == 1:
                self.memo.update((b, self._units[j]) for b, j, _ in batch)
                continue
            # each row of the image of T_j, as a term, acts on T^(b - e_j)
            unit, idx = self._rows(np.array(
                [self._units[j] for _, j, _ in batch], dtype=np.int64))
            prevs = np.array([self.memo[prev] for _, _, prev in batch],
                             dtype=np.int64)
            owner, exps, coeffs = self._merge(
                unit, prevs[unit], self._coeffs[idx], self._exps[idx])
            bounds = (len(self._coeffs) + np.searchsorted(
                owner, np.arange(len(batch) + 1))).tolist()
            self._exps = np.concatenate((self._exps, exps))
            self._coeffs = np.concatenate((self._coeffs, coeffs))
            self._top = np.maximum(self._top, exps.max(axis=0, initial=0))
            self.memo.update((b, (bounds[k], bounds[k + 1]))
                             for k, (b, _, _) in enumerate(batch))

    def image(self, texps) -> tuple:
        """(term, exps, coeffs): the rows of the image of every T^b of texps,
        each row with the index of its b in texps and its target exponent
        tuple as a row of an int array."""
        texps = list(texps)
        self.fill(texps)
        term, idx = self._rows(np.array([self.memo[b] for b in texps],
                                        dtype=np.int64).reshape(-1, 2))
        return term, self._exps[idx], self._coeffs[idx]

    def apply_all(self, polys) -> list:
        """The images of polys, in order, merged in runs of consecutive
        polynomials that gather at most `MERGE_ROWS` memo rows: one run if the
        batch fits, and a polynomial that alone gathers more goes by itself."""
        polys = list(polys)
        owners, monos, coeffs = [], [], []
        for k, p in enumerate(polys):
            if len(p.ring.tvar_names) != len(self.images):
                raise ValueError("one image per T-like variable required")
            if p.ring.field != self.target.field:
                raise ValueError(f"a polynomial over {p.ring.field} cannot go "
                                 f"through a map into {self.target.field}")
            owners += [k] * len(p.terms)
            monos += p.terms
            coeffs += p.terms.values()
        self.fill(m[2:] for m in monos)
        # per term: its polynomial, the memo slice of its T-part, its x-part
        terms = np.array([(k,) + self.memo[m[2:]] + m[:2]
                          for k, m in zip(owners, monos)],
                         dtype=np.int64).reshape(-1, 5)
        coeffs = self._coeff_array(coeffs)
        rows = terms[:, 2] - terms[:, 1]
        cuts, size = [0], 0             # the runs' first polynomials
        if rows.sum() > MERGE_ROWS:
            for k, n in enumerate(np.bincount(terms[:, 0], rows, len(polys))):
                if size and size + n > MERGE_ROWS:
                    cuts.append(k)
                    size = 0
                size += n
        images = []
        for first, stop in pairwise(cuts + [len(polys)]):
            run = slice(bisect_left(owners, first), bisect_left(owners, stop))
            owner, exps, sums = self._merge(terms[run, 0], terms[run, 1:3],
                                            coeffs[run], terms[run, 3:])
            bounds = np.searchsorted(owner, np.arange(first, stop + 1))
            monos = list(map(tuple, exps.tolist()))
            sums = sums.tolist()
            images += [Poly(self.target, dict(zip(monos[a:b], sums[a:b])))
                       for a, b in pairwise(bounds.tolist())]
        return images

    def __call__(self, p: Poly) -> Poly:
        return self.apply_all([p])[0]


def linear_images(rows, target: PolyRing) -> tuple:
    """Column images of a matrix as linear forms in target's T-like variables.

    Column j maps to sum_i rows[i][j] * v_i, where v_i is the i-th T-like
    variable of `target` and each entry is a base-ring polynomial or a field
    scalar.  Passed to `RingMap`, the images apply the matrix as a ring
    map: T_j -> sum_i xi[i][j] w_i along a hull embedding, or a constant
    change of T-coordinates.
    """
    s = len(target.tvar_names)
    if len(rows) != s:
        raise ValueError("one matrix row per T-like variable of the target")
    if not rows:
        raise ValueError("a matrix with no rows has no column count")
    units = [tuple(int(t == i) for t in range(s)) for i in range(s)]
    images = []
    for j in range(len(rows[0])):
        terms = {}
        for i in range(s):
            entry = rows[i][j]
            if isinstance(entry, Poly):
                terms.update((m + units[i], c) for m, c in entry.terms.items())
            elif entry:
                terms[(0, 0) + units[i]] = entry
        images.append(Poly(target, terms))
    return tuple(images)
