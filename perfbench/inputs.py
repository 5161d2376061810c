"""The benchmark's instances: its own copy of the bundled fixtures and its own
seeded generator, so that neither an edited fixture file nor a change to
`rees random` can change a workload unnoticed.

An instance is a presentation matrix phi (n rows, n - 1 columns) whose entry
in column j is a binary form of degree col_degrees[j], held as in
`algebra`: coefficient k belongs to x0^(d-k) * x1^k.  `instance_json` renders
it in the JSON schema that `rees` reads.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass

from algebra import P

# Entries as printed in the fixture files under tests/fixtures at the time
# the benchmark was written; column j of each row has degree col_degrees[j].
FIXTURES = {
    "quadric_cubic": ((2, 3), (("x0^2", "x1^3"),
                               ("x0*x1", "0"),
                               ("x1^2", "x0^3"))),
    "almost_linear": ((1, 1, 2), (("x1", "0", "0"),
                                  ("32002*x0", "0", "x1^2"),
                                  ("0", "x1", "32002*x0^2"),
                                  ("0", "32002*x0", "0"))),
    "table1": ((3, 16), (("x0^3", "x1^16"),
                         ("x1^3", "x0^16"),
                         ("0", "x0^8*x1^8"))),
    "table2": ((5, 16), (("x1^5", "x0^16"),
                         ("32002*x0^3*x1^2", "x1^16"),
                         ("x0^5", "x0^8*x1^8"))),
    "table3": ((4, 16), (("x0^4", "x1^16"),
                         ("x0^2*x1^2", "0"),
                         ("x1^4", "x0^16"))),
    "final_example": ((4, 7), (("x0^4", "x1^7"),
                               ("x0^2*x1^2", "0"),
                               ("x1^4", "x0^7"))),
    "final_variant": ((4, 7), (("x0^4 + x0^3*x1", "x1^7"),
                               ("x0^2*x1^2", "0"),
                               ("x1^4", "x0^7"))),
}

_FACTOR = re.compile(r"^(x0|x1)(?:\^(\d+))?$")


def parse_form(text, degree):
    """Coefficient list of a binary form written as 'c*x0^a*x1^b + ...'."""
    form = [0] * (degree + 1)
    if text.strip() == "0":
        return form
    for term in text.split("+"):
        coeff, exps = 1, [0, 0]
        for factor in term.strip().split("*"):
            if factor.isdigit():
                coeff = coeff * int(factor) % P
                continue
            match = _FACTOR.match(factor)
            if match is None:
                raise ValueError(f"cannot read factor {factor!r}")
            exps[int(match.group(1)[1])] += int(match.group(2) or 1)
        if sum(exps) != degree:
            raise ValueError(f"term {term!r} is not of degree {degree}")
        form[exps[1]] = (form[exps[1]] + coeff) % P
    return form


def form_text(form):
    """Inverse of parse_form."""
    d = len(form) - 1
    terms = []
    for k, c in enumerate(form):
        if not c:
            continue
        factors = [str(c)] if c != 1 else []
        for name, e in (("x0", d - k), ("x1", k)):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        terms.append("*".join(factors) or "1")
    return " + ".join(terms) or "0"


@dataclass(frozen=True)
class Presentation:
    label: str
    col_degrees: tuple
    phi: tuple          # rows of coefficient lists

    @property
    def n(self):
        return len(self.phi)


def fixture(name):
    degrees, rows = FIXTURES[name]
    phi = tuple(tuple(parse_form(e, d) for e, d in zip(row, degrees))
                for row in rows)
    return Presentation(name, degrees, phi)


def random_presentation(label, n, col_degrees, rng):
    """Uniform coefficients mod P; a column that comes out zero is redrawn."""
    columns = []
    for d in col_degrees:
        while True:
            col = [[rng.randrange(P) for _ in range(d + 1)] for _ in range(n)]
            if any(any(entry) for entry in col):
                break
        columns.append(col)
    phi = tuple(tuple(columns[j][i] for j in range(n - 1)) for i in range(n))
    return Presentation(label, tuple(col_degrees), phi)


def instance_rng(seed, label):
    # String seeds are hashed with SHA-512, so draws repeat across processes.
    return random.Random(f"rees-bench:{seed}:{label}")


def instance_json(pres):
    return {
        "field": {"type": "prime", "p": P},
        "n": pres.n,
        "col_degrees": list(pres.col_degrees),
        "phi_rows": [[form_text(e) for e in row] for row in pres.phi],
    }
