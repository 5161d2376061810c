"""Command-line interface: JSON instances in, tables/records/reports out.

Subcommands: info, sigmas, bidegrees, generators, slice, scroll, oracle,
check, random.  `check` lists the lines of `rees.checks` and reports them;
`oracle --what membership` reads the same records and capped basis through a
`checks.Context`.  Instance files are JSON:

    {"field": {"type": "prime", "p": 32003},
     "n": 3,
     "col_degrees": [2, 7],
     "phi_rows": [["x0^2", "x1^7"], ["x0*x1", "0"], ["x1^2", "x0^7"]]}

The environment variable REES_FIELD_P overrides the prime for prime-type
fields (and for `random`); it must be a prime below 2**31.  `--json` switches
every subcommand to machine-readable output.  Exit codes: 0 success,
1 validation error, 2 a failed check (`check`, `oracle --what membership`) or
an internal failure; only the `internal error:` line on stderr tells them
apart.
"""
from __future__ import annotations

import argparse
import json
import os
import random as _random
import sys

from . import checks, combinat, generators, oracle, syzygy, tower
from .field import DEFAULT_PRIME, PrimeField, field_from_json, field_to_json
from .ring import parse_poly, ring_R


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (validation) on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="rees", description=__doc__.splitlines()[0])
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")
    sub = p.add_subparsers(dest="command", required=True)

    def instance_cmd(name, handler, help_text):
        c = sub.add_parser(name, help=help_text)
        c.add_argument("file", help="instance JSON file")
        c.set_defaults(handler=handler)
        return c

    instance_cmd("info", _cmd_info,
                 "column degrees, signed minors, height check")

    c = instance_cmd("sigmas", _cmd_sigmas, "embedding twists at one level")
    c.add_argument("-m", type=int, required=True, help="level (1..n-1)")

    instance_cmd("bidegrees", _cmd_bidegrees,
                 "minimal-generator bidegree table (two twists)")

    c = instance_cmd("generators", _cmd_generators,
                     "certified generator records")
    c.add_argument("-m", type=int, default=None,
                   help="level (default: every level up to n-2)")

    c = instance_cmd("slice", _cmd_slice,
                     "generators of one x-degree slice (n = 3)")
    c.add_argument("--xdeg", type=int, required=True, help="x-degree i")
    c.add_argument("--trim", action="store_true",
                   help="greedily remove redundant records")

    c = instance_cmd("scroll", _cmd_scroll,
                     "scroll matrix and its 2x2 minors at a level")
    c.add_argument("-m", type=int, required=True, help="level (1..n-1)")

    c = instance_cmd("oracle", _cmd_oracle,
                     "Groebner-side report on the saturated ideal")
    c.add_argument("--max-x", type=int, default=None,
                   help="highest x-degree of the window (hilbert, mingens)")
    c.add_argument("--max-t", type=int, default=None,
                   help="highest T-degree of the window (hilbert, mingens)")
    c.add_argument("--what", choices=("hilbert", "mingens", "membership"),
                   default="mingens")

    c = instance_cmd("check", _cmd_check, "cross-validation report")
    c.add_argument("--seeds", type=int, default=0,
                   help="also check this many random same-shape instances")

    c = sub.add_parser("random", help="generate a random height-two instance")
    c.set_defaults(handler=_cmd_random)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--degrees", required=True,
                   help="comma-separated nondecreasing column degrees")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out", default=None, help="write instance here")
    return p


# -- instance I/O ------------------------------------------------------------

def _field_with_override(descr: dict | None):
    env = os.environ.get("REES_FIELD_P")
    if descr is None:
        descr = {"type": "prime", "p": DEFAULT_PRIME}
    field = field_from_json(descr)
    if env is not None and getattr(field, "modulus", None) is not None:
        try:
            p = int(env)
        except ValueError:
            raise ValueError(f"REES_FIELD_P must be an integer, "
                             f"got {env!r}") from None
        field = PrimeField(p)
    return field


def load_instance(path: str) -> tower.PresentationInput:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("instance file must be a JSON object")
    for k in ("n", "col_degrees", "phi_rows"):
        if k not in raw:
            raise ValueError(f"instance file is missing {k!r}")
    field = _field_with_override(raw.get("field"))
    n = raw["n"]
    if type(n) is not int:
        raise ValueError("n must be an integer")
    rows = raw["phi_rows"]
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(isinstance(e, str) for e in row)
            for row in rows)):
        raise ValueError("phi_rows must be a list of rows of polynomial strings")
    if len(rows) != n:
        raise ValueError("phi_rows must have exactly n rows")
    degrees = raw["col_degrees"]
    if not (isinstance(degrees, list)
            and all(type(d) is int for d in degrees)):
        raise ValueError("col_degrees must be a list of integers")
    base = ring_R(field)
    parsed = tuple(tuple(parse_poly(e, base) for e in row) for row in rows)
    return tower.load_presentation(field, degrees, parsed)


def instance_to_json(inp: tower.PresentationInput) -> dict:
    return {
        "field": field_to_json(inp.field),
        "n": inp.n,
        "col_degrees": list(inp.col_degrees),
        "phi_rows": [[str(e) for e in row] for row in inp.phi.rows],
    }


def random_instance(n: int, col_degrees, seed: int, field) -> tower.PresentationInput:
    """Rejection-sample a height-two instance; deterministic per seed."""
    # checked here, as the draw loop below swallows ValueError
    col_degrees = tower.check_col_degrees(n, (int(d) for d in col_degrees))
    p = field.modulus
    if p is None:
        raise ValueError("random instances are generated over a prime field")
    rng = _random.Random(seed)
    base = ring_R(field)
    for _ in range(1000):
        rows = []
        for _i in range(n):
            row = []
            for d in col_degrees:
                terms = {}
                for a in range(d + 1):
                    c = rng.randrange(p)
                    if c:
                        terms[(d - a, a)] = c
                row.append(base.from_terms(terms))
            rows.append(tuple(row))
        try:
            return tower.load_presentation(field, col_degrees, tuple(rows))
        except ValueError:
            continue
    raise ValueError("no height-two instance found in 1000 draws "
                     "(degenerate parameters)")


# -- output helpers ----------------------------------------------------------

def _emit(args, text: str, payload) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _record_lines(records) -> list:
    out = []
    for rec in records:
        flag = "ok" if rec.certificate_ok else "FAILED"
        out.append(f"  {checks.name(rec, listing=True)} certificate={flag}")
        out.append(f"    {rec.poly}")
    return out


# -- subcommands -------------------------------------------------------------

def _cmd_info(args) -> int:
    inp = load_instance(args.file)
    lines = [f"n = {inp.n}, column degrees = {list(inp.col_degrees)}",
             f"field: {field_to_json(inp.field)}",
             "signed maximal minors (row-deletion order):"]
    lines += [f"  f{i + 1} = {f}" for i, f in enumerate(inp.minors)]
    lines.append("height check: ok (unit gcd)")
    _emit(args, "\n".join(lines), {
        "n": inp.n,
        "col_degrees": list(inp.col_degrees),
        "field": field_to_json(inp.field),
        "minors": [str(f) for f in inp.minors],
        "height_two": True,
    })
    return 0


def _cmd_sigmas(args) -> int:
    inp = load_instance(args.file)
    inv = tower.hull_embedding(inp, args.m)[0]
    text = (f"m = {args.m}: sigma = {list(inv.sigma)}, "
            f"r = {inv.r} positive, s = {inv.s}")
    _emit(args, text, {"m": args.m, "sigma": list(inv.sigma),
                       "r": inv.r, "s": inv.s})
    return 0


def _cmd_bidegrees(args) -> int:
    inp = load_instance(args.file)
    inv = tower.hull_embedding(inp, inp.n - 2)[0]
    table = combinat.bidegree_table(inp.col_degrees, inv.sigma)
    _emit(args, table.render(), {
        "sigma": list(inv.sigma),
        "x_separator": table.x_separator,
        "marks": [[x, t, c] for x, t, c in table.marks()],
    })
    return 0


def _cmd_generators(args) -> int:
    inp = load_instance(args.file)
    if args.m is not None:
        levels = [args.m]
    else:
        levels = list(range(1, inp.n - 1))
    text_lines = []
    payload = {"levels": []}
    for m in levels:
        records = generators.tower_generators(inp, m)
        text_lines.append(f"level m = {m}: {len(records)} records")
        text_lines += _record_lines(records)
        payload["levels"].append({
            "m": m, "records": [rec.as_dict() for rec in records]})
    _emit(args, "\n".join(text_lines), payload)
    return 0


def _cmd_slice(args) -> int:
    inp = load_instance(args.file)
    records = generators.slice_generators(inp, args.xdeg)
    total = len(records)
    if args.trim:
        records = generators.trim_slice(records, args.xdeg)
    text_lines = [f"x-degree {args.xdeg}: {len(records)} records"
                  + (f" (trimmed from {total})" if args.trim else "")]
    text_lines += _record_lines(records)
    _emit(args, "\n".join(text_lines), {
        "xdeg": args.xdeg,
        "trimmed": bool(args.trim),
        "records": [rec.as_dict() for rec in records],
    })
    return 0


def _cmd_scroll(args) -> int:
    inp = load_instance(args.file)
    level = tower.build_level(inp, args.m)
    pres = syzygy.scroll_matrix(level.sigma, inp.field)
    top, bottom = pres.gamma
    text_lines = [
        f"m = {args.m}: sigma = {list(level.sigma.sigma)}",
        "coordinates: " + " ".join(pres.ring.tvar_names),
        "matrix:",
        "  [ " + "  ".join(str(e) for e in top) + " ]",
        "  [ " + "  ".join(str(e) for e in bottom) + " ]",
        f"{len(pres.minors)} minors:",
    ]
    text_lines += [f"  {mnr}" for mnr in pres.minors]
    _emit(args, "\n".join(text_lines), {
        "m": args.m,
        "sigma": list(level.sigma.sigma),
        "coordinates": list(pres.ring.tvar_names),
        "gamma": [[str(e) for e in top], [str(e) for e in bottom]],
        "minors": [str(mnr) for mnr in pres.minors],
    })
    return 0


def _cmd_oracle(args) -> int:
    bounds = {"--max-x": args.max_x, "--max-t": args.max_t}
    if any(v is not None and v < 0 for v in bounds.values()):
        raise ValueError("window bounds must be nonnegative")
    missing = [flag for flag, v in bounds.items() if v is None]
    if missing and args.what != "membership":
        raise ValueError(f"--what {args.what} needs " + " and ".join(missing))
    inp = load_instance(args.file)
    if args.what == "membership":
        return _membership(checks.Context(inp), args)
    window = ((0, args.max_x), (0, args.max_t))
    K = oracle.saturated_ideal(inp, t_max=args.max_t)
    if args.what == "hilbert":
        dims = oracle.bigraded_hilbert(K, window)
        lines = [f"ideal piece dimensions (x up to {args.max_x}, "
                 f"T up to {args.max_t}):"]
        for (i, j), dim in sorted(dims.items()):
            if dim:
                lines.append(f"  ({i},{j}): {dim}")
        _emit(args, "\n".join(lines),
              {"what": "hilbert",
               "dims": [[i, j, dim] for (i, j), dim in sorted(dims.items())]})
    else:
        table = oracle.minimal_generator_bidegrees(
            K, window, x_separator=inp.col_degrees[-2] - 1)
        _emit(args, table.render(),
              {"what": "mingens",
               "x_separator": table.x_separator,
               "marks": [[x, t, c] for x, t, c in table.marks()]})
    return 0


def _membership(ctx: checks.Context, args) -> int:
    """Every record's verdict against the basis capped at the records' cap."""
    rows = [(m, rec, nf.is_zero()) for m, rec, nf in checks.normal_forms(ctx)]
    lines = [f"membership of {len(rows)} records in the saturated ideal:"]
    lines += [f"  {checks.name(rec, m, listing=True)}: "
              + ("member" if ok else "NOT A MEMBER") for m, rec, ok in rows]
    _emit(args, "\n".join(lines),
          {"what": "membership",
           "records": [{"m": m, **rec.as_dict(), "normal_form_zero": ok}
                       for m, rec, ok in rows]})
    return 0 if all(ok for _, _, ok in rows) else 2


def _check_one(inp: tower.PresentationInput) -> list:
    """Every `rees check` line on one instance; list of (label, ok, note)."""
    lines = [checks.twist_bookkeeping, checks.scalars_reach_every_form,
             checks.substitution_certificates, checks.truncation_window]
    if inp.n == 3:
        lines += [checks.hull_quotient_values, checks.linear_forms_fill,
                  checks.free_hull_hilbert]
    lines += [checks.oracle_normal_forms, checks.evaluation_of_records]
    ctx = checks.Context(inp)
    return [line(ctx) for line in lines]


def _cmd_check(args) -> int:
    if args.seeds < 0:
        raise ValueError("--seeds must be nonnegative")
    inp = load_instance(args.file)
    if args.seeds > 0 and inp.field.modulus is None:
        raise ValueError("random instances are generated over a prime field")
    reports = [("instance", _check_one(inp))]
    for seed in range(args.seeds):
        twin = random_instance(inp.n, inp.col_degrees, seed, inp.field)
        reports.append((f"seed {seed}", _check_one(twin)))
    lines = []
    payload = []
    grand = True
    for name, results in reports:
        lines.append(f"{name}:")
        for label, ok, note in results:
            grand = grand and ok
            if ok:
                lines.append(f"  PASS  {label}" + (f" ({note})" if note else ""))
            else:   # a failing note names the failure, and may run long
                lines += [f"  FAIL  {label}", f"        {note}"]
        payload.append({"name": name,
                        "checks": [{"label": label, "ok": ok, "note": note}
                                   for label, ok, note in results]})
    lines.append("all checks passed" if grand else "CHECKS FAILED")
    _emit(args, "\n".join(lines), {"reports": payload, "ok": grand})
    return 0 if grand else 2


def _cmd_random(args) -> int:
    degrees = [int(tok) for tok in args.degrees.split(",") if tok != ""]
    field = _field_with_override(None)
    inp = random_instance(args.n, degrees, args.seed, field)
    text = json.dumps(instance_to_json(inp), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if not args.json:
            print(f"wrote {args.out}")
        else:
            print(json.dumps({"written": args.out}, indent=2, sort_keys=True))
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
