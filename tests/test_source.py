"""Source-level rules for the package."""
import ast
import pathlib

import rees

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rees"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so checks must be named raises
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/rees: {found}"


def test_no_module_reads_another_modules_private_names():
    # a private helper is free to change; callers go through public names
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module is None for alias in node.names}
        found += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")]
    assert not found, f"private names read across modules: {found}"


RING_MAPS = {"subst", "subst_raw", "to_level_coords", "to_original_coords"}


def _name(func):
    return getattr(func, "attr", getattr(func, "id", None))


def _images(node, tainted):
    # whether the expression holds a ring map call, or a name bound to one
    return any((isinstance(inner, ast.Call) and _name(inner.func) in RING_MAPS)
               or (isinstance(inner, ast.Name) and inner.id in tainted)
               for inner in ast.walk(node))


def test_no_row_is_read_back_from_a_ring_map_image():
    # hull-image rows come from `TowerLevel.image_rows`, which writes them
    # from the maps' array memo through `gradedlin.image_rows`; imaging a
    # polynomial only to read its coordinates builds a `Poly` for nothing
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            tainted = {target.id for node in ast.walk(func)
                       if isinstance(node, ast.Assign)
                       and _images(node.value, ())
                       for target in node.targets
                       if isinstance(target, ast.Name)}
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                      if isinstance(node, ast.Call)
                      and _name(node.func) in ("coordinates", "span_dim")
                      and any(_images(arg, tainted) for arg in node.args)]
    assert not found, f"coordinates of a ring map's image in src/rees: {found}"


def test_ring_map_images_are_read_only_by_the_row_writer():
    # `gradedlin.image_rows` is the one writer of a ring map's image rows;
    # other code applies a map (`apply_all`, or a call) or asks for those
    # rows, and never reads the memo's arrays through `RingMap.image`
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("ring.py", "gradedlin.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "image"]
    assert not found, f"RingMap.image called outside the row writer: {found}"


def test_only_ring_reads_a_ring_maps_memo():
    # a ring map bounds its own merges, so callers hand it whole families
    # and never size batches from its memo layout
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ring.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr == "memo")
                  or (isinstance(node, ast.Call) and _name(node.func) == "fill"
                      and isinstance(node.func, ast.Attribute))]
    assert not found, f"ring map memo read outside rees.ring: {found}"


def test_only_load_presentation_computes_the_minors():
    # the presentation owns its minors: `load_presentation` computes them and
    # their height check once, and every later user reads `inp.minors`
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        callers += [f"{path.name}:{getattr(top, 'name', top.lineno)}"
                    for top in tree.body for node in ast.walk(top)
                    if isinstance(node, ast.Call)
                    and _name(node.func) == "signed_maximal_minors"]
    assert callers == ["tower.py:load_presentation"], \
        f"signed_maximal_minors called outside load_presentation: {callers}"


CHECK_HELPERS = {"normal_form", "evaluation_membership",
                 "check_truncation_equality", "hull_quotient_hilbert"}


def test_only_the_check_lines_call_the_check_helpers():
    # one module decides which records `rees check` verifies and at which
    # cap: `rees.checks`, whose lines and context the CLI reads
    called = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) in CHECK_HELPERS:
                called.setdefault(path.name, set()).add(_name(node.func))
    assert called == {"checks.py": CHECK_HELPERS}, \
        f"check helpers called outside rees.checks: {called}"


def test_linalg_imports_no_numpy():
    # one elimination route for both fields: `rref` reduces sparse rows
    # through the field's own arithmetic, with no dense numpy fork, no
    # fraction-free or lcm-scaled Q route and no per-field `_rref*` helper
    # beside it
    tree = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    found = [name for name in modules
             if name.split(".")[0] in ("numpy", "fractions", "math")]
    assert not found, f"banned module imported in src/rees/linalg.py: {found}"
    forks = [node.name for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and node.name.startswith("_rref")]
    assert not forks, f"per-field eliminations in src/rees/linalg.py: {forks}"


def test_no_caller_transposes_a_linalg_matrix():
    # `linalg` takes a matrix as its column vectors where the routine wants
    # columns and does the one transpose itself; a `zip(*...)` in the
    # arguments of a `linalg` call is a second, dense one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "linalg"
                  for inner in ast.walk(node)
                  if isinstance(inner, ast.Call) and _name(inner.func) == "zip"
                  and any(isinstance(arg, ast.Starred) for arg in inner.args)]
    assert not found, f"transposes in linalg calls in src/rees: {found}"


def test_linalg_coerces_no_entry():
    # the writers emit nonzero canonical field elements, so `linalg` never
    # calls the field on an entry
    tree = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _name(node.func) == "field"]
    assert not found, f"field coercions in src/rees/linalg.py: {found}"


def _product(node):
    # `a * b`, but not a list display repeated, as in `[k] * n`
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and not isinstance(node.left, ast.List))


def _accumulates(node):
    # `x = x + ...` or `x = x - ...`, or `x += a * b` or `x -= a * b`: `Poly`
    # has no `__iadd__`, so each is a copy of x per step
    if isinstance(node, ast.AugAssign):
        return (isinstance(node.target, ast.Name)
                and isinstance(node.op, (ast.Add, ast.Sub))
                and _product(node.value))
    return (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.BinOp)
            and isinstance(node.value.op, (ast.Add, ast.Sub))
            and isinstance(node.value.left, ast.Name)
            and node.value.left.id == node.targets[0].id)


def _sums_products(node):
    # `sum(a * b for ...)`: integer dot products read `sum(map(mul, ...))`
    return (isinstance(node, ast.Call) and _name(node.func) == "sum"
            and bool(node.args)
            and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
            and _product(node.args[0].elt))


def test_dot_is_the_one_sum_of_products():
    # `ring.dot` builds a sum of products in one terms dict; a `sum` over
    # products or an accumulator rebound to itself plus a term copies the
    # whole sum once per term
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _accumulates(node) or _sums_products(node)]
    assert not found, f"sums of products outside ring.dot in src/rees: {found}"


def test_every_exported_name_resolves():
    # a deletion that leaves a stale `__all__` entry breaks `from rees import *`
    missing = [name for name in rees.__all__ if not hasattr(rees, name)]
    assert not missing, f"stale __all__ entries: {missing}"
