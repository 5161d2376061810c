"""Smoke test of scripts/render_tables.py, the bidegree-table printer."""
import importlib.util
from pathlib import Path

import pytest

from rees.combinat import bidegree_table

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "render_tables.py"

# the paper's three reference grids: (column degrees, twists)
REFERENCE_SHAPES = (((3, 16), (3, 0)), ((5, 16), (3, 2)), ((4, 16), (2, 2)))


def load_script():
    spec = importlib.util.spec_from_file_location("render_tables", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_arguments_print_the_reference_grids(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["render_tables.py"])
    load_script().main()
    want = "".join(f"column degrees {list(degrees)}, twists {list(sigma)}:\n"
                   f"{bidegree_table(degrees, sigma).render()}\n\n"
                   for degrees, sigma in REFERENCE_SHAPES)
    assert capsys.readouterr().out == want


def test_degrees_without_sigma_fail(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["render_tables.py", "--degrees", "4,16"])
    with pytest.raises(SystemExit) as exc:
        load_script().main()
    assert exc.value.code == 2
    assert "must be given together" in capsys.readouterr().err
