"""The package's public names: the same 45 objects as their submodules',
re-exported lazily, so that importing the package loads no submodule; and
the one module that formats error text."""

import ast
import importlib
from pathlib import Path

import pytest

import signcrystal
from test_cli import run_cold

PUBLIC = {
    "engine": [
        "CrystalGraph", "GraphEdge", "SupportDescriptor", "VerifyReport", "build_graph",
        "depth", "string_decomposition", "support", "verify",
    ],
    "errors": [
        "CrystalError", "ResourceCeilingError", "ValidationError",
    ],
    "params": ["IRRATIONAL", "Params", "ZClass", "cyclotomic_c", "hecke_parameters"],
    "realizations": [
        "ZBoundary", "boundaries", "boundary", "class_member", "class_representative",
        "crystal_add", "crystal_remove", "gl_crystal_add", "gl_crystal_remove", "gl_word",
        "kgroup_induction", "kgroup_restriction",
    ],
    "signstrings": [
        "e_tilde", "f_tilde", "h_minus", "h_plus", "minus_flips", "plus_flips", "reduced_form",
        "succ_compare", "suffix_h_minus", "weight",
    ],
    "young": [
        "BoxRef", "Multipartition", "corners", "multipartitions_of", "multipartitions_up_to",
        "partitions_of",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_name_count():
    assert len(NAMES) == len({name for _, name in NAMES}) == 45
    assert sorted(signcrystal.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_its_submodules_object(module, name):
    home = importlib.import_module(f"signcrystal.{module}")
    assert getattr(signcrystal, name) is getattr(home, name)
    assert name in dir(signcrystal)


def test_star_import_binds_every_name():
    scope = {}
    exec("from signcrystal import *", scope)
    for module, name in NAMES:
        assert scope[name] is getattr(importlib.import_module(f"signcrystal.{module}"), name)


def test_version_and_unknown_attribute():
    assert signcrystal.__version__ == "0.1.0"
    assert "__version__" in dir(signcrystal)
    with pytest.raises(AttributeError, match="no_such_name"):
        signcrystal.no_such_name


def test_import_loads_no_submodule():
    probe = (
        "import signcrystal, sys; "
        "print(sorted(m for m in sys.modules if m.startswith('signcrystal.')))"
    )
    done = run_cold("-c", probe)
    assert done.returncode == 0
    assert done.stdout.strip() == "[]"


def test_errors_alone_formats_messages():
    # errors fills in every message's values with ints in full; the CLI lifts
    # the digit limit only to dump its JSON payload, and no template escapes
    # braces for a later format
    for path in sorted(Path(signcrystal.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "{{" not in text, path.name
        lines = [
            number for number, line in enumerate(text.splitlines(), 1)
            if "_any_int_digits" in line and not line.startswith("from .errors import")
        ]
        if path.name == "cli.py":
            main = next(f for f in ast.parse(text).body if getattr(f, "name", None) == "main")
            assert lines and all(main.lineno <= n <= main.end_lineno for n in lines)
        elif path.name != "errors.py":
            assert "_any_int_digits" not in text, path.name
