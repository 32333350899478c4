"""The package's public surface."""

import ast
import copy
import importlib
import json
import os
import pickle
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import thompson_sigma
from thompson_sigma import errors, words
from thompson_sigma.errors import BUDGETS, ORBIT_CAP, ParseError

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def test_all_names_no_module():
    public = {
        name
        for name in dir(thompson_sigma)
        if not name.startswith("_") and not isinstance(getattr(thompson_sigma, name), types.ModuleType)
    }
    assert sorted(thompson_sigma.__all__) == sorted(public)


class TestSurface:
    def test_names_are_their_home_objects(self):
        for name in thompson_sigma.__all__:
            obj = getattr(thompson_sigma, name)
            assert obj is getattr(sys.modules[obj.__module__], name), name

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from thompson_sigma import *", namespace)
        assert set(thompson_sigma.__all__) <= set(namespace)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            thompson_sigma.no_such_name  # noqa: B018


def test_budget_errors_built_only_in_errors():
    # every refusal goes through errors.refuse_above, in its one message form,
    # and every "<what> must be >= <low>" through errors.require_at_least
    # (ChainSpec's and the CLI's argparse messages name no <what>)
    for path in sorted((SRC / "thompson_sigma").glob("*.py")):
        if path.name != "errors.py":
            text = path.read_text()
            assert "ResourceLimitError(" not in text, path.name
            assert "exceeds the budget" not in text, path.name
            assert not re.search(r"\w must be >=", text), path.name


def _lower_bound_calls():
    from thompson_sigma.autos import CharacterMatrix

    ts = thompson_sigma
    coordinate = ts.ChainSpec("coordinate", p=2)
    point = ts.sphere_point(ts.character(2, [1, 0]))
    lattice = ts.hnf([[2, 0], [0, 2]])
    return {  # each check routed through errors.require_at_least: a call that fails it, and its message
        "GroupWord arity": (lambda: ts.word(1, []), "arity must be >= 2, got 1"),
        "SeminormalForm arity": (lambda: ts.SeminormalForm(1, (), ()), "arity must be >= 2, got 1"),
        "Character arity": (lambda: ts.character(0, []), "arity must be >= 2, got 0"),
        "CharacterMatrix arity": (lambda: CharacterMatrix(1, ((1,),)), "arity must be >= 2, got 1"),
        "generator_map arity": (lambda: ts.generator_map(1, 0), "arity must be >= 2, got 1"),
        "hnf_bases arity": (lambda: ts.hnf_bases(-1, 3), "arity must be >= 2, got -1"),
        "generator index": (lambda: ts.generator_map(2, -1), "generator index must be >= 0, got -1"),
        "max_index": (lambda: ts.hnf_bases(2, 0), "max_index must be >= 1, got 0"),
        "in_sigma_m m": (lambda: ts.in_sigma_m(ts.character(2, [1, 0]), 0), "m must be >= 1, got 0"),
        "chi series m": (lambda: ts.chi_m_gradient_series(coordinate, -2, 2, 3), "m must be >= 0, got -2"),
        "m_max": (lambda: ts.kernel_finiteness([[1, 0]], m_max=0), "m_max must be >= 1, got 0"),
        "cap": (lambda: ts.d_orbit(point, cap=-4), "cap must be >= 1, got -4"),
        "chain position": (lambda: ts.chain(coordinate, -1, 2), "chain position must be >= 0, got -1"),
        "d0 override": (lambda: ts.d_bound(lattice, d0_override=0), "d0 override must be >= 1, got 0"),
        "prefix dimension": (lambda: ts.cell_vector((1, 2)).prefix(-1), "dimension must be >= 0, got -1"),
        "d_bound dimension": (lambda: ts.d_bound(lattice, chi_upto=-3), "dimension must be >= 0, got -3"),
        "steps": (lambda: ts.rank_gradient_series(coordinate, 2, 0), "steps must be >= 1, got 0"),
    }


LOWER_BOUND_CALLS = _lower_bound_calls()


@pytest.mark.parametrize("check", LOWER_BOUND_CALLS)
def test_lower_bounds_raise_parse_error(check):
    call, message = LOWER_BOUND_CALLS[check]
    with pytest.raises(ParseError) as refused:
        call()
    assert isinstance(refused.value, ValueError) and str(refused.value) == message


def _non_int_calls():
    ts = thompson_sigma
    lattice = ts.hnf([[2, 0], [0, 2]])
    return {  # a float or a string where errors.require_at_least wants an int, and its message
        "generator index": (lambda: ts.generator_map(2, 1.0), "generator index must be an int, got 1.0"),
        "hnf_bases arity": (lambda: ts.hnf_bases(2.0, 3), "arity must be an int, got 2.0"),
        "max_index": (lambda: ts.hnf_bases(2, "3"), "max_index must be an int, got '3'"),
        "d_bound dimension": (lambda: ts.d_bound(lattice, chi_upto=2.5), "dimension must be an int, got 2.5"),
        "m_max": (lambda: ts.kernel_finiteness([[1, 0]], m_max=1.5), "m_max must be an int, got 1.5"),
        "steps": (lambda: ts.deficiency_gradient_series(ts.ChainSpec("scaling", p=2), 2, 2.5),
                  "steps must be an int, got 2.5"),
    }


NON_INT_CALLS = _non_int_calls()


@pytest.mark.parametrize("check", NON_INT_CALLS)
def test_lower_bounds_refuse_non_ints(check):
    thompson_sigma.generator_map(2, 1)  # cached under the int, so 1.0 is no cache hit
    call, message = NON_INT_CALLS[check]
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        call()


def test_lower_bounds_take_bools_as_ints():
    ts = thompson_sigma
    assert ts.generator_map(2, True) == ts.generator_map(2, 1)
    assert list(ts.hnf_bases(2, True)) == list(ts.hnf_bases(2, 1))


def test_integer_entries_refuse_other_types():
    # each entry goes through errors.require_ints; a bool counts as its int
    ts = thompson_sigma
    calls = [  # (what, entries -> result) for each route that takes integer entries
        ("lattice entries", lambda a, b: ts.hnf([[a, 0], [b, 2]])),
        ("lattice entries", lambda a, b: ts.kernel_finiteness([[a, b]])),
        ("cell counts", lambda a, b: ts.CellVector((a, b))),
    ]
    for what, call in calls:
        for bad in (0.5, 2.9, Fraction(5, 2), Fraction(2), "3", 1.0, None):
            with pytest.raises(ValueError, match=f"^{what} must be ints, got {re.escape(repr(bad))}$"):
                call(1, bad)
        assert call(True, False) == call(1, 0)


# the caches in src/ without an int maxsize, and the bound that keeps each key set finite
UNBOUNDED_CACHES = {
    "generator_map": "MAX_PL_INDEX: arities 2..256 times indices 0..256, 65,535 maps",
    "inverse_generator_map": "MAX_PL_INDEX, as generator_map",
    "_chi_sums": "d_bound passes only the two n = 2 cell vectors",
}


def test_every_cache_is_bounded():
    # every lru_cache in src/ names an int maxsize, or a key bound in UNBOUNDED_CACHES
    unbounded = []
    for path in sorted((SRC / "thompson_sigma").glob("*.py")):
        for f in ast.walk(ast.parse(path.read_text())):
            for dec in getattr(f, "decorator_list", ()):
                call = dec if isinstance(dec, ast.Call) else ast.Call(dec, [], [])
                if ast.unparse(call.func).rpartition(".")[2] not in ("lru_cache", "cache"):
                    continue
                size = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
                if not (size and isinstance(size[0], ast.Constant) and type(size[0].value) is int):
                    unbounded.append(f.name)
    assert sorted(unbounded) == sorted(UNBOUNDED_CACHES)


def test_readme_budget_table_is_the_budget_table():
    # README's rows: | `NAME` | limit, as 2^k or decimal | counts | exit code |
    text = README.read_text()
    rows = re.findall(r"^\| `(\w+)` \| (\S+) \| [^|]+ \| (\d) \|$", text, re.MULTILINE)
    documented = {
        name: (2 ** int(limit[2:]) if limit.startswith("2^") else int(limit), int(code))
        for name, limit, code in rows
    }
    assert len(documented) == len(rows)
    assert documented == {
        name: (budget.limit, 1 if issubclass(budget.error, ParseError) else 2)
        for name, budget in BUDGETS.items()
    }
    assert re.findall(r"`orbit --cap` \(default (\d+)\)", text) == [str(ORBIT_CAP)]


_F = Fraction

# one instance of each value class: (module, class, arguments, repr)
VALUES = [
    ("words", "GroupWord", (2, ((1, 1), (0, -1))),
     "GroupWord(arity=2, letters=(GeneratorLetter(index=1, exponent=1), GeneratorLetter(index=0, exponent=-1)))"),
    ("words", "SeminormalForm", (3, (0, 2), (1,)), "SeminormalForm(arity=3, positive=(0, 2), negative=(1,))"),
    ("plrep", "PLMap", (2, ((_F(0), _F(0)), (_F(1, 2), _F(1, 4)), (_F(1), _F(1)))),
     "PLMap(arity=2, breakpoints=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 2), Fraction(1, 4)),"
     " (Fraction(1, 1), Fraction(1, 1))))"),
    ("charspace", "Character", (2, (-1, _F(1, 2))), "Character(arity=2, values=(Fraction(-1, 1), Fraction(1, 2)))"),
    ("charspace", "SpherePoint", (2, (_F(-1), _F(1, 2))),
     "SpherePoint(arity=2, ray=(-2, 1))"),
    ("charspace", "FinitenessReport", (False, 1, None, True),
     "FinitenessReport(is_finitely_generated=False, max_certified_f_type=1, witness=None, assumed_conjecture=True)"),
    ("autos", "CharacterMatrix", (2, ((0, 1), (1, 0))), "CharacterMatrix(arity=2, entries=((0, 1), (1, 0)))"),
    ("lattices", "SubgroupLattice", (2, ((2, 0), (0, 1))), "SubgroupLattice(arity=2, basis=((2, 0), (0, 1)))"),
    ("lattices", "ChainSpec", ("scaling", 2), "ChainSpec(kind='scaling', p=2, terms=None)"),
    ("complexes", "AffineTail", (8, -4, 3), "AffineTail(slope=8, offset=-4, start=3)"),
    ("complexes", "CellVector", ((1, 2),), "CellVector(counts=(1, 2), tail=None)"),
    ("complexes", "BoundReport", (None, "5+d0", "3", None, 3, None),
     "BoundReport(d_upper=None, d_upper_symbolic='5+d0', case_tag='3', def_lower=None, def_upper=3, chi_values=None)"),
    ("gradients", "GradientRow", (0, 1, _F(1), None, "5+d0"),
     "GradientRow(s=0, index=1, lower=Fraction(1, 1), upper=None, upper_symbolic='5+d0')"),
    ("gradients", "GradientSeries", ("rank", 2, None, ()), "GradientSeries(kind='rank', arity=2, m=None, rows=())"),
]


@pytest.mark.parametrize("module, name, args, text", VALUES, ids=[v[1] for v in VALUES])
def test_value_semantics(module, name, args, text):
    cls = getattr(importlib.import_module(f"thompson_sigma.{module}"), name)
    value = cls(*args)
    assert value == cls(*args) and hash(value) == hash(cls(*args))
    twin = type("Twin", (cls,), {})(*args)  # same fields, another class
    assert value != twin and twin != value
    assert repr(value) == text
    field = text[len(name) + 1:].split("=")[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text  # the refused writes changed nothing
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
    # the same fields set unchecked, as the package builds its own values
    trusted = cls._trusted(*(getattr(value, field) for field in cls.__slots__))
    assert type(trusted) is cls and trusted == value and value == trusted
    assert hash(trusted) == hash(value) and repr(trusted) == text
    assert pickle.loads(pickle.dumps(trusted)) == value and copy.deepcopy(trusted) == value
    # one field too many, and one too few of those without a default
    fields = cls._fields(value)
    required = len(fields) - len(cls.__init__.__defaults__ or ())
    for wrong in (fields + (None,), fields[: required - 1]):
        with pytest.raises(TypeError):
            cls(*wrong)


def test_values_of_different_classes_differ():
    from thompson_sigma.autos import CharacterMatrix
    from thompson_sigma.charspace import Character, SpherePoint
    from thompson_sigma.lattices import SubgroupLattice

    v = (_F(-1), _F(1, 2))
    assert SpherePoint(2, v) != Character(2, v) and Character(2, v) != SpherePoint(2, v)
    rows = ((2, 0), (0, 1))
    assert CharacterMatrix(2, rows) != SubgroupLattice(2, rows)


def test_values_store_through_value_init():
    # one store route: a checking constructor stores through `Value.__init__`;
    # only `errors.py` and the enumeration's loop read the slot setters
    offenders, loops = [], 0
    for path in sorted((SRC / "thompson_sigma").glob("*.py")):
        tree = ast.parse(path.read_text())
        hot = {
            id(node)
            for cls in tree.body
            if path.name == "lattices.py" and isinstance(cls, ast.ClassDef) and cls.name == "Subgroups"
            for f in cls.body
            if isinstance(f, ast.FunctionDef) and f.name == "__iter__"
            for node in ast.walk(f)
        }
        loops += bool(hot)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr == "__setattr__" and isinstance(node.value, ast.Name) and node.value.id == "object":
                offenders.append((path.name, node.lineno, "object.__setattr__"))
            if node.attr == "_setters" and path.name != "errors.py" and id(node) not in hot:
                offenders.append((path.name, node.lineno, "_setters"))
    assert offenders == [] and loops == 1


def test_index_budget_alias():
    # `perfbench/run.py`, the only reader of this name, takes the budget
    # from it for `words.index_headroom`
    assert words.DEFAULT_INDEX_CAP == errors.MAX_GENERATOR_INDEX


def test_cli_calls_layers_through_the_surface():
    # cli.py imports no layer module; every layer call is `ts.<public name>`
    tree = ast.parse((SRC / "thompson_sigma" / "cli.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(node in tree.body for node in imports)  # no function-local import
    modules = {
        name
        for node in imports
        for name in (
            ["." * node.level + (node.module or "")]
            if isinstance(node, ast.ImportFrom)
            else [alias.name for alias in node.names]
        )
    }
    assert {m for m in modules if m.startswith((".", "thompson_sigma"))} == {"thompson_sigma", ".errors"}
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ts"
    }
    assert used and used <= set(thompson_sigma.__all__), used - set(thompson_sigma.__all__)


def _modules_after(code):
    # every module in sys.modules after `code` runs in a fresh interpreter
    script = code + "\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def _loaded_after(code):
    # the package's modules in sys.modules after `code` runs in a fresh interpreter
    loaded = _modules_after(code)
    return {name.removeprefix("thompson_sigma.") for name in loaded if name.startswith("thompson_sigma")}


class TestImportFootprint:
    def test_package_loads_no_layer(self):
        assert _loaded_after("import thompson_sigma") == {"thompson_sigma"}

    def test_words_alone(self):
        assert _loaded_after("import thompson_sigma.words") == {"thompson_sigma", "words", "errors"}

    def test_charspace_needs_no_words(self):
        assert _loaded_after("import thompson_sigma.charspace") == {
            "thompson_sigma", "charspace", "_linalg", "errors",
        }

    def test_normalize_loads_word_layers_only(self):
        code = "from thompson_sigma import cli\nassert cli.main(['normalize', '--n', '2', '--word', 'x1 x0']) == 0"
        assert _loaded_after(code) == {"thompson_sigma", "cli", "errors", "words"}

    def test_sigma_loads_no_lattice_layers(self):
        code = "from thompson_sigma import cli\nassert cli.main(['sigma', '--n', '2', '--chi', '-1,0']) == 0"
        assert _loaded_after(code) == {"thompson_sigma", "cli", "errors", "charspace", "_linalg"}

    def test_orbit_and_auto_matrix_load_autos_and_charspace(self):
        for argv in (["orbit", "--n", "2", "--chi", "-1,0"], ["auto-matrix", "--n", "3", "--which", "C"]):
            code = f"from thompson_sigma import cli\nassert cli.main({argv!r}) == 0"
            assert _loaded_after(code) == {
                "thompson_sigma", "cli", "errors", "autos", "charspace", "_linalg",
            }, argv

    def test_subgroups_loads_lattices_and_charspace(self):
        code = "from thompson_sigma import cli\nassert cli.main(['subgroups', '--n', '2', '--max-index', '3']) == 0"
        assert _loaded_after(code) == {"thompson_sigma", "cli", "errors", "lattices", "charspace", "_linalg"}

    def test_name_loads_its_home_module(self):
        code = "import thompson_sigma\nthompson_sigma.sphere_point"
        assert _loaded_after(code) == {"thompson_sigma", "charspace", "_linalg", "errors"}

    def test_no_generated_code(self):
        # the value classes are written out in source: no layer loads
        # dataclasses, nor the inspect it pulls in; normalize needs no fractions
        layers = sorted(p.stem for p in (SRC / "thompson_sigma").glob("*.py") if p.stem != "__init__")
        gradient = ["gradient", "--n", "2", "--kind", "rg", "--chain", "scaling:2", "--steps", "3"]
        code = "".join(f"import thompson_sigma.{name}\n" for name in layers)
        code += f"assert thompson_sigma.cli.main({gradient!r}) == 0"
        assert not _modules_after(code) & {"dataclasses", "inspect"}
        code = "from thompson_sigma import cli\nassert cli.main(['normalize', '--n', '2', '--word', 'x1 x0']) == 0"
        assert not _modules_after(code) & {"dataclasses", "inspect", "fractions"}
