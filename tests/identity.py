"""Run fixed catalogues of library and CLI calls, and compare two trees.

    python3 tests/identity.py record | run | compare TREE

`record` runs `tests/test_cli.py` (hypothesis seeded) with `conftest.py`
wrapping `cli.main` in `install_recorder`, and keeps each distinct call (argv,
THOMPSON_SIGMA_* variables, digit limit) as a line of `.replay/calls.jsonl`.

`run` makes, on the `thompson_sigma` found on sys.path, every call of the
library catalogue, then every CLI call `record` kept, in-process, under its
variables and digit limit (restored after each call).  It prints one JSON line
per call: the call and its outcome.  A library call's outcome is a digest of
its result, or the type and message of what it raised; a call named after a
budget runs with that budget patched smaller where it is read, so refusals are
cheap.  A CLI call's is its exit code, digests of stdout and stderr, and the
head of stderr.

`compare` records, then runs on this checkout's `src/` and on TREE's (one
subprocess each, side by side), prints each call whose outcome differs, then
a count, and exits 1 if any differ.  TREE, the root of another checkout, needs
no copy of this script.  Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

ROOT = Path(__file__).resolve().parent.parent
CALLS = ROOT / ".replay" / "calls.jsonl"
ENV_PREFIX = "THOMPSON_SIGMA_"


def install_recorder(path: str) -> None:
    """Wrap `cli.main` so that each call is appended to `path` (`record` drops repeats)."""
    from thompson_sigma import cli

    def recording_main(argv=None, main=cli.main):
        call = {"argv": list(sys.argv[1:] if argv is None else argv), "digits": sys.get_int_max_str_digits(),
                "env": {k: v for k, v in os.environ.items() if k.startswith(ENV_PREFIX)}}
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(call, sort_keys=True) + "\n")
        return main(argv)

    cli.main = recording_main


def record() -> None:
    CALLS.parent.mkdir(exist_ok=True)
    CALLS.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPLAY_RECORD=str(CALLS))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests/test_cli.py"]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True)
    lines = dict.fromkeys(CALLS.read_text(encoding="utf-8").splitlines())  # distinct, in order
    CALLS.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"{len(lines)} distinct CLI calls recorded in {CALLS} (pytest exit {done.returncode})")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _canon(x) -> str:
    """A text of `x` that two equal results share, whatever their tree."""
    if x is None or isinstance(x, (bool, int, str, Fraction)):
        return repr(x)
    if isinstance(x, (set, frozenset)):
        return "{" + ", ".join(sorted(map(_canon, x))) + "}"
    if isinstance(x, dict):
        return "{" + ", ".join(sorted(f"{_canon(k)}: {_canon(v)}" for k, v in x.items())) + "}"
    if isinstance(x, (tuple, list)):
        return type(x).__name__ + "[" + ", ".join(map(_canon, x)) + "]"
    if type(x).__name__ == "Subgroups":  # `enumerate_subgroups`' view, as the list it stands for
        return _canon(list(x))
    if type(x).__name__ == "SpherePoint":  # by its values, whether it stores them or its ray
        return f"SpherePoint(arity={_canon(x.arity)}, values={_canon(x.values)})"
    slots = getattr(type(x), "__slots__", ())
    if slots:  # the package's value classes
        return type(x).__name__ + "(" + ", ".join(f"{s}={_canon(getattr(x, s))}" for s in slots) + ")"
    return repr(x)


def _outcome(call) -> str:
    try:
        result = call()
    except Exception as exc:  # a refusal is an outcome to compare too
        return f"raised {type(exc).__name__}: {exc}"
    return "= " + _digest(_canon(result))


def _patched(module, name: str, value, call):
    """`call()` with the budget `name` set to `value` where `module` reads it."""
    with patch.object(module, name, value):
        return call()


def _letters(rng, length: int, top: int):
    return [(rng.randrange(top + 1), rng.choice((1, -1))) for _ in range(length)]


def _with_pairs(rng, letters, pairs: int, top: int):
    """`letters` with cancelling pairs x_i^e x_i^-e inserted, some nested."""
    out, pos = list(letters), None
    for _ in range(pairs):
        pos = pos + 1 if pos is not None and rng.random() < 0.5 else rng.randrange(len(out) + 1)
        i, e = rng.randrange(top + 1), rng.choice((1, -1))
        out[pos:pos] = [(i, e), (i, -e)]
    return out


def _grid_points(rng):
    """Up to 5 interior points of an increasing map, on the grid of a
    denominator that is no power of 2, 3 or 4."""
    d = rng.choice((3, 5, 6, 7, 10, 12, 30))
    m = rng.randint(0, min(5, d - 1))
    xs, ys = (sorted(Fraction(c, d) for c in rng.sample(range(1, d), m)) for _ in range(2))
    return [(0, 0), *zip(xs, ys), (1, 1)]


def catalogue():
    """Yield (name, call) pairs: the same calls, in the same order, on every tree."""
    from thompson_sigma import autos, charspace, complexes, gradients, lattices, plrep, words

    word = words.word

    # words: parsing
    rng = random.Random("parse")
    texts = ["", "x0", "x1^-1 x0^3", "x2 x0^-1 x3^2", "x", "y1", "x0^0", "x01^2", "x-1",
             "x0^2000000", "x" + "9" * 101, "x0^" + "9" * 101, "x1^+2", "x 1", "x0^-0"]
    texts += [" ".join(f"x{i}" + (f"^{e}" if e != 1 else "") for i, e in _letters(rng, rng.randrange(12), 9))
              for _ in range(40)]
    for k, text in enumerate(texts):
        yield f"parse_word/{k}", lambda text=text, n=2 + k % 3: words.parse_word(n, text)

    # words: the rewriting routes, on seeded words of up to 65 letters
    rng = random.Random("words")
    for k in range(600):
        n, top = 2 + k % 3, rng.choice((4, 9, 30))
        u = word(n, _with_pairs(rng, _letters(rng, rng.randrange(60), top), rng.randrange(4), top))
        v = word(n, _letters(rng, rng.randrange(20), top))
        yield f"normal_form/{k}", lambda u=u: words.normal_form(u)
        yield f"rewrite_to_seminormal/{k}", lambda u=u: words.rewrite_to_seminormal(u)
        yield f"multiply/{k}", lambda u=u, v=v: words.multiply(
            words.rewrite_to_seminormal(u), words.rewrite_to_seminormal(v))
        yield f"are_equal/{k}", lambda u=u, v=v: words.are_equal(u, v)
        yield f"are_equal/self/{k}", lambda u=u, r=random.Random(k): words.are_equal(
            u, word(u.arity, _with_pairs(r, u.letters, 2, 5)))
        yield f"abelianize/{k}", lambda u=u: words.abelianize(u)
        if k < 200:  # the routes that build their values unchecked
            yield f"invert/{k}", lambda u=u: words.invert(u)
            yield f"concat/{k}", lambda u=u, v=v: words.concat(u, v)
            yield f"to_word/{k}", lambda u=u: words.normal_form(u).to_word()
    for k in range(40):  # indices bumped past a small budget, and long rewrites
        n = 2 + k % 3
        u = word(n, _letters(rng, 30, 12))
        for f in (words.normal_form, words.rewrite_to_seminormal):
            yield f"{f.__name__}/MAX_GENERATOR_INDEX=24/{k}", lambda f=f, u=u: _patched(
                words, "MAX_GENERATOR_INDEX", 24, lambda: f(u))
        yield f"rewrite_to_seminormal/MAX_REWRITE_LETTERS=20/{k}", lambda u=u: _patched(
            words, "MAX_REWRITE_LETTERS", 20, lambda: words.rewrite_to_seminormal(u))
    yield "normal_form/index-past-budget", lambda: words.normal_form(word(2, [(1 << 16 | 1, 1)]))
    yield "are_equal/arity-mismatch", lambda: words.are_equal(word(2, []), word(3, []))
    yield "word/arity=1", lambda: word(1, [])
    for name, letters in (  # letters that are not (int, +-1)
        ("float-index", [(1.5, 1), (0, 1.0)]),
        ("float-exponent", [(0, 1), (2, 1.0)]),
        ("integral-float-index", [(2.0, 1)]),
        ("string-index", [("1", -1)]),
        ("negative-float-index", [(-1.5, 1)]),
        ("negative-index", [(0, 1), (-1, 1)]),
        ("exponent-2", [(0, 2)]),
        ("bool", [(True, 1), (0, True)]),
    ):
        yield f"word/{name}", lambda letters=letters: word(2, letters)
        yield f"normal_form/{name}", lambda letters=letters: words.normal_form(word(2, letters))
    for name, positive, negative in (
        ("valid", (0, 2), (1,)),
        ("float", (0, 1.5), ()),
        ("negative", (), (3, -1)),
        ("unsorted", (2, 0), ()),
    ):
        yield f"SeminormalForm/{name}", lambda p=positive, q=negative: words.SeminormalForm(2, p, q).to_word()

    # plrep: generator maps and their refusals
    for n in range(2, 7):
        for i in range(0, 20, 3):
            yield f"generator_map/{n}/{i}", lambda n=n, i=i: plrep.generator_map(n, i)
    for n, i in ((1, 0), (2, -1), (2, 257), (257, 0), (256, 256)):
        yield f"generator_map/{n}/{i}", lambda n=n, i=i: plrep.generator_map(n, i)

    # plrep: words with and without cancelling pairs, n = 2..4
    rng = random.Random("plrep")
    evaluated = []
    for k in range(1200):
        n = 2 + k % 3
        letters = _letters(rng, rng.randrange(30), 6)
        if k % 2:
            letters = _with_pairs(rng, letters, rng.randint(1, 3), 6)
        w = word(n, letters)
        evaluated.append(w)
        yield f"evaluate_word/{k}", lambda w=w: plrep.evaluate_word(w)
    for k in range(30):
        w = evaluated[k]
        yield f"evaluate_word/MAX_PL_WORK=40/{k}", lambda w=w: _patched(
            plrep, "MAX_PL_WORK", 40, lambda: plrep.evaluate_word(w))
    for name, n, letters in (
        ("cancels-to-empty", 3, [(4, 1), (1, -1), (1, 1), (4, -1)]),
        ("work-past-budget-cancels", 2, [(0, 1)] * 2049 + [(0, -1)] * 2049),
        ("work-at-budget", 2, [(254, 1)] * 32),
        ("index-past-budget", 2, [(0, 1), (257, -1)]),
        ("arity-past-budget", 257, [(0, 1), (0, -1)]),
        ("empty", 4, []),
    ):
        yield f"evaluate_word/{name}", lambda w=word(n, letters): plrep.evaluate_word(w)

    # plrep: compose, invert, evaluate_at and the checked constructors
    rng = random.Random("compose")
    for k in range(120):
        n = 2 + k % 3
        f = plrep.evaluate_word(word(n, _letters(rng, rng.randrange(14), 6)))
        g = plrep.evaluate_word(word(n, _letters(rng, rng.randrange(14), 6)))
        yield f"compose/{k}", lambda f=f, g=g: plrep.compose(f, g)
        yield f"compose/inverse/{k}", lambda f=f: plrep.compose(f, plrep.invert_map(f))
        yield f"invert_map/{k}", lambda g=g: plrep.invert_map(g)
        t = Fraction(rng.randrange(1000), 999)
        yield f"evaluate_at/{k}", lambda f=f, t=t: plrep.evaluate_at(f, t)
    yield "compose/arity-mismatch", lambda: plrep.compose(plrep.generator_map(2, 0), plrep.generator_map(3, 0))
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    for name, points in (
        ("valid", ((0, 0), (half, quarter), (1, 1))),
        ("float", ((0, 0), (0.5, 0.25), (1, 1))),
        ("string", ((0, 0), ("1/2", quarter), (1, 1))),
        ("not-increasing", ((0, 0), (half, 1), (1, 1))),
        ("no-end", ((0, 0), (half, quarter))),
        ("empty", ()),
        ("collinear", [(0, 0), (quarter, quarter), (half, half), (1, 1)]),
        ("step-back", [(0, 0), (half, half), (quarter, quarter), (1, 1)]),
        ("float-list", [(0, 0), (0.5, half), (1, 1)]),
    ):
        yield f"PLMap/{name}", lambda p=points: plrep.PLMap(2, p)
    rng = random.Random("grid")  # compose on maps through non-n-adic points
    for k in range(120):
        f, g = (plrep.PLMap(2, _grid_points(rng)) for _ in range(2))
        yield f"compose/grid/{k}", lambda f=f, g=g: plrep.compose(f, g)
        yield f"compose/grid/inverse/{k}", lambda f=f: plrep.compose(f, plrep.invert_map(f))
    yield "generator_map/float-index", lambda: plrep.generator_map(2, 1.0)
    yield "evaluate_at/float", lambda: plrep.evaluate_at(plrep.generator_map(2, 0), 0.5)
    yield "evaluate_at/outside", lambda: plrep.evaluate_at(plrep.generator_map(2, 0), Fraction(3, 2))

    # lattices, complexes
    for n, top in ((2, 100), (3, 30), (4, 12), (5, 6), (6, 4), (7, 2)):  # recursion depths 1 to 6
        yield f"enumerate_subgroups/{n}/{top}", lambda n=n, top=top: lattices.enumerate_subgroups(n, top)
        yield f"enumerate_subgroups/len/{n}/{top}", lambda n=n, top=top: len(lattices.enumerate_subgroups(n, top))
    for n, top in ((2, 1), (3, 1), (5, 6), (6, 4), (7, 2)):  # one lattice, then the deep arities
        yield f"hnf_bases/{n}/{top}", lambda n=n, top=top: list(lattices.hnf_bases(n, top))
    yield "enumerate_subgroups/MAX_LATTICES=100", lambda: _patched(
        lattices, "MAX_LATTICES", 100, lambda: lattices.enumerate_subgroups(2, 40))
    rng = random.Random("lattices")
    for k in range(60):
        n = 2 + k % 3
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        yield f"hnf/{k}", lambda rows=rows: lattices.hnf(rows)
    yield "hnf/rank-deficient", lambda: lattices.hnf([[1, 2], [2, 4]])
    for name, entry in (("float", 1.5), ("integral-float", 2.0), ("fraction", Fraction(5, 2)), ("string", "3"),
                        ("bool", True), ("int", 4)):
        yield f"hnf/{name}", lambda e=entry: lattices.hnf([[e, 0], [0, 2]])
        yield f"kernel_finiteness/{name}", lambda e=entry: charspace.kernel_finiteness([[e, 0]])
        yield f"CellVector/{name}", lambda e=entry: complexes.CellVector((1, e))
    yield "hnf_bases/arity=1", lambda: list(lattices.hnf_bases(1, 3))
    yield "hnf_bases/max_index=0", lambda: list(lattices.hnf_bases(2, 0))
    yield "hnf_bases/float-arity", lambda: list(lattices.hnf_bases(2.0, 3))
    yield "hnf_bases/string-max_index", lambda: list(lattices.hnf_bases(2, "3"))
    yield "d_bound/chi_upto=2.5", lambda: complexes.d_bound(lattices.hnf([[2, 0], [0, 2]]), chi_upto=2.5)
    for k, lat in enumerate(lattices.enumerate_subgroups(2, 40)):
        yield f"cells_for_subgroup_F/{k}", lambda lat=lat: complexes.cells_for_subgroup_F(lat)
    for k, lat in enumerate(lattices.enumerate_subgroups(3, 8)):
        yield f"d_bound/{k}", lambda lat=lat: complexes.d_bound(lat)
    for n, top in ((2, 20), (3, 8), (4, 4)):  # the HNN ingredients
        for k, lat in enumerate(lattices.enumerate_subgroups(n, top)):
            for f in (lattices.intersect_with_M, lattices.alpha, lattices.index):
                yield f"{f.__name__}/{n}/{top}/{k}", lambda f=f, lat=lat: f(lat)
    raw = [  # built inside each call, so that a refused basis is that call's outcome
        ("non-hnf", 2, ((1, 1), (1, -1))),
        ("non-hnf", 3, ((2, 1, 0), (1, 1, 1), (0, 3, 1))),
        ("negative-pivot", 2, ((-2, 0), (1, 3))),
        ("negative-pivot", 3, ((2, 0, 0), (1, -3, 0), (0, 1, 1))),
        ("extra-rows", 2, ((2, 0), (0, 2), (1, 1))),
        ("extra-rows", 3, ((1, 2, 3), (4, 5, 6), (7, 8, 10), (2, 0, 2))),
        ("rank-deficient", 2, ((1, 2), (2, 4))),
        ("rank-deficient", 3, ((1, 0, 0),)),
        ("rank-deficient", 3, ((0, 1, 0), (0, 0, 1))),
        ("rank-deficient", 3, ()),
    ]
    rng = random.Random("raw bases")  # dense rows, n - 1 to n + 1 of them, as the constructor takes them
    for k in range(120):
        n = 2 + k % 4
        rows = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(rng.randint(n - 1, n + 1)))
        raw.append((f"dense/{k}", n, rows))
    for k, (name, n, rows) in enumerate(raw):
        for f in (lattices.intersect_with_M, lattices.alpha, lattices.index):
            yield f"{f.__name__}/raw/{name}/{k}", lambda f=f, n=n, rows=rows: f(lattices.SubgroupLattice(n, rows))
    rng = random.Random("restrict")
    for k in range(60):
        chi = charspace.character(2 + k % 4, [rng.randint(-3, 3) for _ in range(2 + k % 4)])
        yield f"restrict_character/{k}", lambda chi=chi: lattices.restrict_character(chi)
    yield "restrict_character/zero", lambda: lattices.restrict_character(charspace.character(3, [0, 0, 0]))
    for n, rows in ((2, [[2, 0], [0, 2]]), (3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]]), ("m-contained", [[2, 0, 0], [0, 1, 0], [0, 0, 1]])):
        for key, value in (("chi_upto", -1), ("d0_override", -5)):
            yield f"d_bound/{key}={value}/{n}", lambda rows=rows, kw={key: value}: complexes.d_bound(lattices.hnf(rows), **kw)
    tail = complexes.AffineTail
    for name, args in (
        ("finite", ((1, 2),)),
        ("trailing-zero", ((1, 2, 0),)),
        ("negative", ((-5,),)),
        ("no-vertex", ((0, 1),)),
        ("tail-late", ((1, 2), tail(0, 2, 1))),
        ("tail-zero", ((1, 3, 0), tail(0, 0, 2))),
        ("tail-contradicted", ((1, 5, 11), tail(8, -4, 2))),
        ("tail-decreasing", ((4,), tail(-1, 4, 1))),
    ):
        yield f"CellVector/{name}", lambda a=args: complexes.CellVector(*a)
        yield f"cell_vector/{name}", lambda a=args: complexes.cell_vector(*a)
    yield "CellVector.prefix/-1", lambda: complexes.cell_vector((1, 2)).prefix(-1)
    yield "AffineTail/float-slope", lambda: complexes.CellVector((1,), tail(1.5, 1, 1))
    yield "AffineTail/string-slope", lambda: tail("a", 1, 1)
    yield "AffineTail/bool-slope", lambda: complexes.CellVector((1,), tail(True, 0, 1))

    # charspace, autos
    rng = random.Random("charspace")
    for k in range(120):
        n = 2 + k % 4
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n - 1) if n > 2 else 1)]
        yield f"kernel_finiteness/{k}", lambda rows=rows: charspace.kernel_finiteness(rows)
        chi = charspace.character(n, [rng.randint(-3, 3) for _ in range(n)])
        yield f"in_sigma_m/{k}", lambda chi=chi: charspace.in_sigma_m(chi, 2)
        yield f"d_orbit/{k}", lambda chi=chi: autos.d_orbit(charspace.sphere_point(chi))
        yield f"d_orbit/cap=4/{k}", lambda chi=chi: autos.d_orbit(charspace.sphere_point(chi), cap=4)
    point = charspace.sphere_point(charspace.character(2, [1, 0]))
    yield "d_orbit/cap=0", lambda: autos.d_orbit(point, cap=0)
    yield "in_sigma_m/m=0", lambda: charspace.in_sigma_m(charspace.character(2, [1, 0]), 0)
    yield "kernel_finiteness/m_max=0", lambda: charspace.kernel_finiteness([[1, 0]], m_max=0)
    yield "kernel_finiteness/m_max=1.5", lambda: charspace.kernel_finiteness([[1, 0]], m_max=1.5)
    yield "character/arity=1", lambda: charspace.character(1, [1])
    yield "CharacterMatrix/arity=1", lambda: autos.CharacterMatrix(1, ((1,),))

    # gradients
    for kind, p in (("scaling", 2), ("coordinate", 2), ("scaling", 3)):
        spec = lattices.ChainSpec(kind, p=p)
        for n in (2, 3):
            yield f"rank_gradient_series/{kind}/{p}/{n}", lambda s=spec, n=n: gradients.rank_gradient_series(s, n, steps=5)
        yield f"deficiency_gradient_series/{kind}/{p}", lambda s=spec: gradients.deficiency_gradient_series(s, 2, steps=5)
        yield f"chi_m_gradient_series/{kind}/{p}", lambda s=spec: gradients.chi_m_gradient_series(s, 2, 2, steps=4)
        yield f"certify_convergence/{kind}/{p}", lambda s=spec: gradients.certify_convergence(
            gradients.rank_gradient_series(s, 2, steps=5), Fraction(1, 8))
        yield f"rank_gradient_series/{kind}/{p}/3/d0_override=0", lambda s=spec: gradients.rank_gradient_series(
            s, 3, steps=3, d0_override=0)
    yield "chi_m_gradient_series/m=-1", lambda: gradients.chi_m_gradient_series(lattices.ChainSpec("scaling", p=2), -1)
    yield "chain/s=-1", lambda: lattices.chain(lattices.ChainSpec("scaling", p=2), -1, 2)
    spec = lattices.ChainSpec("scaling", p=2)
    for name, steps in (("float", 2.5), ("string", "3")):
        yield f"rank_gradient_series/steps={name}", lambda s=steps: gradients.rank_gradient_series(spec, 2, s)
        yield f"deficiency_gradient_series/steps={name}", lambda s=steps: gradients.deficiency_gradient_series(
            spec, 2, s)
        yield f"chi_m_gradient_series/steps={name}", lambda s=steps: gradients.chi_m_gradient_series(spec, 2, 2, s)
    for p in ("3", 2.5):
        yield f"ChainSpec/p={p!r}", lambda p=p: lattices.ChainSpec("scaling", p=p)


def _cli_outcome(main, call) -> dict:
    """The outcome of `main(argv)` under the call's variables and digit limit."""
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(call["digits"])
    out, err = io.StringIO(), io.StringIO()
    try:
        with patch.dict(os.environ, call["env"]), redirect_stdout(out), redirect_stderr(err):
            code = main(call["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is an outcome to compare too
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        sys.set_int_max_str_digits(digits)
    err = err.getvalue()
    return {"code": code, "out": _digest(out.getvalue()), "err": _digest(err), "err_head": err[:200]}


def run() -> None:
    calls = [json.loads(line) for line in CALLS.read_text(encoding="utf-8").splitlines()]
    for name, call in catalogue():
        print(json.dumps({"call": name, "outcome": _outcome(call)}))
    from thompson_sigma import cli

    for key in [k for k in os.environ if k.startswith(ENV_PREFIX)]:
        del os.environ[key]  # each CLI call sets its own
    for call in calls:
        print(json.dumps({"call": call, "outcome": _cli_outcome(cli.main, call)}))


def _run_on(tree: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "run"]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def compare(tree: Path) -> int:
    record()
    with ThreadPoolExecutor(2) as pool:  # the two trees side by side
        here, there = pool.map(_run_on, (ROOT, tree.resolve()))
    if [a["call"] for a in here] != [b["call"] for b in there]:
        print("the two trees ran different catalogues")
        return 1
    differ = 0
    for a, b in zip(here, there):
        if a != b:
            differ += 1
            print(json.dumps({"call": a["call"], "here": a["outcome"], "there": b["outcome"]}))
    print(f"{differ} of {len(here)} calls differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if argv in (["record"], ["run"]):
        (record if argv == ["record"] else run)()
        return 0
    if argv[:1] == ["compare"] and len(argv) == 2:
        return compare(Path(argv[1]))
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
