"""The four seeded workloads: inputs, ops, output checks and warm-ups.

Every workload is a closed loop with one client: the next op starts when
the previous op and its check are done.  Inputs come in rounds made from
(seed, round number) alone, as plain data, so a seed fixes the whole input
stream and the runner can fingerprint it.  The timed loop stops only
between windows of `window_rounds` rounds, and each window holds the
workload's full mix, so any number of windows measures the same mix.

`run_round(lib, inputs, meter)` runs one round: `lib` is `program.Layers`
(plain or traced), `meter` a `meter.Meter`.  Checks use the benchmark's own
arithmetic where an independent reference is cheap (lattice
counts, cell vectors, memberships), and the library itself where the
contract is agreement between two of its answers (word problem vs PL
oracle, CLI stdout vs the library call behind it).
"""

from __future__ import annotations

import io
import json
import os
import random
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from meter import KnownDefect, Meter
from thompson_sigma.words import word as _word  # builds inputs, outside every clock


def _rng(workload: str, seed: int, part) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def _letters(rng, length: int, max_index: int):
    return tuple((rng.randrange(max_index + 1), rng.choice((1, -1))) for _ in range(length))


def _insert_cancelling(rng, letters, pairs: int, max_index: int):
    out = list(letters)
    for _ in range(pairs):
        pos = rng.randrange(len(out) + 1)
        i, e = rng.randrange(max_index + 1), rng.choice((1, -1))
        out[pos:pos] = [(i, e), (i, -e)]
    return tuple(out)


def _max_index(letters) -> int:
    return max((i for i, _ in letters), default=0)


def _word_text(letters) -> str:
    return " ".join(f"x{i}" if e == 1 else f"x{i}^-1" for i, e in letters)


def _sn_letters(form):
    return [(i, 1) for i in form.positive] + [(i, -1) for i in form.negative]


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class Workload:
    """Interface: name, layers, window_rounds, trace_rounds, round_inputs,
    warm_inputs, run_round; `final_check` may add a whole-run check."""

    def warm_up(self, lib) -> None:
        """Run the tiny warm-up round: one op of each kind, caches filled."""
        m = Meter()
        for inputs in self.warm_inputs():
            self.run_round(lib, inputs, m)
        if m.failed != m.known:
            raise RuntimeError(f"{self.name} warm-up failed: {dict(m.reasons)}")

    def final_check(self, m: Meter):
        return None


# ---------------------------------------------------------------- oracle_pairs


class OraclePairs(Workload):
    """The acceptance criterion-3 generator: the word problem vs the PL oracle."""

    name = "oracle_pairs"
    layers = ("words", "plrep")
    per_round = 30
    window_rounds = 10
    trace_rounds = 20  # 600 pairs

    @staticmethod
    def _short_word(rng):
        return _letters(rng, rng.randrange(13), 4)

    def round_inputs(self, seed: int, r: int):
        rng = _rng(self.name, seed, r)
        pairs = []
        for k in range(r * self.per_round, (r + 1) * self.per_round):
            n = 2 if k % 2 == 0 else 3
            u = self._short_word(rng)
            v = _insert_cancelling(rng, u, rng.randrange(1, 4), 4) if k % 3 == 0 else self._short_word(rng)
            pairs.append((n, u, v))
        return pairs

    def warm_inputs(self):
        return [[(2, ((1, 1), (0, 1)), ((0, 1), (2, 1))), (3, ((1, 1), (0, 1)), ((0, 1), (3, 1)))]]

    def run_round(self, lib, inputs, m: Meter) -> None:
        words, plrep = lib.words, lib.plrep

        def run(u, v):
            fu, fv = plrep.evaluate_word(u), plrep.evaluate_word(v)
            return words.are_equal(u, v), fu, fv, plrep.maps_equal(fu, fv)

        def check(out, a, b):
            decided, fu, fv, equal = out
            letters = len(a) + len(b)
            m.count("words.letters_in", letters)
            m.count("_plrep.letters", letters)
            m.peak("words.max_index", max(_max_index(a), _max_index(b)))
            for f in (fu, fv):
                m.count("plrep.breakpoints_out", len(f.breakpoints))
                m.peak("plrep.max_denominator_bits", max(x.denominator.bit_length() for p in f.breakpoints for x in p))
            m.count("_equal", equal)
            if decided != equal:
                return f"are_equal says {decided}, the PL oracle says {equal}"
            return None

        for n, a, b in inputs:
            u, v = _word(n, a), _word(n, b)
            m.op(lambda: run(u, v), lambda out: check(out, a, b))

    def final_check(self, m: Meter):
        if not 0 < m.counts["_equal"] < m.attempted:
            return "equal and unequal pairs must both occur"
        return None


# ------------------------------------------------------------------ long_words

BAND_LENGTH = {"short": 100, "mid": 400, "long": 1600}
# 40/40/20: p50 falls inside the mid band and p90 inside the long band.
ROUND_BANDS = ("short", "short", "mid", "mid", "long")


def _scrambled(rng, n: int, letters):
    """An equal word: defining relations substituted, cancelling pairs inserted."""
    out = list(letters)
    k = max(1, len(letters) // 50)
    # x_{i+n-1}^e = x_j^-1 x_i^e x_j for i > j >= 0
    spots = [p for p, (i, _) in enumerate(out) if i >= n]
    for p in sorted(rng.sample(spots, min(k, len(spots))), reverse=True):
        i, e = out[p]
        base = i - (n - 1)
        j = rng.randrange(base)
        out[p : p + 1] = [(j, -1), (base, e), (j, 1)]
    return _insert_cancelling(rng, out, k, 8)


class LongWords(Workload):
    """normal_form of long random words in three length bands."""

    name = "long_words"
    layers = ("words",)
    window_rounds = 3  # one round per n
    trace_rounds = 12

    def round_inputs(self, seed: int, r: int):
        rng = _rng(self.name, seed, r)
        n = 2 + r % 3
        out = []
        for band in rng.sample(ROUND_BANDS, len(ROUND_BANDS)):
            letters = _letters(rng, BAND_LENGTH[band], 8)
            out.append((band, n, letters, _scrambled(rng, n, letters)))
        return out

    def warm_inputs(self):
        return [[("short", n, ((1, 1), (0, 1), (2, -1)), ((1, 1), (3, 1), (3, -1), (0, 1), (2, -1)))] for n in (2, 3, 4)]

    def run_round(self, lib, inputs, m: Meter) -> None:
        words = lib.words

        def check(nf, band, n, letters, w, scrambled):
            out = _sn_letters(nf)
            m.count("words.letters_in", len(letters))
            m.count("words.letters_out", len(out))
            m.peak("words.max_index", max(_max_index(letters), _max_index(out)))
            m.count(f"_len.{band}", len(letters))
            m.count(f"_n.{band}")
            if m.trace_extras:
                words.rewrite_to_seminormal(w)  # timed by its span
            if words.normal_form(scrambled) != nf:
                return "normal form differs on a scrambled equal copy"
            again = _word(n, out)
            if words.normal_form(again) != nf:
                return "normal form is not idempotent"
            if words.abelianize(again) != words.abelianize(w):
                return "normal form changes the abelianization"
            return None

        for band, n, letters, scrambled in inputs:
            w, s = _word(n, letters), _word(n, scrambled)
            m.op(
                lambda: words.normal_form(w),
                lambda nf: check(nf, band, n, letters, w, s),
                tag=band,
            )



# ------------------------------------------------------------- subgroup_census

# (n, max index, lattices sampled per round): the ROADMAP's sizes; n = 2
# lattices are the majority of ops.
SWEEPS = ((2, 100, 900), (3, 30, 300), (4, 12, 300))
GRADIENT_KINDS = ("rank", "deficiency", "chi")
CHAIN_PRIMES = {"scaling": (2, 3), "coordinate": (2, 3, 5)}
EPS = Fraction(1, 1000)


def _diagonals(n: int, budget: int):
    if n == 0:
        yield ()
        return
    for d in range(1, budget + 1):
        for rest in _diagonals(n - 1, budget // d):
            yield (d,) + rest


@lru_cache(maxsize=None)
def index_counts(n: int, max_index: int) -> dict[int, int]:
    """Sublattices of Z^n per index: HNF diagonals, prod d_i^(n-1-i) fillings each."""
    counts: Counter[int] = Counter()
    for diag in _diagonals(n, max_index):
        idx, fillings = 1, 1
        for i, d in enumerate(diag):
            idx *= d
            fillings *= d ** (n - 1 - i)
        counts[idx] += fillings
    return dict(counts)


def _member(basis, vector) -> bool:
    """Back-substitution on a lower-triangular HNF basis."""
    v = list(vector)
    for i in range(len(v) - 1, -1, -1):
        c, rem = divmod(v[i], basis[i][i])
        if rem:
            return False
        if c:
            v = [a - c * b for a, b in zip(v, basis[i])]
    return True


def _cell_value(vec, j: int) -> int:
    if vec.tail is not None and j >= vec.tail.start:
        return vec.tail.slope * j + vec.tail.offset
    return vec.counts[j] if j < len(vec.counts) else 0


def _alternating(values):
    return list(accumulate(values, lambda total, r: r - total))


CELLS_CASE12 = [1, 3] + [4] * 15
CELLS_CASE3 = [1, 5, 12] + [8 * j - 4 for j in range(3, 17)]


def _certified_from(rows):
    first = None
    for row in rows:
        if max(abs(row.lower), abs(row.upper)) <= EPS:
            first = row.s if first is None else first
        else:
            first = None
    return first


class SubgroupCensus(Workload):
    """Enumerate subgroup lattices and classify a seeded sample of them."""

    name = "subgroup_census"
    layers = ("charspace", "autos", "lattices", "complexes", "gradients")
    window_rounds = 1
    trace_rounds = 4

    def round_inputs(self, seed: int, r: int):
        rng = _rng(self.name, seed, r)
        sweeps = []
        for n, max_index, sample in SWEEPS:
            total = sum(index_counts(n, max_index).values())
            sweeps.append((n, max_index, sorted(rng.sample(range(total), sample))))
        gradients = [
            (kind, chain, rng.choice(CHAIN_PRIMES[chain]), rng.randrange(8, 13), rng.randrange(1, 5))
            for kind in GRADIENT_KINDS
            for chain in CHAIN_PRIMES
        ]
        return {"sweeps": sweeps, "gradients": gradients, "shuffle": rng.getrandbits(32)}

    def warm_inputs(self):
        sweeps = [(2, 4, [0, 14]), (3, 2, [7]), (4, 2, [15])]
        gradients = [(kind, "scaling", 2, 3, 1) for kind in GRADIENT_KINDS]
        return [{"sweeps": sweeps, "gradients": gradients, "shuffle": 0}]

    def run_round(self, lib, inputs, m: Meter) -> None:
        ops = []
        for n, max_index, positions in inputs["sweeps"]:
            picked = m.step(
                lambda: self._enumerate(lib, n, max_index, positions),
                lambda out: self._check_enumeration(m, n, max_index, out),
            )
            if picked is not None:
                ops += [(f"n{n}", lambda lat=lat: self._lattice_op(lib, lat), lambda out, lat=lat: self._check_lattice(m, out, lat)) for lat in picked[1]]
        for g in inputs["gradients"]:
            ops.append(("gradient", lambda g=g: self._gradient_op(lib, *g), lambda out, g=g: self._check_gradient(m, out, *g)))
        random.Random(inputs["shuffle"]).shuffle(ops)
        for tag, run, check in ops:
            m.op(run, check, tag=tag)

    @staticmethod
    def _enumerate(lib, n, max_index, positions):
        # Consume the enumeration once, keeping only the sampled lattices, so
        # a streaming enumerate_subgroups would show in peak memory.
        tally: Counter[int] = Counter()
        picked = []
        wanted = iter(positions)
        nxt = next(wanted, None)
        for pos, lat in enumerate(lib.lattices.enumerate_subgroups(n, max_index)):
            b = lat.basis
            idx = 1
            for i in range(n):
                idx *= b[i][i]
            tally[idx] += 1
            if pos == nxt:
                picked.append(lat)
                nxt = next(wanted, None)
        return tally, picked

    @staticmethod
    def _check_enumeration(m, n, max_index, out):
        tally, _ = out
        m.count("lattices.enumerated", sum(tally.values()))
        if tally != index_counts(n, max_index):
            return f"enumerate_subgroups({n}, {max_index}) per-index counts differ from the HNF diagonal count"
        return None

    @staticmethod
    def _lattice_op(lib, lat):
        complexes, charspace = lib.complexes, lib.charspace
        n = lat.arity
        cells = inter = orbit = None
        if n == 2:
            cells = complexes.cells_for_subgroup_F(lat)
            bound = complexes.d_bound(lat)
        else:
            bound = complexes.d_bound(lat)
            inter = lib.lattices.intersect_with_M(lat)
        kernel = charspace.kernel_finiteness([list(row) for row in lat.basis[: n - 1]])
        if kernel.witness is not None:
            point = charspace.sphere_point(kernel.witness)
            orbit = (point, lib.autos.d_orbit(point))
        return cells, bound, inter, kernel, orbit

    @staticmethod
    def _check_lattice(m, out, lat):
        cells, bound, inter, kernel, orbit = out
        n, basis = lat.arity, lat.basis
        if n == 2:
            vec, case = cells
            want = 1 if _member(basis, (0, 1)) else 2 if _member(basis, (1, -1)) else 3
            if case != want:
                return f"cells case {case}, expected {want}"
            values = [_cell_value(vec, j) for j in range(17)]
            if values != (CELLS_CASE3 if case == 3 else CELLS_CASE12):
                return f"cell vector {values[:4]}... for case {case}"
            m.count("complexes.case3_count", case == 3)
            chis = _alternating(values)
            if min(chis) < 0 or bound.chi_values != tuple(chis):
                return "d_bound chi values differ from the alternating cell sums"
            if bound.d_upper != values[1] or bound.def_lower != 1 - values[0] + values[1] - values[2]:
                return "d_bound differs from the cell counts"
        else:
            contained = all(_member(basis, [int(c == i) for c in range(n)]) for i in range(1, n))
            if contained != (bound.case_tag == "m-contained"):
                return f"d_bound case {bound.case_tag}, M contained: {contained}"
            if not contained and bound.d_upper_symbolic != f"{n + 2}+d0":
                return f"d_bound symbolic bound {bound.d_upper_symbolic}"
            # every preimage row folds into L, and ker(fold) = xbar_1 - xbar_n lies in it
            for row in inter.basis:
                folded = [0] * n
                for i, v in enumerate(row):
                    folded[i + 1 if i + 1 <= n - 1 else 1] += v
                if not _member(basis, folded):
                    return "intersect_with_M row does not fold into the lattice"
            if not _member(inter.basis, [1] + [0] * (n - 2) + [-1]):
                return "intersect_with_M misses the fold kernel"
        rows = basis[: n - 1]
        not_fg = all(r[0] == 0 for r in rows) or all(sum(r) == 0 for r in rows)
        if kernel.is_finitely_generated == not_fg:
            return "kernel_finiteness disagrees with the chi1/chi2 test"
        m.count("charspace.not_fg_count", not_fg)
        if kernel.witness is not None:
            if any(sum(a * w for a, w in zip(r, kernel.witness.values)) != 0 for r in rows):
                return "kernel witness does not vanish on the lattice"
            point, points = orbit
            if point not in points:
                return "d_orbit misses its own point"
            m.count("autos.orbit_points", len(points))
        return None

    @staticmethod
    def _gradient_op(lib, kind, chain, p, steps, chi_m):
        gradients = lib.gradients
        spec = lib.lattices.ChainSpec(chain, p=p)
        if kind == "rank":
            series = gradients.rank_gradient_series(spec, 2, steps)
        elif kind == "deficiency":
            series = gradients.deficiency_gradient_series(spec, 2, steps)
        else:
            series = gradients.chi_m_gradient_series(spec, chi_m, 2, steps)
        return series, gradients.certify_convergence(series, EPS)

    @staticmethod
    def _check_gradient(m, out, kind, chain, p, steps, chi_m):
        series, certified = out
        rows = series.rows
        m.count("gradients.rows", len(rows))
        if [row.s for row in rows] != list(range(steps)):
            return "gradient rows are not s = 0..steps-1"
        for row in rows:
            if row.index != p ** (2 * row.s if chain == "scaling" else row.s):
                return f"gradient row index {row.index} at s = {row.s}"
            if row.upper is None or row.lower > row.upper:
                return f"gradient interval [{row.lower}, {row.upper}] at s = {row.s}"
            if kind == "chi" and (row.lower != 0 or row.upper < 0):
                return f"chi_{chi_m} gradient negative at s = {row.s}"
        first = _certified_from(rows)
        if certified != (first is not None, first):
            return f"certify_convergence {certified}, expected {(first is not None, first)}"
        return None



# --------------------------------------------------------------------- cli_mix

ENV_MAX_INDEX = "THOMPSON_SIGMA_MAX_INDEX"

# Argument values the ROADMAP (item 5) lists as escaping the error contract
# as a raw ValueError.  They stay in the mix and count as failed until fixed.
PROBES = (
    (("normalize", "--n", "1", "--word", "x0"), ()),
    (("gradient", "--n", "2", "--kind", "rg", "--chain", "scaling:2", "--steps", "0"), ()),
    (("sigma", "--n", "2", "--chi", "1,0", "--m", "0"), ()),
    (("subgroups", "--n", "2", "--max-index", "0"), ()),
    (("bounds", "--n", "3", "--lattice", "2,0,0,0,2,0,0,0,1", "--d0-override", "0"), ()),
    (("gradient", "--n", "2", "--kind", "chi", "--chain", "scaling:2", "--m", "-1"), ()),
    (("subgroups", "--n", "2", "--max-index", "3"), ((ENV_MAX_INDEX, "abc"),)),
)

# Usage errors (exit 1) and domain errors (exit 2) the CLI already reports.
ERRORS = (
    (("normalize", "--n", "2", "--word", "y3"), (), 1),
    (("gradient", "--n", "2", "--kind", "rg", "--chain", "spiral:2"), (), 1),
    (("frobnicate",), (), 1),
    (("cells", "--n", "2", "--lattice", "1,2,3"), (), 1),
    (("sigma", "--n", "2", "--chi", "1,zz"), (), 1),
    (("sigma", "--n", "3", "--chi", "1,2,3", "--m", "3"), (), 2),
    (("orbit", "--n", "2", "--chi", "-1,0", "--cap", "1"), (), 2),
    (("cells", "--n", "3", "--lattice", "1,0,0,0,1,0,0,0,1"), (), 2),
    (("bounds", "--n", "2", "--lattice", "1,1"), (), 2),
    (("subgroups", "--n", "2", "--max-index", "9"), ((ENV_MAX_INDEX, "5"),), 2),
)


def _nonzero(rng, n: int, span: int):
    while True:
        values = [rng.randint(-span, span) for _ in range(n)]
        if any(values):
            return values


def _lower_triangular(rng, n: int, top: int):
    rows = [[0] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = rng.randint(1, top)
        for i in range(k):
            rows[k][i] = rng.randint(0, top)
    return [x for row in rows for x in row]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _ok_specs(rng):
    """Two small inputs per subcommand, plus one moderate enumeration."""

    def short(lo, hi, top):
        return _letters(rng, rng.randint(lo, hi), top)

    u2 = short(4, 8, 4)
    chi2 = _nonzero(rng, 2, 3)
    chi2_text = [f"{chi2[0]}/{rng.randint(1, 3)}", str(chi2[1])]
    return [
        ("normalize", 2, short(6, 10, 5)),
        ("normalize", 3, short(6, 10, 5)),
        ("mul", 2, short(3, 6, 4), short(3, 6, 4)),
        ("mul", 3, short(3, 6, 4), short(3, 6, 4)),
        ("eq", 2, u2, _insert_cancelling(rng, u2, 2, 4)),
        ("eq", 3, short(3, 6, 4), short(3, 6, 4)),
        ("eval-pl", 2, short(3, 6, 3)),
        ("eval-pl", 3, short(3, 6, 3)),
        ("sigma", 2, tuple(chi2_text), rng.randint(1, 2), False),
        ("sigma", 3, tuple(map(str, _nonzero(rng, 3, 3))), 3, True),
        ("classify-kernel", 2, (tuple(_nonzero(rng, 2, 3)),), False),
        ("classify-kernel", 3, (tuple(_nonzero(rng, 3, 3)), tuple(_nonzero(rng, 3, 3))), rng.random() < 0.5),
        ("auto-matrix", rng.randint(2, 6), "A"),
        ("auto-matrix", rng.randint(2, 6), "C"),
        ("orbit", 2, tuple(map(str, _nonzero(rng, 2, 2)))),
        ("orbit", 3, tuple(map(str, _nonzero(rng, 3, 2)))),
        ("subgroups", 3, rng.randint(3, 5)),
        ("subgroups", 2, rng.randint(40, 50)),
        ("cells", 2, tuple(_lower_triangular(rng, 2, 6)), rng.randint(4, 10)),
        ("cells", 2, tuple(_lower_triangular(rng, 2, 6)), 16),
        ("bounds", 2, tuple(_lower_triangular(rng, 2, 6)), rng.randint(3, 8), None),
        ("bounds", 3, tuple(_lower_triangular(rng, 3, 3)), 2, rng.choice((None, 2, 3))),
        ("gradient", "rg", f"scaling:{rng.choice((2, 3))}", 2, 2, rng.randint(4, 8), "json"),
        ("gradient", rng.choice(("dg", "chi")), f"coordinate:{rng.choice((2, 3, 5))}", 2, rng.randint(1, 4), rng.randint(4, 8), "csv"),
    ]


def _argv(spec):
    cmd = spec[0]
    if cmd in ("normalize", "eval-pl"):
        return (cmd, "--n", str(spec[1]), "--word", _word_text(spec[2]))
    if cmd in ("mul", "eq"):
        return (cmd, "--n", str(spec[1]), "--u", _word_text(spec[2]), "--v", _word_text(spec[3]))
    if cmd == "sigma":
        _, n, chi, m, assume = spec
        return (cmd, "--n", str(n), "--chi", ",".join(chi), "--m", str(m)) + (("--assume-sigma-m",) if assume else ())
    if cmd == "classify-kernel":
        _, n, rows, assume = spec
        return (cmd, "--n", str(n), "--lattice", _csv(x for r in rows for x in r)) + (("--assume-sigma-m",) if assume else ())
    if cmd == "auto-matrix":
        return (cmd, "--n", str(spec[1]), "--which", spec[2])
    if cmd == "orbit":
        return (cmd, "--n", str(spec[1]), "--chi", ",".join(spec[2]))
    if cmd == "subgroups":
        return (cmd, "--n", str(spec[1]), "--max-index", str(spec[2]))
    if cmd == "cells":
        return (cmd, "--n", str(spec[1]), "--lattice", _csv(spec[2]), "--m", str(spec[3]))
    if cmd == "bounds":
        _, n, flat, m, d0 = spec
        return (cmd, "--n", str(n), "--lattice", _csv(flat), "--m", str(m)) + (("--d0-override", str(d0)) if d0 else ())
    _, kind, chain, n, m, steps, fmt = spec
    return (cmd, "--n", str(n), "--kind", kind, "--m", str(m), "--chain", chain, "--steps", str(steps), "--format", fmt)


def _json_line(payload) -> str:
    return json.dumps(payload) + "\n"


def _expected_stdout(lib, spec, m: Meter) -> str:
    """The library's own answer for an exit-0 case, in the CLI's output format."""
    cmd = spec[0]
    words, plrep, charspace, lattices, complexes = lib.words, lib.plrep, lib.charspace, lib.lattices, lib.complexes
    if cmd == "normalize":
        return _word_text(_sn_letters(words.normal_form(_word(spec[1], spec[2])))) + "\n"
    if cmd == "mul":
        u, v = (words.rewrite_to_seminormal(_word(spec[1], x)) for x in spec[2:4])
        return _word_text(_sn_letters(words.multiply(u, v))) + "\n"
    if cmd == "eq":
        return _json_line({"equal": words.are_equal(_word(spec[1], spec[2]), _word(spec[1], spec[3]))})
    if cmd == "eval-pl":
        f = plrep.evaluate_word(_word(spec[1], spec[2]))
        m.count("_plrep.letters", len(spec[2]))
        return _json_line([[str(x.numerator), str(x.denominator), str(y.numerator), str(y.denominator)] for x, y in f.breakpoints])
    if cmd == "sigma":
        _, n, chi, mm, assume = spec
        return _json_line({"inSigma": charspace.in_sigma_m(charspace.character(n, [Fraction(v) for v in chi]), mm, assume_conjecture=assume)})
    if cmd == "classify-kernel":
        report = charspace.kernel_finiteness([list(r) for r in spec[2]], m_max=16, assume_conjecture=spec[3])
        return _json_line(
            {
                "isFinitelyGenerated": report.is_finitely_generated,
                "maxCertifiedFType": report.max_certified_f_type,
                "witness": None if report.witness is None else [_frac(v) for v in report.witness.values],
                "assumedConjecture": report.assumed_conjecture,
            }
        )
    if cmd == "auto-matrix":
        mat = lib.autos.matrix_A(spec[1]) if spec[2] == "A" else lib.autos.matrix_C(spec[1])
        return _json_line([list(row) for row in mat.entries])
    if cmd == "orbit":
        chi = charspace.character(spec[1], [Fraction(v) for v in spec[2]])
        points = sorted(p.values for p in lib.autos.d_orbit(charspace.sphere_point(chi), cap=1024))
        return _json_line([[_frac(v) for v in values] for values in points])
    if cmd == "subgroups":
        found = lattices.enumerate_subgroups(spec[1], spec[2])
        m.count("lattices.enumerated", len(found))
        return _json_line([[x for row in lat.basis for x in row] for lat in found])
    if cmd in ("cells", "bounds"):
        n, flat = spec[1], spec[2]
        lat = lattices.hnf([list(flat[i : i + n]) for i in range(0, len(flat), n)], arity=n)
        if cmd == "cells":
            vec, case = complexes.cells_for_subgroup_F(lat)
            tail = None if vec.tail is None else {"slope": vec.tail.slope, "offset": vec.tail.offset, "start": vec.tail.start}
            return _json_line({"counts": [_cell_value(vec, j) for j in range(spec[3] + 1)], "tail": tail, "case": case})
        report = complexes.d_bound(lat, d0_override=spec[4], chi_upto=spec[3])
        return _json_line(
            {
                "dUpper": report.d_upper if report.d_upper is not None else report.d_upper_symbolic,
                "caseTag": report.case_tag,
                "defLower": report.def_lower,
                "defUpper": report.def_upper,
                "chiValues": None if report.chi_values is None else list(report.chi_values),
            }
        )
    _, kind, chain, n, mm, steps, fmt = spec
    gradients = lib.gradients
    chain_kind, _, p = chain.partition(":")
    chain_spec = lattices.ChainSpec(chain_kind, p=int(p))
    if kind == "rg":
        series = gradients.rank_gradient_series(chain_spec, n, steps)
    elif kind == "dg":
        series = gradients.deficiency_gradient_series(chain_spec, n, steps)
    else:
        series = gradients.chi_m_gradient_series(chain_spec, mm, n, steps)
    m.count("gradients.rows", len(series.rows))
    uppers = [_frac(r.upper) if r.upper is not None else r.upper_symbolic for r in series.rows]
    if fmt == "csv":
        lines = ["s,index,lower,upper"] + [f"{r.s},{r.index},{_frac(r.lower)},{up}" for r, up in zip(series.rows, uppers)]
        return "\n".join(lines) + "\n"
    rows = [{"s": r.s, "index": r.index, "lower": _frac(r.lower), "upper": up} for r, up in zip(series.rows, uppers)]
    return _json_line({"kind": series.kind, "m": series.m, "rows": rows})


@contextmanager
def _environ(pairs):
    saved = {k: os.environ.get(k) for k, _ in pairs}
    os.environ.update(dict(pairs))
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _call_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except Exception as exc:  # escaped the CLI: a user would see a traceback
        return None, out.getvalue(), err.getvalue(), exc
    return code, out.getvalue(), err.getvalue(), None


def _clean_error(code, stdout: str, stderr: str) -> bool:
    prefix = "usage error: " if code == 1 else "error: "
    return not stdout and stderr.startswith(prefix) and "Traceback" not in stderr


class CliMix(Workload):
    """In-process `cli.main(argv)` over all subcommands and the error contract."""

    name = "cli_mix"
    layers = ("words", "plrep", "charspace", "autos", "lattices", "complexes", "gradients", "cli")
    window_rounds = 5
    trace_rounds = 20

    def __init__(self):
        self._references: dict = {}

    @staticmethod
    @lru_cache(maxsize=None)
    def cases(seed: int):
        """(kind, argv, env, expected exit, spec) for every case of a seed."""
        specs = _ok_specs(_rng(CliMix.name, seed, "cases"))
        out = [("ok", _argv(spec), (), 0, spec) for spec in specs]
        out += [("error", argv, env, code, None) for argv, env, code in ERRORS]
        out += [("probe", argv, env, None, None) for argv, env in PROBES]
        return tuple(out)

    def round_inputs(self, seed: int, r: int):
        cases = self.cases(seed)
        return _rng(self.name, seed, r).sample(cases, len(cases))

    def warm_inputs(self):
        first = {}
        for spec in _ok_specs(random.Random(0)):
            first.setdefault(spec[0], spec)  # one small case per subcommand
        return [[("ok", _argv(spec), (), 0, spec) for spec in first.values()]]

    def run_round(self, lib, inputs, m: Meter) -> None:
        main = lib.cli.main
        for case in inputs:
            kind, argv, env, expected, spec = case
            with _environ(env):
                m.op(lambda: _call_cli(main, argv), lambda out: self._check(lib, m, case, out))

    def _reference(self, lib, m: Meter, case) -> str:
        if m.trace_extras:  # the direct library call, timed against cli.main
            with m.span("direct"):
                return _expected_stdout(lib, case[4], m)
        if case not in self._references:
            self._references[case] = _expected_stdout(lib, case[4], Meter())
        return self._references[case]

    def _check(self, lib, m: Meter, case, out):
        kind, argv, env, expected, _ = case
        code, stdout, stderr, exc = out
        m.count("cli.stdout_bytes", len(stdout.encode()))
        m.count("cli.exit1_count", code == 1)
        m.count("cli.exit2_count", code == 2)
        if kind == "probe":
            if isinstance(exc, ValueError):
                return KnownDefect(f"known defect: {' '.join(argv)} {dict(env)} escapes as ValueError")
            if exc is None and code in (1, 2) and _clean_error(code, stdout, stderr):
                return None
            return f"probe {argv}: exit {code}, raised {exc!r}"
        if exc is not None:
            return f"{argv[0]}: escaped as {type(exc).__name__}: {exc}"
        if code != expected:
            return f"{argv[0]}: exit {code}, expected {expected}"
        if kind == "error":
            return None if _clean_error(code, stdout, stderr) else f"{argv[0]}: malformed error output {stderr[:60]!r}"
        if stdout != self._reference(lib, m, case):
            return f"{argv[0]}: stdout differs from the library's answer"
        return None



WORKLOADS = {w.name: w for w in (OraclePairs, LongWords, SubgroupCensus, CliMix)}
