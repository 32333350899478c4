"""Exact computation in the generalized Thompson groups F_{n,inf}, n >= 2.

Each subcommand computes one object: the normal form, product or equality
of words; the PL map of a word; Sigma^m membership of a character and the
finiteness type of a kernel; the shift and flip matrices and sphere-point
orbits; the subgroup lattices up to an index, their cell counts and their
generator and deficiency bounds; gradient series along a subgroup chain.

Output goes to stdout: a word for normalize and mul, CSV rows for
gradient --format csv, one line of JSON otherwise, rationals as "p/q".
Exit codes: 0 success; 1 usage error (bad flags or malformed values);
2 domain error (a missing conjecture flag, a rank-deficient lattice or a
passed budget).  Errors print one line on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

import thompson_sigma as ts

from .errors import DEFAULT_DIM_CAP, MAX_LATTICE_ENTRIES, MAX_PL_INDEX, ORBIT_CAP, refuse_above
from .errors import DomainError, ParseError

ENV_MAX_INDEX = "THOMPSON_SIGMA_MAX_INDEX"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this artifact reserves 2 for
    # domain errors, so remap through an exception.
    def error(self, message):
        raise ParseError(message)


def _printed(render):
    # render(), the output text; CPython refuses to turn an int of more
    # digits than its limit into a string, with a plain ValueError
    try:
        return render()
    except ValueError:
        refuse_above("output number digit count", None, sys.get_int_max_str_digits())


def _frac(q) -> str:
    return _printed(lambda: f"{q.numerator}/{q.denominator}")


def _json_array(items):
    # the text of json.dumps(list(items)), one piece per 1024 items (a piece
    # per item took 2.5 times as long on 74,309 rows)
    items = iter(items)
    sep = "["
    while chunk := list(islice(items, 1024)):
        yield sep + json.dumps(chunk)[1:-1]
        sep = ", "
    yield "[]" if sep == "[" else "]"


def _parse_lattice(n: int, text: str) -> list[list[int]]:
    tokens = text.split(",")
    if len(tokens) > MAX_LATTICE_ENTRIES:
        refuse_above("lattice entry count", len(tokens), MAX_LATTICE_ENTRIES)
    try:
        flat = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ParseError(f"bad lattice entry: {exc}") from exc
    if not flat or len(flat) % n:
        raise ParseError(
            f"lattice needs row-major entries in multiples of n = {n}, got {len(flat)}"
        )
    return [flat[i : i + n] for i in range(0, len(flat), n)]


def _at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def arity(text: str) -> int:
    """argparse type of --n: an integer n >= 2 within the PL budget.

    An n above MAX_PL_INDEX raises ResourceLimitError, which argparse
    does not catch, so every subcommand exits 2 on it.
    """
    n = _at_least(2, text)
    if n > MAX_PL_INDEX:
        refuse_above("arity", n, MAX_PL_INDEX)
    return n


def positive(text: str) -> int:
    """argparse type of counts, indices and dimensions that start at 1."""
    return _at_least(1, text)


def nonnegative(text: str) -> int:
    """argparse type of a dimension that may be 0."""
    return _at_least(0, text)


# Each command returns its output: a string, a JSON payload, or an iterator of
# text pieces that `main` writes as they come (`subgroups`).  Commands reach the
# layers through `ts`, whose names import their module on first use, so each
# command loads only the layers it calls.
def _cmd_normalize(args):
    w = ts.parse_word(args.n, args.word)
    return ts.format_word(ts.normal_form(w).to_word())


def _cmd_mul(args):
    u = ts.rewrite_to_seminormal(ts.parse_word(args.n, args.u))
    v = ts.rewrite_to_seminormal(ts.parse_word(args.n, args.v))
    return ts.format_word(ts.multiply(u, v).to_word())


def _cmd_eq(args):
    u = ts.parse_word(args.n, args.u)
    v = ts.parse_word(args.n, args.v)
    return {"equal": ts.are_equal(u, v)}


def _cmd_eval_pl(args):
    w = ts.parse_word(args.n, args.word)
    return _printed(ts.evaluate_word(w).to_quadruples)


def _cmd_sigma(args):
    chi = ts.parse_character(args.n, args.chi)
    result = ts.in_sigma_m(chi, args.m, assume_conjecture=args.assume_sigma_m)
    return {"inSigma": result}


def _cmd_classify_kernel(args):
    rows = _parse_lattice(args.n, args.lattice)
    report = ts.kernel_finiteness(
        rows, m_max=args.m_max, assume_conjecture=args.assume_sigma_m
    )
    return {
        "isFinitelyGenerated": report.is_finitely_generated,
        "maxCertifiedFType": report.max_certified_f_type,
        "witness": report.witness and [_frac(v) for v in report.witness.values],
        "assumedConjecture": report.assumed_conjecture,
    }


def _cmd_auto_matrix(args):
    mat = ts.matrix_A(args.n) if args.which == "A" else ts.matrix_C(args.n)
    return [list(row) for row in mat.entries]


def _cmd_orbit(args):
    chi = ts.parse_character(args.n, args.chi)
    orbit = ts.d_orbit(ts.sphere_point(chi), cap=args.cap)
    points = sorted(p.values for p in orbit)
    return [[_frac(v) for v in values] for values in points]


def _cmd_subgroups(args):
    cap_text = os.environ.get(ENV_MAX_INDEX)
    try:
        cap = None if cap_text is None else int(cap_text)
    except ValueError as exc:
        raise ParseError(f"{ENV_MAX_INDEX} must be an integer, got {cap_text!r}") from exc
    if cap is not None and args.max_index > cap:
        refuse_above("--max-index", args.max_index, f"{ENV_MAX_INDEX}={cap}")
    bases = ts.hnf_bases(args.n, args.max_index)
    return _json_array([entry for row in basis for entry in row] for basis in bases)


def _cmd_cells(args):
    lat = ts.hnf(_parse_lattice(args.n, args.lattice), arity=args.n)
    vec, case = ts.cells_for_subgroup_F(lat)
    t = vec.tail
    return {
        "counts": list(vec.prefix(args.m)),
        "tail": None if t is None else {"slope": t.slope, "offset": t.offset, "start": t.start},
        "case": case,
    }


def _cmd_bounds(args):
    lat = ts.hnf(_parse_lattice(args.n, args.lattice), arity=args.n)
    report = ts.d_bound(lat, d0_override=args.d0_override, chi_upto=args.m)
    return {
        "dUpper": report.d_upper_symbolic if report.d_upper is None else report.d_upper,
        "caseTag": report.case_tag,
        "defLower": report.def_lower,
        "defUpper": report.def_upper,
        "chiValues": report.chi_values and list(report.chi_values),
    }


def _parse_chain(text: str) -> ts.ChainSpec:
    kind, _, param = text.partition(":")
    try:
        return ts.ChainSpec(kind, p=int(param))
    except ValueError as exc:
        raise ParseError(f"argument --chain: {exc}") from exc


def _cmd_gradient(args):
    spec = _parse_chain(args.chain)
    if args.kind == "rg":
        series = ts.rank_gradient_series(
            spec, args.n, args.steps, d0_override=args.d0_override
        )
    elif args.kind == "dg":
        series = ts.deficiency_gradient_series(spec, args.n, args.steps)
    else:
        series = ts.chi_m_gradient_series(spec, args.m, args.n, args.steps)

    rows = [
        {
            "s": row.s,
            "index": row.index,
            "lower": _frac(row.lower),
            "upper": _frac(row.upper) if row.upper is not None else row.upper_symbolic,
        }
        for row in series.rows
    ]
    if args.format == "csv":
        lines = (",".join(map(str, row.values())) for row in rows)
        return _printed(lambda: "\n".join(["s,index,lower,upper", *lines]))
    return {"kind": series.kind, "m": series.m, "rows": rows}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thompson-sigma", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--n", type=arity, required=True, help="family parameter n >= 2")
        return p

    p = add("normalize", _cmd_normalize, help="canonical normal form of a word")
    p.add_argument("--word", required=True)

    p = add("mul", _cmd_mul, help="product of two words, in seminormal form")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)

    p = add("eq", _cmd_eq, help="decide whether two words are equal in the group")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)

    p = add("eval-pl", _cmd_eval_pl, help="breakpoints of the PL map of a word")
    p.add_argument("--word", required=True)

    p = add("sigma", _cmd_sigma, help="Sigma^m membership of a character")
    p.add_argument("--chi", required=True, help="comma-separated rationals")
    p.add_argument("--m", type=positive, default=1)
    p.add_argument("--assume-sigma-m", action="store_true")

    p = add("classify-kernel", _cmd_classify_kernel, help="finiteness type of a kernel subgroup")
    p.add_argument("--lattice", required=True, help="row-major integer entries")
    p.add_argument("--m-max", type=positive, default=16)
    p.add_argument("--assume-sigma-m", action="store_true")

    p = add("auto-matrix", _cmd_auto_matrix, help="shift or flip matrix on characters")
    p.add_argument("--which", choices=("A", "C"), required=True)

    p = add("orbit", _cmd_orbit, help="orbit of a sphere point under shift and flip")
    p.add_argument("--chi", required=True)
    p.add_argument("--cap", type=positive, default=ORBIT_CAP)

    p = add("subgroups", _cmd_subgroups, help="all subgroup lattices up to an index")
    p.add_argument("--max-index", type=positive, required=True)

    p = add("cells", _cmd_cells, help="exact cell counts for an n = 2 subgroup")
    p.add_argument("--lattice", required=True)
    p.add_argument("--m", type=nonnegative, default=DEFAULT_DIM_CAP)

    p = add("bounds", _cmd_bounds, help="generator and deficiency bounds")
    p.add_argument("--lattice", required=True)
    p.add_argument("--m", type=nonnegative, default=DEFAULT_DIM_CAP)
    p.add_argument("--d0-override", type=positive)

    p = add("gradient", _cmd_gradient, help="gradient series along a chain")
    p.add_argument("--kind", choices=("rg", "dg", "chi"), required=True)
    p.add_argument("--m", type=nonnegative, default=2)
    p.add_argument("--chain", required=True, help="scaling:p or coordinate:p")
    p.add_argument("--steps", type=positive, default=10)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--d0-override", type=positive)

    return parser


_VALUE_FLAGS = {"--word", "--u", "--v", "--chi", "--lattice", "--chain"}


def _fuse_value_flags(argv: list[str]) -> list[str]:
    # let option values start with "-" (e.g. --chi -1,0) without tripping
    # argparse's option detection
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fuse_value_flags(list(argv)))
        out = args.fn(args)
        if isinstance(out, (dict, list)):
            payload = out
            out = _printed(lambda: json.dumps(payload))
    except ParseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for piece in (out,) if isinstance(out, str) else out:
        sys.stdout.write(piece)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
