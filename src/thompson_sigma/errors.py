"""Exception hierarchy shared across the package, and the budget table.

Domain errors are conditions a caller can provoke with legal-looking but
semantically bad input (mismatched arities, zero characters, rank-deficient
lattices, exhausted budgets).  The CLI maps them to exit code 2, and
ParseError to exit code 1.

Every route ends at a budget: a fixed one of `BUDGETS`, or a call-time cap
(the orbit `cap`, THOMPSON_SIGMA_MAX_INDEX, CPython's limit on printed
digits).  All refuse through `refuse_above`, in one message form, every
argument below its range (an arity below 2, say) or not an int through
`require_at_least`, and every integer entry that is not an int through
`require_ints`.

`Value` is the base of the package's value classes, from words to gradient rows.
"""

from operator import attrgetter
from typing import NamedTuple, NoReturn


class Value:
    """An immutable record whose fields, two or more, are its class's `__slots__`.

    Each `__init__` checks its arguments and sets each field once with
    `object.__setattr__`.  `_trusted` sets the fields unchecked, for a value
    the package built itself from checked values.  Equality (within one
    class), hashing, `repr` and pickling (through `__init__`) go by the
    fields, and setting or deleting one raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    @classmethod
    def _trusted(cls, *fields):
        """The value with these fields, in slot order, skipping `__init__`."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields(self)


class DomainError(Exception):
    """Base class for input conditions outside an operation's domain."""


class ArityMismatchError(DomainError):
    """Operands built over different family parameters n."""


class ZeroCharacterError(DomainError):
    """A nonzero character was required."""


class ConjectureRequiredError(DomainError):
    """Decision needs the open higher-dimensional Sigma description.

    The closed-form complement of Sigma^m is established for m <= 2 (any n)
    and for all m when n = 2.  For n >= 3 and m >= 3 callers must opt in
    explicitly.
    """


class RankDeficientError(DomainError):
    """Rows were expected to span a full-rank sublattice."""


class ResourceLimitError(DomainError):
    """A budget was passed: an entry of `BUDGETS` or a call-time cap."""


class InvariantViolationError(Exception):
    """A checked internal invariant failed; indicates a bug, not bad input."""


class ParseError(ValueError):
    """Malformed textual input (words, characters, lattices), or an argument below its range."""


def refuse_above(what: str, value, limit, error: type = ResourceLimitError) -> NoReturn:
    """Raise `error`: "<what> <value> exceeds the budget of <limit>".

    Where the check decides without the value, pass None and the message
    names `what` alone.
    """
    shown = what if value is None else f"{what} {value}"
    raise error(f"{shown} exceeds the budget of {limit}")


def require_at_least(what: str, value, low) -> None:
    """Raise ParseError "<what> must be >= <low>, got <value>" if value < low,
    or "<what> must be an int, got <value!r>" if value is no int (a bool is)."""
    if type(value) is not int or value < low:
        if not isinstance(value, int):
            raise ParseError(f"{what} must be an int, got {value!r}")
        if value < low:
            raise ParseError(f"{what} must be >= {low}, got {value}")


def require_ints(what: str, values) -> list[int]:
    """`values` as a list of ints; ValueError "<what> must be ints, got <value>"
    names the first entry that is not one.  A bool becomes its int."""
    out = list(values)
    if {int}.issuperset(map(type, out)):
        return out
    for v in out:
        if not isinstance(v, int):
            raise ValueError(f"{what} must be ints, got {v!r}")
    return list(map(int, out))


class Budget(NamedTuple):
    limit: int
    counts: str
    error: type = ResourceLimitError  # ParseError exits 1, ResourceLimitError 2


# The fixed budgets, with what they cost near the limit (2-vCPU machine).

# `parse_word`, before the token that crosses it expands.  In-process, the
# token x0^1048576 parses in 0.15-0.19 s, `normalize` of it takes 4.9-5.2 s,
# `eq` of x0^262144 x1^262144 and x0^262144 x2^262144 3.0-3.6 s; 2^18 and 2^20
# one-letter tokens parse in 0.18-0.19 and 0.70-0.77 s (library only: a CLI
# argument is at most 128 KiB).  Near-linear, so the limit bounds time.
MAX_WORD_LETTERS = 1 << 20

# `parse_word`, before turning an index or exponent into an int (CPython's
# `int` refuses strings of more than 4300 digits with a plain ValueError).
MAX_TOKEN_DIGITS = 100

# `rewrite_to_seminormal`: random words at L = 4096 (three, n = 2..4) took
# 0.03-0.11 s, x0^-(L/2) x1^(L/2) 0.11-0.13 s and the slowest shape seen,
# x1^(L/2) x0^(L/2), 0.17-0.22 s; at L = 8192 the same took 0.19-0.39 s,
# 0.77-0.80 s and 0.83-0.87 s, so the 2^20 letters `parse_word` admits
# would take hours.
MAX_REWRITE_LETTERS = 1 << 12

# `words`, on an input index or one a rewrite bumps to: in-process, `normalize`
# of x0^-65535 x1^65535 (n = 2) reaches 65536 in 0.54-0.55 s.
MAX_GENERATOR_INDEX = 1 << 16

# `generator_map`, `evaluate_word` and the CLI's --n.  A map takes about 20 us
# anywhere within the limit, but its denominators n^(i // (n - 1) + 2) grow
# every composition: a fresh `eval-pl --n 256 --word x256` takes about 0.1 s,
# a 908-letter random word below x256 at n = 256 0.46 s in-process.
MAX_PL_INDEX = 256

# `evaluate_word`, after the arity and index checks: the sum over a word's
# letters x_i^(+-1) of i // (n - 1) + 2, which bounds the exponent of n in the
# denominators of every product, times the bit length of n.  It counts the
# word as given, before free reduction, so x0^2049 x0^-2049 (n = 2, work
# 16,392) is refused although it reduces to the empty word.  Time grows about
# as its square: at the limit, x0^(+-4096) took 2.3-3.4 s at n = 3 (the slowest
# shape), 0.8-1.3 s at n = 2 and 0.45-2.2 s at n = 4..256, random words 0.2-0.5 s;
# the product of x0^15000 at n = 2 (work 60,000) took 7.8 s.
MAX_PL_WORK = 1 << 14

# `hnf_bases` and `enumerate_subgroups`, before the first lattice.  The tests
# and benchmarks make at most 84,552, at (3, 50); the 1,047,476 of (2, 1128)
# are listed in 0.5 s.
MAX_LATTICES = 1 << 20

# `CellVector.prefix`, `chi_m` and `d_bound`: `d_bound(lat, chi_upto=1024)`
# takes 0.54 ms, in-process CLI `bounds --n 2 --lattice 2,0,0,2 --m 1024`
# 3.2-3.5 ms, and `cells --m M` prints 6 KB at 1024, 18.6 MB at two million.
MAX_DIM = 1024

# Gradient series, before the first row: CPython's default limit for turning
# an int into a string, so every index and denominator of a row prints.
MAX_INDEX_DIGITS = 4300

# The CLI's --lattice, rows times n, before any elimination (its coefficients
# grow on dense rows).  On seeded rows with entries in -9..9, three seeds
# each, `bounds` took 0.92-1.03 s at 84 x 84, 0.52-0.90 s at the other
# shapes of 7056 entries tried (126 x 56 to 98 x 72) and 1.4-1.7 s at
# 96 x 96; `classify-kernel` took 0.76-0.82 s at 84 x 84.
MAX_LATTICE_ENTRIES = 84 * 84

BUDGETS = {
    "MAX_WORD_LETTERS": Budget(MAX_WORD_LETTERS, "letters of a word"),
    "MAX_TOKEN_DIGITS": Budget(MAX_TOKEN_DIGITS, "digits of a word token", ParseError),
    "MAX_REWRITE_LETTERS": Budget(MAX_REWRITE_LETTERS, "letters of a word to rewrite"),
    "MAX_GENERATOR_INDEX": Budget(MAX_GENERATOR_INDEX, "generator index of a word"),
    "MAX_PL_INDEX": Budget(MAX_PL_INDEX, "arity, and generator index of a PL map"),
    "MAX_PL_WORK": Budget(MAX_PL_WORK, "carets of a word's letter vines, times n's bit length"),
    "MAX_LATTICES": Budget(MAX_LATTICES, "lattices of an enumeration"),
    "MAX_DIM": Budget(MAX_DIM, "dimension of cell counts and chi values"),
    "MAX_INDEX_DIGITS": Budget(MAX_INDEX_DIGITS, "digits of a chain's last index"),
    "MAX_LATTICE_ENTRIES": Budget(MAX_LATTICE_ENTRIES, "entries of a --lattice"),
}

# The default orbit cap, of `d_orbit` and of CLI `orbit --cap`.
ORBIT_CAP = 1024

# The default top dimension, of `d_bound` and of CLI `cells --m` and `bounds --m`.
DEFAULT_DIM_CAP = 16
