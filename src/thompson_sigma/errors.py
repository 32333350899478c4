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

    A class without an `__init__` of its own takes all its fields, in slot
    order, and stores them unchecked; another count raises TypeError.  A class
    whose values need checks defines an `__init__` that checks its arguments
    and stores the fields through `Value.__init__(self, ...)`.  `_trusted`
    stores the fields as `Value.__init__` does, for a value the package built
    itself from checked values.  Equality (within one class), hashing, `repr`
    and pickling (through `__init__`) go by the fields, and setting or
    deleting one raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)
        # the setter of each slot's member descriptor, looked up through the
        # class so that a subclass without slots of its own finds its parent's
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *fields):
        if len(fields) != len(self._setters):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._setters)} fields, got {len(fields)}")
        for put, value in zip(self._setters, fields):
            put(self, value)

    @classmethod
    def _trusted(cls, *fields):
        """The value with these fields, in slot order, skipping the class's own `__init__`."""
        self = object.__new__(cls)
        Value.__init__(self, *fields)
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


# The fixed budgets; README lists what each costs near its limit.

# `parse_word`, before the token that crosses it expands; parsing is near-linear.
MAX_WORD_LETTERS = 1 << 20

# `parse_word`, before `int` of an index or exponent (CPython refuses over 4300 digits).
MAX_TOKEN_DIGITS = 100

# `rewrite_to_seminormal`, quadratic: MAX_WORD_LETTERS letters would take hours.
MAX_REWRITE_LETTERS = 1 << 12

# `words`, on an input index or one a rewrite bumps to.
MAX_GENERATOR_INDEX = 1 << 16

# `generator_map`, `evaluate_word` and the CLI's --n: denominators grow with the index.
MAX_PL_INDEX = 256

# `evaluate_word`, on the word as given (before free reduction); time grows about as its square.
MAX_PL_WORK = 1 << 14

# `hnf_bases` and `enumerate_subgroups`, before the first lattice.
MAX_LATTICES = 1 << 20

# `CellVector.prefix`, `chi_m` and `d_bound`; it also bounds `cells --m` output.
MAX_DIM = 1024

# Gradient series, before the first row: CPython's default digit limit, so every row prints.
MAX_INDEX_DIGITS = 4300

# The CLI's --lattice, rows times n, before any elimination (coefficients grow on dense rows).
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
