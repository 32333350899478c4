"""CLI surface: outputs, determinism, exit codes, the enumeration cap."""

import csv
import hashlib
import io
import json
import os
import random
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thompson_sigma.cli import _json_array, main
from thompson_sigma.complexes import DEFAULT_DIM_CAP
from thompson_sigma.errors import (
    BUDGETS,
    MAX_DIM,
    MAX_GENERATOR_INDEX,
    MAX_INDEX_DIGITS,
    MAX_LATTICE_ENTRIES,
    MAX_LATTICES,
    MAX_PL_INDEX,
    MAX_PL_WORK,
    MAX_REWRITE_LETTERS,
    MAX_TOKEN_DIGITS,
    MAX_WORD_LETTERS,
    ParseError,
)
from thompson_sigma.lattices import hnf_bases
from thompson_sigma.plrep import evaluate_word
from thompson_sigma.words import parse_word

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_describes_the_tool(capsys):
    # what the tool computes, its output and its exit codes, and no notes on
    # how the module is built
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    out, err = capsys.readouterr()
    assert (done.value.code, err) == (0, "")
    assert out.startswith("usage: thompson-sigma ")
    assert "generalized Thompson groups F_{n,inf}" in out
    assert 'rationals as "p/q"' in out
    assert "Exit codes: 0 success; 1 usage error" in out and "2 domain error" in out
    assert "import" not in out and "`main`" not in out


class TestGoldens:
    def test_stdout_bytes(self, capsys):
        # one argv per subcommand, the empty word, CSV and every bounds case tag
        for case in json.loads(GOLDEN.read_text()):
            assert run(capsys, *case["argv"]) == (0, case["stdout"], ""), case["argv"]


class TestWordCommands:
    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "normalize", "--n", "2", "--word", "x1 x0")
        assert code == 0
        assert out.strip() == "x0 x2"

    def test_mul(self, capsys):
        code, out, _ = run(capsys, "mul", "--n", "2", "--u", "x1", "--v", "x0")
        assert code == 0
        assert out.strip() == "x0 x2"

    def test_mul_prints_the_product(self, capsys):
        # the PL oracle, which shares none of the rewriting rules, maps the
        # printed form and the word u v alike
        rng = random.Random("mul against the PL oracle")
        for k in range(9):
            n = 2 + k % 3
            u, v = (
                " ".join(f"x{rng.randrange(6)}^{rng.choice((1, -1))}" for _ in range(rng.randint(20, 90)))
                for _ in "uv"
            )
            code, out, _ = run(capsys, "mul", "--n", str(n), "--u", u, "--v", v)
            assert code == 0
            assert evaluate_word(parse_word(n, out)) == evaluate_word(parse_word(n, f"{u} {v}")), (n, u, v)

    def test_eq(self, capsys):
        code, out, _ = run(capsys, "eq", "--n", "2", "--u", "x0^-1 x1 x0", "--v", "x2")
        assert code == 0
        assert json.loads(out) == {"equal": True}

    def test_eval_pl(self, capsys):
        code, out, _ = run(capsys, "eval-pl", "--n", "2", "--word", "x0")
        assert code == 0
        quads = json.loads(out)
        assert quads[0] == ["0", "1", "0", "1"]
        assert quads[-1] == ["1", "1", "1", "1"]
        assert ["1", "2", "1", "4"] in quads

    def test_generator_index_budget_at_its_limit(self, capsys):
        assert MAX_GENERATOR_INDEX == 65536
        assert run(capsys, "normalize", "--n", "2", "--word", "x65536") == (0, "x65536\n", "")
        past = "error: generator index {} exceeds the budget of 65536\n"
        assert run(capsys, "normalize", "--n", "2", "--word", "x65537") == (2, "", past.format(65537))
        # at n = 256, x1 passing k letters x0^-1 becomes x_{1 + 255 k}: 65536 at k = 257
        assert run(capsys, "mul", "--n", "256", "--u", "x0^-257", "--v", "x1") == (
            0, "x65536" + " x0^-1" * 257 + "\n", ""
        )
        for argv in (("mul", "--u", "x0^-258", "--v", "x1"), ("eq", "--u", "x0^-258 x1", "--v", "x1")):
            assert run(capsys, *argv[:1], "--n", "256", *argv[1:]) == (2, "", past.format(65791)), argv


class TestSigmaCommands:
    def test_sigma_chi1(self, capsys):
        code, out, _ = run(capsys, "sigma", "--n", "2", "--chi", "-1,0", "--m", "1")
        assert code == 0
        assert json.loads(out) == {"inSigma": False}

    def test_sigma_rational_values(self, capsys):
        code, out, _ = run(capsys, "sigma", "--n", "2", "--chi", "1/2,-1/3", "--m", "2")
        assert code == 0
        assert json.loads(out) == {"inSigma": True}

    def test_sigma_conjecture_is_domain_error(self, capsys):
        code, _, err = run(capsys, "sigma", "--n", "3", "--chi", "1,2,3", "--m", "3")
        assert code == 2
        assert "assume" in err

    def test_sigma_with_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "sigma", "--n", "3", "--chi", "1,2,3", "--m", "3", "--assume-sigma-m",
        )
        assert code == 0
        assert json.loads(out) == {"inSigma": True}

    def test_classify_kernel(self, capsys):
        code, out, _ = run(capsys, "classify-kernel", "--n", "2", "--lattice", "1,1")
        assert code == 0
        got = json.loads(out)
        assert got == {
            "isFinitelyGenerated": True,
            "maxCertifiedFType": 1,
            "witness": ["-1/1", "1/1"],
            "assumedConjecture": False,
        }

    def test_classify_full_rank(self, capsys):
        code, out, _ = run(capsys, "classify-kernel", "--n", "2", "--lattice", "2,0,0,3")
        assert code == 0
        assert json.loads(out)["maxCertifiedFType"] == "infinity"


class TestAutoCommands:
    def test_matrix_a(self, capsys):
        code, out, _ = run(capsys, "auto-matrix", "--n", "3", "--which", "A")
        assert code == 0
        assert json.loads(out) == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]

    def test_matrix_c(self, capsys):
        code, out, _ = run(capsys, "auto-matrix", "--n", "2", "--which", "C")
        assert code == 0
        assert json.loads(out) == [[-1, 0], [-1, 1]]

    def test_orbit(self, capsys):
        code, out, _ = run(capsys, "orbit", "--n", "2", "--chi", "-1,0")
        assert code == 0
        assert json.loads(out) == [["-1/1", "0/1"], ["1/1", "1/1"]]


class TestLatticeCommands:
    def test_subgroups(self, capsys):
        code, out, _ = run(capsys, "subgroups", "--n", "2", "--max-index", "2")
        assert code == 0
        got = json.loads(out)
        assert len(got) == 4  # sigma(1) + sigma(2)
        assert [1, 0, 0, 1] in got and [2, 0, 1, 1] in got

    def test_subgroups_order_n2(self, capsys):
        code, out, _ = run(capsys, "subgroups", "--n", "2", "--max-index", "3")
        assert code == 0
        assert out == (
            "[[1, 0, 0, 1], [1, 0, 0, 2], [2, 0, 0, 1], [2, 0, 1, 1], "
            "[1, 0, 0, 3], [3, 0, 0, 1], [3, 0, 1, 1], [3, 0, 2, 1]]\n"
        )

    def test_subgroups_order_n3(self, capsys):
        code, out, _ = run(capsys, "subgroups", "--n", "3", "--max-index", "2")
        assert code == 0
        assert out == (
            "[[1, 0, 0, 0, 1, 0, 0, 0, 1], [1, 0, 0, 0, 1, 0, 0, 0, 2], "
            "[1, 0, 0, 0, 2, 0, 0, 0, 1], [1, 0, 0, 0, 2, 0, 0, 1, 1], "
            "[2, 0, 0, 0, 1, 0, 0, 0, 1], [2, 0, 0, 0, 1, 0, 1, 0, 1], "
            "[2, 0, 0, 1, 1, 0, 0, 0, 1], [2, 0, 0, 1, 1, 0, 1, 0, 1]]\n"
        )

    def test_subgroups_streamed(self):
        # 74,309 rows, written as they are made: held at once, the rows and
        # their text peaked at 11.4 MB under tracemalloc
        argv = ["subgroups", "--n", "2", "--max-index", "300"]
        text = json.dumps([[x for row in b for x in row] for b in hnf_bases(2, 300)]) + "\n"
        expected = hashlib.sha256(text.encode()).hexdigest(), len(text)
        del text

        class Sink:
            # counts and hashes what it is given, keeps nothing
            def __init__(self):
                self.digest, self.chars = hashlib.sha256(), 0

            def write(self, piece):
                self.digest.update(piece.encode())
                self.chars += len(piece)
                return len(piece)

            def flush(self):
                pass

        sink = Sink()
        tracemalloc.start()
        try:
            with redirect_stdout(sink):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (sink.digest.hexdigest(), sink.chars) == expected
        assert peak < 3_000_000, peak

    def test_json_array_pieces(self):
        for count in (0, 1, 1023, 1024, 1025, 2048, 2049):
            items = [[k, -k] for k in range(count)]
            assert "".join(_json_array(iter(items))) == json.dumps(items), count

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("THOMPSON_SIGMA_MAX_INDEX", "5")
        code, _, err = run(capsys, "subgroups", "--n", "2", "--max-index", "10")
        assert code == 2
        assert err == "error: --max-index 10 exceeds the budget of THOMPSON_SIGMA_MAX_INDEX=5\n"

    def test_cells(self, capsys):
        code, out, _ = run(
            capsys, "cells", "--n", "2", "--lattice", "2,0,0,2", "--m", "3"
        )
        assert code == 0
        got = json.loads(out)
        assert got["counts"] == [1, 5, 12, 20]
        assert got["case"] == 3
        assert got["tail"] == {"slope": 8, "offset": -4, "start": 2}

    def test_bounds_symbolic(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--n", "3", "--lattice", "2,0,0,0,2,0,0,0,1"
        )
        assert code == 0
        got = json.loads(out)
        assert got["dUpper"] == "5+d0"
        assert got["caseTag"] == "generic"
        assert got["defUpper"] == 3

    def test_bounds_numeric(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "2", "--lattice", "2,0,0,2", "--m", "4")
        got = json.loads(out)
        assert got["dUpper"] == 5
        assert got["chiValues"] == [1, 4, 8, 12, 16]
        assert got["defLower"] == -7

    @pytest.mark.parametrize("command", ["cells", "bounds"])
    def test_default_m_is_dim_cap(self, capsys, command):
        argv = [command, "--n", "2", "--lattice", "2,0,0,1"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        got = json.loads(out)
        key = "counts" if command == "cells" else "chiValues"
        assert len(got[key]) == DEFAULT_DIM_CAP + 1
        assert run(capsys, *argv, "--m", str(DEFAULT_DIM_CAP)) == (0, out, "")

    def test_rank_deficient_lattice_is_domain_error(self, capsys):
        code, _, err = run(capsys, "cells", "--n", "2", "--lattice", "1,1,2,2")
        assert code == 2
        assert err


class TestGradientCommand:
    def test_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "gradient", "--n", "2", "--kind", "rg",
            "--chain", "scaling:2", "--steps", "4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,index,lower,upper"
        assert lines[1] == "0,1,0/1,1/1"
        assert lines[4] == "3,64,0/1,1/16"

    def test_json_chi(self, capsys):
        code, out, _ = run(
            capsys,
            "gradient", "--n", "2", "--kind", "chi", "--m", "2",
            "--chain", "scaling:2", "--steps", "3", "--format", "json",
        )
        assert code == 0
        got = json.loads(out)
        assert got["kind"] == "chi" and got["m"] == 2
        assert got["rows"][2] == {
            "s": 2,
            "index": 16,
            "lower": "0/1",
            "upper": "1/2",
        }

    def test_symbolic_upper_rendering(self, capsys):
        code, out, _ = run(
            capsys,
            "gradient", "--n", "3", "--kind", "rg",
            "--chain", "scaling:2", "--steps", "2", "--format", "csv",
        )
        assert code == 0
        assert out.strip().splitlines()[2].endswith("(4+d0)/8")

    def test_byte_stable(self, capsys):
        argv = [
            "gradient", "--n", "2", "--kind", "dg",
            "--chain", "scaling:2", "--steps", "6", "--format", "json",
        ]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestExitCodes:
    def test_usage_error_missing_flag(self, capsys):
        assert run(capsys, "sigma", "--n", "2")[0] == 1

    def test_usage_error_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_usage_error_bad_word(self, capsys):
        assert run(capsys, "normalize", "--n", "2", "--word", "y0")[0] == 1

    def test_usage_error_bad_chain(self, capsys):
        for chain in ("weird:2", "scaling", "coordinate:x", "scaling:2:3"):
            code, _, _ = run(
                capsys, "gradient", "--n", "2", "--kind", "rg", "--chain", chain
            )
            assert code == 1, chain

    def test_usage_error_arity_below_two(self, capsys):
        for n in ("1", "0", "-3", "two"):
            code, out, err = run(capsys, "normalize", "--n", n, "--word", "x0")
            assert (code, out) == (1, "")
            assert err.startswith("usage error: argument --n")

    def test_usage_error_value_below_range(self, capsys):
        for argv in (
            ("gradient", "--n", "2", "--kind", "rg", "--chain", "scaling:2", "--steps", "0"),
            ("sigma", "--n", "2", "--chi", "1,0", "--m", "0"),
            ("subgroups", "--n", "2", "--max-index", "0"),
            ("bounds", "--n", "3", "--lattice", "2,0,0,0,2,0,0,0,1", "--d0-override", "0"),
            ("gradient", "--n", "3", "--kind", "rg", "--chain", "scaling:2", "--d0-override", "0"),
            ("gradient", "--n", "2", "--kind", "chi", "--chain", "scaling:2", "--m", "-1"),
            ("gradient", "--n", "2", "--kind", "rg", "--chain", "scaling:1"),
            ("gradient", "--n", "2", "--kind", "rg", "--chain", "coordinate:0"),
            ("gradient", "--n", "2", "--kind", "rg", "--chain", "scaling:-3"),
            ("cells", "--n", "2", "--lattice", "2,0,0,2", "--m", "-1"),
            ("bounds", "--n", "2", "--lattice", "2,0,0,2", "--m", "-1"),
            ("classify-kernel", "--n", "2", "--lattice", "2,0,0,2", "--m-max", "0"),
            ("classify-kernel", "--n", "2", "--lattice", "2,0,0,2", "--m-max", "-3"),
            ("orbit", "--n", "2", "--chi", "-1,0", "--cap", "0"),
            ("orbit", "--n", "2", "--chi", "-1,0", "--cap", "-1"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith(f"usage error: argument {argv[-2]}: must be >= "), argv

    def test_domain_error_word_budget(self, capsys):
        over = MAX_WORD_LETTERS + 1
        for argv in (
            ("normalize", "--n", "2", "--word", f"x1^{over}"),
            ("eq", "--n", "2", "--u", "x0", "--v", f"x0 x1^{MAX_WORD_LETTERS}"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: word length {over} exceeds the budget of {MAX_WORD_LETTERS}\n", argv

    def test_domain_error_dimension_budget(self, capsys):
        over = MAX_DIM + 1
        for argv in (
            ("cells", "--n", "2", "--lattice", "2,0,0,2", "--m", str(over)),
            ("bounds", "--n", "2", "--lattice", "2,0,0,2", "--m", str(over)),
            ("bounds", "--n", "3", "--lattice", "2,0,0,0,2,0,0,0,2", "--m", str(over)),
            ("gradient", "--n", "2", "--kind", "chi", "--chain", "scaling:2", "--m", str(over)),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: dimension {over} exceeds the budget of {MAX_DIM}\n", argv

    def test_usage_error_digit_budget(self, capsys):
        for digits in (MAX_TOKEN_DIGITS + 1, 5000):
            big = "9" * digits
            for argv in (
                ("normalize", "--n", "2", "--word", f"x{big}"),
                ("normalize", "--n", "2", "--word", f"x1^{big}"),
                ("eval-pl", "--n", "2", "--word", f"x0 x1^-{big}"),
                ("eq", "--n", "2", "--u", "x0", "--v", f"x{big}"),
            ):
                code, out, err = run(capsys, *argv)
                assert (code, out) == (1, ""), argv
                message = f"word token digit count {digits} exceeds the budget of {MAX_TOKEN_DIGITS}"
                assert err == f"usage error: {message}\n", argv

    def test_domain_error_below_digit_budget(self, capsys):
        # numbers the digit budget lets through still end in a budget error
        for argv in (
            ("normalize", "--n", "2", "--word", "x1^99999999999"),
            ("normalize", "--n", "2", "--word", "x1^" + "9" * MAX_TOKEN_DIGITS),
            ("normalize", "--n", "2", "--word", "x" + "9" * MAX_TOKEN_DIGITS),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: "), argv

    def test_domain_error_pl_index_budget(self, capsys):
        for word in (f"x{MAX_PL_INDEX + 1}", f"x0 x{MAX_PL_INDEX + 1}^-1 x0"):
            code, out, err = run(capsys, "eval-pl", "--n", "2", "--word", word)
            assert (code, out) == (2, ""), word
            assert err == f"error: generator index {MAX_PL_INDEX + 1} exceeds the budget of {MAX_PL_INDEX}\n"

    def test_domain_error_pl_work_budget(self, capsys):
        # x0^15000 at n = 2: 15000 letters of 2 carets, times the bit length 2
        message = f"error: PL work 60000 exceeds the budget of {MAX_PL_WORK}\n"
        with mock.patch("thompson_sigma.plrep.generator_map", side_effect=AssertionError):
            assert run(capsys, "eval-pl", "--n", "2", "--word", "x0^15000") == (2, "", message)

    def test_domain_error_pl_arity_budget(self, capsys):
        over = MAX_PL_INDEX + 1
        for word in ("x0", ""):
            code, out, err = run(capsys, "eval-pl", "--n", str(over), "--word", word)
            assert (code, out) == (2, ""), word
            assert err == f"error: arity {over} exceeds the budget of {MAX_PL_INDEX}\n"

    def test_domain_error_arity_budget_on_every_subcommand(self, capsys):
        over = str(MAX_PL_INDEX + 1)
        lattice = ",".join(["1"] * (MAX_PL_INDEX + 1))
        for argv in (
            ("normalize", "--n", over, "--word", "x0"),
            ("mul", "--n", over, "--u", "x0", "--v", "x1"),
            ("eq", "--n", over, "--u", "x0", "--v", "x1"),
            ("eval-pl", "--n", over, "--word", "x0"),
            ("sigma", "--n", over, "--chi", lattice),
            ("classify-kernel", "--n", over, "--lattice", lattice),
            ("auto-matrix", "--n", over, "--which", "A"),
            ("orbit", "--n", over, "--chi", lattice),
            ("subgroups", "--n", over, "--max-index", "1"),
            ("cells", "--n", over, "--lattice", lattice),
            ("bounds", "--n", over, "--lattice", lattice),
            ("gradient", "--n", over, "--kind", "rg", "--chain", "scaling:2"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: arity {over} exceeds the budget of {MAX_PL_INDEX}\n", argv
        code, out, _ = run(capsys, "auto-matrix", "--n", str(MAX_PL_INDEX), "--which", "A")
        assert code == 0 and len(json.loads(out)) == MAX_PL_INDEX

    def test_usage_error_exponent_notation(self, capsys):
        for value in ("1e999999999", "2E5"):
            for argv in (
                ("sigma", "--n", "2", "--chi", f"{value},1"),
                ("orbit", "--n", "2", "--chi", f"-1,{value}"),
            ):
                code, out, err = run(capsys, *argv)
                assert (code, out) == (1, ""), argv
                assert err.startswith("usage error: bad rational vector"), argv

    def test_domain_error_rewrite_budget(self, capsys):
        at, over = f"x0^{MAX_REWRITE_LETTERS}", f"x0^{MAX_REWRITE_LETTERS + 1}"
        code, out, _ = run(capsys, "mul", "--n", "2", "--u", at, "--v", at)
        assert (code, out) == (0, " ".join(["x0"] * 2 * MAX_REWRITE_LETTERS) + "\n")
        message = f"error: rewrite length {MAX_REWRITE_LETTERS + 1} exceeds the budget of {MAX_REWRITE_LETTERS}\n"
        with mock.patch("thompson_sigma.words._rewrite", side_effect=AssertionError):
            assert run(capsys, "mul", "--n", "2", "--u", over, "--v", "x1") == (2, "", message)
        argv = ("mul", "--n", "3", "--u", "x1", "--v", f"x2^-{MAX_REWRITE_LETTERS + 1}")
        assert run(capsys, *argv) == (2, "", message)

    def test_domain_error_chain_index_budget(self, capsys):
        # refused before the first row: the chain is never built
        message = f"error: last chain index digit count exceeds the budget of {MAX_INDEX_DIGITS}\n"
        for argv in (
            ("gradient", "--n", "2", "--kind", "dg", "--chain", "scaling:5", "--steps", "3100"),
            ("gradient", "--n", "2", "--kind", "rg", "--chain", "scaling:5", "--steps", "1000000"),
            ("gradient", "--n", "2", "--kind", "chi", "--chain", "coordinate:10", "--steps", "4301"),
            ("gradient", "--n", "3", "--kind", "rg", "--chain", "coordinate:10", "--steps", "4301",
             "--format", "csv"),
        ):
            with mock.patch("thompson_sigma.gradients.chain", side_effect=AssertionError):
                assert run(capsys, *argv) == (2, "", message), argv

    def test_domain_error_output_digits(self, capsys):
        # a ray of 5000-digit integers from 2500-digit inputs
        chi = f"1/{'7' * 2500},{'3' * 2500},1"
        assert run(capsys, "orbit", "--n", "3", "--chi", chi) == (
            2, "", "error: output number digit count exceeds the budget of 4300\n"
        )
        code, out, err = run(capsys, "orbit", "--n", "2", "--chi", f"1/{'7' * 2000},1")
        assert (code, err) == (0, "") and len(json.loads(out)) == 2

    # At CPython's lowest digit limit, 640, cheap inputs pass it; at the
    # default of 4300 `eval-pl` would need a word of 14,300 letters.
    @pytest.fixture
    def digit_limit_640(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield
        sys.set_int_max_str_digits(limit)

    def test_domain_error_output_digits_eval_pl(self, capsys, digit_limit_640):
        # x0^k has a breakpoint of denominator 2^k: 663 digits at k = 2200
        assert run(capsys, "eval-pl", "--n", "2", "--word", "x0^2200") == (
            2, "", "error: output number digit count exceeds the budget of 640\n"
        )
        code, out, _ = run(capsys, "eval-pl", "--n", "2", "--word", "x0^2000")
        assert code == 0 and max(len(q) for row in json.loads(out) for q in row) == 603

    def test_domain_error_output_digits_gradient(self, capsys, digit_limit_640):
        # indices 10^s: the CSV row, the JSON fraction and, at --m 2 where
        # chi/index = 1/(5 10^(s-1)), the JSON index itself pass the limit
        for args in (("--kind", "rg", "--format", "csv"), ("--kind", "dg"), ("--kind", "chi", "--m", "2")):
            argv = ("gradient", "--n", "2", "--chain", "coordinate:10", "--steps", "641", *args)
            message = "error: output number digit count exceeds the budget of 640\n"
            assert run(capsys, *argv) == (2, "", message), argv
        code, out, _ = run(capsys, "gradient", "--n", "2", "--kind", "chi", "--m", "2",
                           "--chain", "coordinate:10", "--steps", "640")
        assert code == 0 and json.loads(out)["rows"][-1]["index"] == 10**639

    def test_domain_error_enumeration_cap(self, capsys):
        code, out, err = run(capsys, "subgroups", "--n", "5", "--max-index", "100")
        assert (code, out) == (2, "")
        assert err == f"error: lattice count exceeds the budget of {MAX_LATTICES}\n"

    def test_usage_error_bad_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("THOMPSON_SIGMA_MAX_INDEX", "abc")
        code, out, err = run(capsys, "subgroups", "--n", "2", "--max-index", "3")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: THOMPSON_SIGMA_MAX_INDEX")

    def test_domain_error_bad_arity_pair(self, capsys):
        # not a multiple of n, or not integers: malformed input
        for lattice in ("1,1,1", "1,x", "1,,2"):
            code, _, _ = run(capsys, "classify-kernel", "--n", "2", "--lattice", lattice)
            assert code == 1, lattice

    @pytest.mark.parametrize("command", ["cells", "bounds", "classify-kernel"])
    def test_lattice_entry_budget(self, capsys, command):
        # identity rows, cheap to eliminate, fill the budget exactly; one
        # entry more is refused before the lattice layers see the rows
        at = ",".join(["1,0,0,1"] * (MAX_LATTICE_ENTRIES // 4))
        assert run(capsys, command, "--n", "2", "--lattice", at)[0] == 0
        over = f"error: lattice entry count {MAX_LATTICE_ENTRIES + 1} exceeds the budget of {MAX_LATTICE_ENTRIES}\n"
        with mock.patch("thompson_sigma.lattices.hnf", side_effect=AssertionError), \
                mock.patch("thompson_sigma.charspace.kernel_finiteness", side_effect=AssertionError):
            assert run(capsys, command, "--n", "2", "--lattice", at + ",1") == (2, "", over)


# One argv per entry of errors.BUDGETS, at limit + 1: (argv, what the
# refusal names, the value it names, or None where the check has none).
# The n = 2 lattices of index <= 1128 number 1,047,476, of <= 1129 more
# than MAX_LATTICES.
_PAST_BUDGET = {
    "MAX_WORD_LETTERS": (
        ("normalize", "--n", "2", "--word", f"x1^{MAX_WORD_LETTERS + 1}"), "word length", MAX_WORD_LETTERS + 1,
    ),
    "MAX_TOKEN_DIGITS": (
        ("normalize", "--n", "2", "--word", "x" + "9" * (MAX_TOKEN_DIGITS + 1)),
        "word token digit count", MAX_TOKEN_DIGITS + 1,
    ),
    "MAX_REWRITE_LETTERS": (
        ("mul", "--n", "2", "--u", f"x0^{MAX_REWRITE_LETTERS + 1}", "--v", "x1"),
        "rewrite length", MAX_REWRITE_LETTERS + 1,
    ),
    "MAX_GENERATOR_INDEX": (
        ("normalize", "--n", "2", "--word", f"x{MAX_GENERATOR_INDEX + 1}"), "generator index", MAX_GENERATOR_INDEX + 1,
    ),
    "MAX_PL_INDEX": (("eval-pl", "--n", str(MAX_PL_INDEX + 1), "--word", "x0"), "arity", MAX_PL_INDEX + 1),
    "MAX_PL_WORK": (
        # n = 16: 1637 letters x0 of 2 carets and one x15 of 3, times the bit length 5
        ("eval-pl", "--n", "16", "--word", "x0^1637 x15"), "PL work", MAX_PL_WORK + 1,
    ),
    "MAX_LATTICES": (("subgroups", "--n", "2", "--max-index", "1129"), "lattice count", None),
    "MAX_DIM": (("cells", "--n", "2", "--lattice", "2,0,0,2", "--m", str(MAX_DIM + 1)), "dimension", MAX_DIM + 1),
    "MAX_INDEX_DIGITS": (
        ("gradient", "--n", "2", "--kind", "dg", "--chain", "coordinate:10", "--steps", str(MAX_INDEX_DIGITS + 1)),
        "last chain index digit count", None,
    ),
    "MAX_LATTICE_ENTRIES": (
        ("bounds", "--n", "2", "--lattice", ",".join(["1"] * (MAX_LATTICE_ENTRIES + 1))),
        "lattice entry count", MAX_LATTICE_ENTRIES + 1,
    ),
}


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_each_budget_refuses_past_its_limit(capsys, name):
    # an entry without an argv above fails here, so no budget lands untested
    argv, what, value = _PAST_BUDGET[name]
    limit, _, error = BUDGETS[name]
    code, prefix = (1, "usage error") if error is ParseError else (2, "error")
    shown = what if value is None else f"{what} {value}"
    assert run(capsys, *argv) == (code, "", f"{prefix}: {shown} exceeds the budget of {limit}\n")


_HUGE = "9" * 4301  # just past CPython's 4300-digit limit on `int` of a string
_INTS = st.integers(0, 6).map(str) | st.sampled_from([" 3", "+2"])
_BAD_INTS = st.sampled_from(["x", "-1", "", "1.5", "2/3", "1e2", "0x10", _HUGE, "-" + _HUGE])
_RATIONALS = st.integers(-3, 3).map(str) | st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 3))
_BAD_RATIONALS = st.sampled_from(
    ["1/0", "x", "3/-2", "/", "nan", "inf", "1/" + _HUGE, _HUGE + "/7", "1e999999999", "2E5", "-1.5e-3"]
)
# parse, but a ray through them can have more digits than CPython prints
_BIG_RATIONALS = st.sampled_from(["1/" + "7" * 2500, "3" * 2500, "-" + "9" * 2500 + "/2"])
_LETTERS = st.builds("x{}^{}".format, st.integers(0, 6), st.integers(-2, 2))
_BAD_LETTERS = st.sampled_from(["y0", "x", "x-1", "x1^", "x1^99999999999", "x" + _HUGE, "x1^-" + _HUGE])


def _joined(values, count, sep=","):
    return st.lists(values, min_size=count, max_size=count).map(sep.join)


# Each option maps to (valid values, malformed values), or to a function of
# the arity n that returns them; (None, None) marks a flag without a value.
_FLAG = (None, None)
_NUMBERS = (_INTS, _BAD_INTS)
# dimensions also just past errors.MAX_DIM and far past it
_DIMS = (_INTS | st.sampled_from([str(MAX_DIM + 1), "1" + "0" * 12]), _BAD_INTS)
# steps past errors.MAX_INDEX_DIGITS for every chain drawn, refused at once
_STEPS = (_INTS | st.sampled_from(["15000", "1000000"]), _BAD_INTS)
_WORDS = (
    st.integers(0, 5).flatmap(lambda k: _joined(_LETTERS, k, " ")),
    st.integers(1, 5).flatmap(lambda k: _joined(_LETTERS | _BAD_LETTERS, k, " ")),
)


def _characters(n):
    good = _joined(_RATIONALS, n) | _joined(_RATIONALS | _BIG_RATIONALS, n)
    return good, _joined(_BAD_RATIONALS | _RATIONALS, n) | _joined(_RATIONALS, n + 1)


def _lattices(n):
    return (
        st.sampled_from([n - 1, n]).flatmap(lambda rows: _joined(_INTS, rows * n)),
        _joined(_BAD_INTS | _INTS, n * n)
        | _joined(_INTS, n + 1)
        | st.sampled_from(["", ",", "1,,2", "1;0;0;1"]),
    )


_OPTIONS = {
    "normalize": {"--word": _WORDS},
    "mul": {"--u": _WORDS, "--v": _WORDS},
    "eq": {"--u": _WORDS, "--v": _WORDS},
    "eval-pl": {"--word": _WORDS},
    "sigma": {"--chi": _characters, "--m": _DIMS, "--assume-sigma-m": _FLAG},
    "classify-kernel": {"--lattice": _lattices, "--m-max": _NUMBERS, "--assume-sigma-m": _FLAG},
    "auto-matrix": {"--which": (st.sampled_from(["A", "C"]), st.sampled_from(["B", ""]))},
    "orbit": {"--chi": _characters, "--cap": (st.integers(1, 64).map(str), _BAD_INTS)},
    "subgroups": {"--max-index": _NUMBERS},
    "cells": {"--lattice": _lattices, "--m": _DIMS},
    "bounds": {"--lattice": _lattices, "--m": _DIMS, "--d0-override": _NUMBERS},
    "gradient": {
        "--kind": (st.sampled_from(["rg", "dg", "chi"]), st.just("xx")),
        "--m": _DIMS,
        "--chain": (
            st.builds("{}:{}".format, st.sampled_from(["scaling", "coordinate"]), st.integers(2, 5)),
            st.sampled_from(["coordinate:x", "scaling", ":", "scaling:1", "scaling:2:3", "explicit:1",
                             "spiral:2", "scaling:" + _HUGE]),
        ),
        "--steps": _STEPS,
        "--format": (st.sampled_from(["json", "csv"]), st.just("xml")),
        "--d0-override": _NUMBERS,
    },
}
_BAD_ARITIES = st.sampled_from(["1", "0", "-3", "two", "", _HUGE, str(MAX_PL_INDEX + 1), "1000000"])


@st.composite
def _invocations(draw):
    """(argv, THOMPSON_SIGMA_MAX_INDEX or None): a valid call, or one with one fault.

    The fault is a malformed or dropped option, a junk argument, a set
    environment variable, or the argv just past one entry of the budget table.
    """
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    n = draw(st.integers(2, 4))
    options = {**_OPTIONS[command], "--n": (st.just(str(n)), _BAD_ARITIES)}
    fault = draw(st.sampled_from([*_OPTIONS[command], None, None, "--n", "junk", "env", "budget"]))
    if fault == "budget":
        return list(draw(st.sampled_from([argv for argv, _, _ in _PAST_BUDGET.values()]))), None
    argv = [command]
    for flag, values in options.items():
        good, bad = values(n) if callable(values) else values
        if good is None:
            if draw(st.booleans()):
                argv.append(flag)
        elif flag != fault:
            argv += [flag, draw(good)]
        elif draw(st.integers(0, 3)):  # else the faulty option is dropped
            argv += [flag, draw(bad)]
    if fault == "junk":
        argv += draw(st.sampled_from([["--bogus"], ["extra"], ["--n"], ["--m", "1"]]))
    env = draw(st.sampled_from(["5", "abc", _HUGE])) if fault == "env" else None
    return argv, env


class TestErrorContractFuzz:
    @given(_invocations())
    @settings(max_examples=500, deadline=None, derandomize=True)  # the same argvs on every run
    def test_exit_codes_and_streams(self, invocation):
        argv, env = invocation
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
            os.environ.pop("THOMPSON_SIGMA_MAX_INDEX", None)
            if env is not None:
                os.environ["THOMPSON_SIGMA_MAX_INDEX"] = env
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in err
        if code != 0:
            assert code in (1, 2)
            assert out == ""
            assert err.startswith("usage error: " if code == 1 else "error: ")
            return
        assert err == ""
        assert out.endswith("\n")
        if argv[0] in ("normalize", "mul"):
            parse_word(int(argv[argv.index("--n") + 1]), out)
        elif argv[0] == "gradient" and "csv" in argv:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0] == ["s", "index", "lower", "upper"]
            assert all(len(row) == 4 for row in rows)
        else:
            json.loads(out)
