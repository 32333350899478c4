"""Record every CLI call the CLI tests make, and replay them on two trees.

    python3 tests/replay.py record [FILE]
    python3 tests/replay.py compare TREE [FILE]

`record` runs `tests/test_cli.py` with `REPLAY_RECORD=FILE` set, so that
`conftest.py` wraps `thompson_sigma.cli.main`: each distinct call is kept
as one JSON line of its argv, its THOMPSON_SIGMA_* environment variables
and CPython's int-to-string digit limit.  FILE defaults to
`.replay/calls.jsonl` under this checkout; an existing FILE is replaced.

`compare` replays the calls in-process, once on this checkout's `src/` and
then on TREE's (one subprocess per tree, one after the other), and prints
each argv whose exit code, stdout or stderr differ, then a count.  It exits
1 if any differ.  TREE is the root of another checkout, which needs no copy
of this script.

Stdlib only; pytest does not collect this file (its name has no `test_`).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FILE = ROOT / ".replay" / "calls.jsonl"
ENV_PREFIX = "THOMPSON_SIGMA_"
RECORD_VAR = "REPLAY_RECORD"


def _call_line(argv) -> str:
    env = {k: v for k, v in os.environ.items() if k.startswith(ENV_PREFIX)}
    call = {"argv": list(sys.argv[1:] if argv is None else argv), "env": env, "digits": sys.get_int_max_str_digits()}
    return json.dumps(call, sort_keys=True)


def install_recorder(path: str) -> None:
    """Wrap `cli.main` so that each distinct call is appended to `path`."""
    from thompson_sigma import cli

    main = cli.main
    seen: set[str] = set()

    def recording_main(argv=None):
        line = _call_line(argv)
        if line not in seen:
            seen.add(line)
            with open(path, "a", encoding="utf-8") as f:
                f.write(line + "\n")
        return main(argv)

    cli.main = recording_main


def record(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{RECORD_VAR: str(path)})
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_cli.py"]
    done = subprocess.run(cmd, cwd=ROOT, env=env)
    lines = dict.fromkeys(path.read_text(encoding="utf-8").splitlines())  # distinct, in order
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"{len(lines)} distinct calls in {path} (pytest exit {done.returncode})")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def replay(path: Path) -> None:
    """Replay every call of `path` on the `thompson_sigma` found on sys.path,
    one JSON result line per call on stdout."""
    from thompson_sigma import cli

    results = sys.stdout
    for line in path.read_text(encoding="utf-8").splitlines():
        call = json.loads(line)
        for key in [k for k in os.environ if k.startswith(ENV_PREFIX)]:
            del os.environ[key]
        os.environ.update(call["env"])
        sys.set_int_max_str_digits(call["digits"])
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(call["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is an outcome to compare too
                code = f"raised {type(exc).__name__}: {exc}"
        out, err = out.getvalue(), err.getvalue()
        result = {"code": code, "out": _digest(out), "err": _digest(err), "err_head": err[:200]}
        results.write(json.dumps(result) + "\n")


def _replay_on(tree: Path, path: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop(RECORD_VAR, None)
    cmd = [sys.executable, str(Path(__file__).resolve()), "replay", str(path)]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def compare(tree: Path, path: Path) -> int:
    calls = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    here, there = _replay_on(ROOT, path), _replay_on(tree.resolve(), path)
    differ = 0
    for call, a, b in zip(calls, here, there):
        if a != b:
            differ += 1
            print(json.dumps({"argv": call["argv"], "env": call["env"], "here": a, "there": b}))
    print(f"{differ} of {len(calls)} calls differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["record"] and len(argv) <= 2:
        record(Path(argv[1]).resolve() if len(argv) == 2 else DEFAULT_FILE)
        return 0
    if argv[:1] == ["compare"] and len(argv) in (2, 3):
        return compare(Path(argv[1]), Path(argv[2]).resolve() if len(argv) == 3 else DEFAULT_FILE)
    if argv[:1] == ["replay"] and len(argv) == 2:
        replay(Path(argv[1]))
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
