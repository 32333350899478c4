"""The program under test: the `thompson_sigma` package in `src/` of this checkout.

`put_on_path` makes that copy importable and refuses to run without it, so
the benchmark never measures an installed copy by accident.  `Layers` hands
the workloads the package's layer modules, either as they are or with every
public function wrapped in a span of a `spans.Recorder`.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The repository's modules.  `_linalg` is private; its time counts toward its
# callers `charspace` and `lattices`, because no span is put around it.
LAYERS = ("words", "plrep", "charspace", "autos", "lattices", "complexes", "gradients", "cli")


def put_on_path() -> None:
    init = SRC / "thompson_sigma" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))


def check_loaded() -> None:
    module = sys.modules.get("thompson_sigma")
    if module is None or Path(module.__file__).resolve().parent != SRC / "thompson_sigma":
        sys.exit(f"perfbench: thompson_sigma was not loaded from {SRC}")


class _TracedModule:
    """A layer module whose public functions record a span per call."""

    def __init__(self, module, layer: str, recorder):
        self._module = module
        for name, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not name.startswith("_")
            ):
                setattr(self, name, recorder.wrap(layer, name, fn))

    def __getattr__(self, name):
        return getattr(self._module, name)


class Layers:
    """Attribute per layer name: the module itself, or its traced stand-in."""

    def __init__(self, names, recorder=None):
        for name in names:
            module = importlib.import_module(f"thompson_sigma.{name}")
            setattr(self, name, module if recorder is None else _TracedModule(module, name, recorder))
