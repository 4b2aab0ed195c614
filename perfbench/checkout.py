"""Locate the checkout the benchmark runs from and import its sources.

Every benchmark script imports this module first.  It puts the
checkout's ``src`` directory at the front of ``sys.path`` and refuses
to run when that directory is missing, so the benchmark never measures
some other installed copy of ``repro``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Run-time outputs (reference cache, span files, event streams) live
# here, inside the checkout and outside the committed benchmark files.
OUT = ROOT / ".perfbench"


class CheckoutError(RuntimeError):
    """The directory the benchmark runs from holds no repro sources."""


def use_checkout_sources() -> None:
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise CheckoutError(f"no repro sources at {package.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    loaded = Path(repro.__file__).resolve()
    if SRC not in loaded.parents:
        raise CheckoutError(f"repro imported from {loaded}, not {SRC}")


def out_dir() -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT
