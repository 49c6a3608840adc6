"""Process set-up shared by the benchmark entry points.

Import this module before anything that imports numpy: `pin_threads` must
run before the BLAS library loads, because OpenBLAS reads its thread count
once at load time.  Stdlib only.
"""

import os
import sys
from pathlib import Path

# ex3's post-verify margin depends on the BLAS thread count (-8.80e-3 with
# one thread, -7.95e-3 with four), so every run pins it.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "minjump"


class SourceMissing(RuntimeError):
    """The checkout does not hold the package sources next to the benchmark."""


def pin_threads():
    os.environ.update(PINNED_ENV)


def add_src_path():
    """Make `import minjump` load the package from this checkout's src/."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SourceMissing(f"package sources not found at {PACKAGE}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_loaded_from_src(module):
    """Refuse a minjump that was imported from anywhere but this checkout."""
    where = Path(module.__file__).resolve().parent
    if where != PACKAGE:
        raise SourceMissing(f"minjump was imported from {where}, not {PACKAGE}")


def src_line_count():
    return sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.rglob("*.py")))
