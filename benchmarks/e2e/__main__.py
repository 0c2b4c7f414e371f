"""Entry point: ``python -m benchmarks.e2e`` or ``python benchmarks/e2e/__main__.py``.

Pins ``PYTHONHASHSEED`` (re-executing once if needed), puts the
checkout's root and ``src/`` on ``sys.path`` (nothing needs to be
installed), turns DeprecationWarnings into errors -- the benchmark must
not lean on a spelling that is scheduled for deletion -- and hands over
to :mod:`benchmarks.e2e.cli`.
"""

import os
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks.e2e: no program to measure under {ROOT / 'src'}")
    # String hashes order the prover's sets: the same update costs 11 ms
    # under one hash seed and 18 ms under another (README, "Steadiness").
    # Runs are only comparable under one seed; the server child inherits it.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    warnings.simplefilter("error", DeprecationWarning)
    from benchmarks.e2e.cli import main

    sys.exit(main(ROOT))
