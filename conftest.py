"""Make the suite test the turbloc that ``PYTHONPATH`` names, if it names one.

Only when no turbloc is importable is this checkout's ``src/`` added, at the
end of ``sys.path``: so ``PYTHONPATH=src python -m pytest`` and a bare
``python -m pytest`` from the repository root test ``./src``, and
``PYTHONPATH=<another checkout>/src python -m pytest`` tests that checkout.
"""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("turbloc") is None:
    sys.path.append(str(Path(__file__).resolve().parent / "src"))
