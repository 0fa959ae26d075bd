"""The names perfbench's tracer wraps exist on the package.

perfbench/tracing.py opens a span around each (module, attribute) of its
BOUNDARIES.  Some of those names are imported only for it (search's
contains_copy and creates_copy) and look unused from inside the package;
this test keeps a cleanup from deleting them.  The file is loaded
read-only, outside sys.modules.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_boundary_exists():
    spec = importlib.util.spec_from_file_location("_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.BOUNDARIES) > 40
    for module, attr, _ in tracing.BOUNDARIES:
        target = importlib.import_module(f"satgraph.{module}")
        assert callable(getattr(target, attr, None)), (module, attr)
