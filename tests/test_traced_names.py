"""The benchmark's tracer wraps drmdit attributes by name; a refactor that
moves or renames one of them must fail here, not in a traced run."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    missing = [f"{name}: {module}.{attr}"
               for name, (module, attr) in tracer.SPANS.items()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing
    # install() reads the floors its counters compare against
    from drmdit import itl, robust
    assert isinstance(itl.ENTROPY_FLOOR, float)
    assert isinstance(robust.MAD_FLOOR, float)
