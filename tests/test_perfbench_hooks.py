"""perfbench/spans.py patches program functions by name; every name it
lists must resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_span_patch_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for path, attr, _name, _kind in spans.PATCHES:
        module, *rest = path.split(".")
        owner = importlib.import_module("cubeperc." + module)
        for part in rest:
            owner = getattr(owner, part)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{path}.{attr}")
    assert missing == []
