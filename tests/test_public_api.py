"""The public API in `cubeperc.__all__` holds only what the CLI, the demos
and the tests use."""

import re
from pathlib import Path

import cubeperc

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_used():
    sources = [ROOT / "src" / "cubeperc" / "cli.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    sources += [p for p in sorted((ROOT / "tests").glob("*.py")) if p.name != Path(__file__).name]
    text = "\n".join(p.read_text(encoding="utf-8") for p in sources)
    unused = [
        name
        for name in cubeperc.__all__
        if name != "__version__" and not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert unused == []
