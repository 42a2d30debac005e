import sys
from pathlib import Path

import pytest

import simplexcover.mvs as mvs

# Make helpers.py importable regardless of how pytest was invoked.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(params=[None, 3, 40], ids=["chunk-default", "chunk-3", "chunk-40"])
def chunk(request, monkeypatch):
    """Rerun a test with chunks of a few rows, so that the subset walk over
    facets crosses many chunk boundaries."""
    if request.param is not None:
        monkeypatch.setattr(mvs, "_CHUNK", request.param)
