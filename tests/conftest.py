import pytest

from resamplekit import rng


@pytest.fixture
def small_chunks(monkeypatch):
    """Patch the chunk size of ``rng.run_chunks`` down to 64 values, at
    least 7 lanes: 10 lanes for 6-row data, 7 lanes for 9-row data, 32 for
    two-value rows."""
    monkeypatch.setattr(rng, "CHUNK_ELEMENTS", 64)
    monkeypatch.setattr(rng, "CHUNK_FLOOR", 7)
