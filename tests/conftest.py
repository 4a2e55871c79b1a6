import pytest

from resamplekit import rng


@pytest.fixture
def small_chunks(monkeypatch):
    """Patch the chunk size of ``rng.run_chunks`` down to 64 values, at
    least 7 lanes: 10 lanes for 6-row data, 7 lanes for 9-row data, 32 for
    two-value rows."""
    monkeypatch.setattr(rng, "CHUNK_ELEMENTS", 64)
    monkeypatch.setattr(rng, "CHUNK_FLOOR", 7)


@pytest.fixture
def scalar_oracle(monkeypatch):
    """``scalar_oracle(fn)`` returns ``fn()`` with every kernel run once,
    unchunked, on ``rng.ScalarLanes(seed, count)``: one Python-int generator
    per lane, the oracle for the numpy uint64 lockstep, rejection, ``keep``
    and chunking.  ``rng.run_chunks`` is put back afterwards, so a test can
    compare the oracle with the numpy engine."""

    def unchunked(seed, count, width, kernel):
        return kernel(rng.ScalarLanes(seed, count))

    def run(fn):
        with monkeypatch.context() as patched:
            patched.setattr(rng, "run_chunks", unchunked)
            return fn()

    return run
