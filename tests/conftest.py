"""Fixtures shared by the campaign tests."""

from functools import partial

import pytest

import quaddisc.campaigns as campaigns


class SerialPool:
    """A stand-in for campaigns._pool that maps in this process, recording the
    pool size and the chunks it is handed."""

    def __init__(self, calls, processes):
        self.calls = calls
        calls.append((processes, []))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, chunks):
        self.calls[-1][1].extend(chunks)
        return map(fn, chunks)


@pytest.fixture
def serial_pool(monkeypatch):
    """(processes, chunks) of each pool a campaign starts, computed in this
    process instead of forked workers."""
    calls = []
    monkeypatch.setattr(campaigns, "_pool", partial(SerialPool, calls))
    return calls
