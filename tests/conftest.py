"""Fixtures and the record oracle shared by the campaign tests."""

from functools import partial

import pytest

import quaddisc.runner as runner
from quaddisc.campaigns import COMMANDS, _identity


def dispatch(command: str, params: dict, n: int) -> dict:
    """The record of n, computed as the one-n run [n], as a dict; serialized,
    it is the slow oracle of the text runner._chunk writes."""
    [(_, least_m, predicted, match, extra, ms)] = COMMANDS[command].compute(params, [n])
    rec = _identity(command, params, n)
    rec.update(least_m=least_m, predicted=predicted, match=match, ms=ms)
    if extra:
        rec.update(extra)
    return rec


class SerialPool:
    """A stand-in for runner._pool that maps in this process, recording the
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
    monkeypatch.setattr(runner, "_pool", partial(SerialPool, calls))
    return calls
