import functools
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from sgpts import util


def reference_shares(n, threads):
    """The chunks of range(n) dealt to threads as util.over_chunks deals them:
    n // 4000 spans, at least one, bounds set by n alone, and share t holding
    chunks t, t + T, t + 2T, ... for T = min(chunks, threads)."""
    k = max(1, n // 4000)
    spans = [(i * n // k, (i + 1) * n // k) for i in range(k)]
    count = min(k, threads) if k > 1 else 1
    return [spans[t::count] for t in range(count)]


class TestOverChunks:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 3999, 8000, 12289, 40001])
    def test_spans_and_deal(self, monkeypatch, n, threads):
        # each share has its own buffer, so the buffer names the share
        # whichever thread runs it; share 0 runs on the calling thread
        monkeypatch.setattr(util, "_grid_threads", lambda: threads)
        calls = []
        util.over_chunks(n, lambda lo, hi, buf: calls.append(
            (id(buf), threading.get_ident(), buf.shape, lo, hi)), scratch=(n, 3))
        want = reference_shares(n, threads)
        by_buf = {}
        for key, thread, shape, lo, hi in calls:
            by_buf.setdefault(key, []).append((thread, shape, (lo, hi)))
        shares = sorted([span for _, _, span in share] for share in by_buf.values())
        assert shares == sorted(want)
        first = next(s for s in by_buf.values() if [span for *_, span in s] == want[0])
        assert {thread for thread, _, _ in first} == {threading.get_ident()}
        width = max(hi - lo for spans in want for lo, hi in spans)
        assert {shape for s in by_buf.values() for _, shape, _ in s} == {(width, 3)}

    def test_scratch_rows_are_capped(self, monkeypatch):
        monkeypatch.setattr(util, "_grid_threads", lambda: 2)
        shapes = []
        util.over_chunks(8000, lambda lo, hi, buf: shapes.append(buf.shape), scratch=(129, 5))
        assert shapes == [(129, 5)] * 2
        nones = []
        util.over_chunks(8000, lambda lo, hi, buf: nones.append(buf))
        assert nones == [None, None]

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(util, "_grid_threads", lambda: 2)
        caller, done = threading.get_ident(), []

        def fn(lo, hi, buf):
            if lo == 4000 and threading.get_ident() != caller:
                raise ValueError("chunk 1")
            done.append(lo)

        with pytest.raises(ValueError, match="chunk 1"):
            util.over_chunks(8000, fn)
        assert done == [0]

    def test_caller_error_waits_for_the_workers(self, monkeypatch):
        monkeypatch.setattr(util, "_grid_threads", lambda: 2)
        out = np.zeros(8000)

        def fn(lo, hi, buf):
            if lo == 0:
                raise ValueError("chunk 0")
            time.sleep(0.2)
            out[lo:hi] = 1.0

        with pytest.raises(ValueError, match="chunk 0"):
            util.over_chunks(8000, fn)
        assert not out[:4000].any() and out[4000:].all()

    def test_scratch_is_made_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(util, "_grid_threads", lambda: 3)
        makers, empty = [], np.empty

        def counted(*args, **kwargs):
            makers.append(threading.get_ident())
            return empty(*args, **kwargs)

        monkeypatch.setattr(util.np, "empty", counted)
        threads = []
        util.over_chunks(12289, lambda lo, hi, buf: threads.append(threading.get_ident()),
                         scratch=(12289, 4))
        assert makers == [threading.get_ident()] * 3
        assert len(threads) == 3 and len(set(threads)) >= 2


class TestTogether:
    """util.together: the first call on the calling thread, the others on the
    pool exactly where over_chunks would use it, else inline; the values in
    call order once every call has finished."""

    def test_values_come_back_in_call_order(self, monkeypatch):
        def late(i):
            # the later calls finish first
            time.sleep(0.01 * (3 - i))
            return i

        for threads in (1, 2, 3):
            monkeypatch.setattr(util, "_grid_threads", lambda: threads)
            calls = [functools.partial(late, i) for i in range(4)]
            assert util.together(12000, *calls) == [0, 1, 2, 3]

    def test_first_call_runs_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(util, "_grid_threads", lambda: 2)
        caller = threading.get_ident()
        first, second = util.together(8000, threading.get_ident, threading.get_ident)
        assert first == caller and second != caller

    def test_runs_inline_below_the_gate(self, monkeypatch):
        caller = threading.get_ident()
        for threads, n in ((2, 7999), (1, 8000), (1, 40000)):
            monkeypatch.setattr(util, "_grid_threads", lambda: threads)
            assert util.together(n, *[threading.get_ident] * 3) == [caller] * 3

    def test_runs_inline_at_one_sgpts_thread(self, monkeypatch):
        monkeypatch.setenv("SGPTS_THREADS", "1")
        caller = threading.get_ident()
        assert util.together(40000, *[threading.get_ident] * 3) == [caller] * 3

    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_error_reaches_the_caller(self, monkeypatch, threads):
        monkeypatch.setattr(util, "_grid_threads", lambda: threads)

        def fail(tag):
            raise ValueError(tag)

        with pytest.raises(ValueError, match="first"):
            util.together(8000, lambda: fail("first"), lambda: fail("second"))
        with pytest.raises(ValueError, match="second"):
            util.together(12000, time.time, lambda: fail("second"), lambda: fail("third"))

    def test_inline_error_waits_for_the_pool_call(self, monkeypatch):
        monkeypatch.setattr(util, "_grid_threads", lambda: 2)
        done = []

        def fail():
            raise ValueError("inline")

        def slow():
            time.sleep(0.3)
            done.append(threading.get_ident())

        with pytest.raises(ValueError, match="inline"):
            util.together(8000, fail, slow)
        assert len(done) == 1 and done[0] != threading.get_ident()

    def test_pool_error_is_raised_after_the_inline_call(self, monkeypatch):
        monkeypatch.setattr(util, "_grid_threads", lambda: 2)
        done = []

        def fail():
            raise ValueError("pool")

        def slow():
            time.sleep(0.3)
            done.append(threading.get_ident())

        with pytest.raises(ValueError, match="pool"):
            util.together(8000, slow, fail)
        assert done == [threading.get_ident()]

    def test_task_takes_its_own_chunks_inline(self):
        # the pool has one worker on a 2-CPU host: a task on it that dealt
        # chunks to the pool would wait on itself, so the check runs in a
        # process that a hang cannot keep past its timeout
        script = (
            "import threading, numpy as np\n"
            "from sgpts import util\n"
            "util._grid_threads = lambda: 2\n"
            "X = np.random.default_rng(3).uniform(size=(8000, 3))\n"
            "def values():\n"
            "    out, threads = np.empty(8000), set()\n"
            "    def chunk(lo, hi, buf):\n"
            "        threads.add(threading.get_ident())\n"
            "        out[lo:hi] = np.exp(X[lo:hi]) @ np.array([0.3, -1.1, 2.7])\n"
            "    util.over_chunks(8000, chunk)\n"
            "    return out, threads\n"
            "want, spread = values()\n"
            "_, (got, inline) = util.together(8000, lambda: None, values)\n"
            "print(np.array_equal(got, want), len(spread), len(inline),\n"
            "      threading.get_ident() in inline)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        assert proc.stdout.split() == ["True", "2", "1", "False"]
