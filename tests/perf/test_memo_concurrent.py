"""Concurrency tests for the shared on-disk memo layer.

The serve layer keeps one :class:`RefinementMemo` warm for the life of
the server while campaign worker processes append to the same
directory underneath it and request threads query it in parallel.
These tests drive exactly that: multi-process appenders racing a
refreshing reader, torn partial writes, and threaded mutation.
"""

import json
import multiprocessing
import os
import threading

from repro.perf import RefinementMemo

CTX = "ctx"


def _appender(disk_dir: str, worker: int, count: int,
              flushed=None) -> None:
    memo = RefinementMemo(CTX, disk_dir=disk_dir)
    for i in range(count):
        memo.record(f"w{worker}-h{i}", "verified")
        memo.flush()  # one line per flush: maximal interleaving
        if flushed is not None:
            flushed.put(worker)


class TestMultiProcess:
    def test_concurrent_appenders_one_reader(self, tmp_path):
        disk_dir = str(tmp_path)
        workers, per_worker = 4, 25
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        flushed = ctx.Queue()
        procs = [ctx.Process(target=_appender,
                             args=(disk_dir, w, per_worker, flushed))
                 for w in range(workers)]
        reader = RefinementMemo(CTX, disk_dir=disk_dir)
        for p in procs:
            p.start()
        # refresh after every flush, while the other appenders keep
        # writing; must never crash or adopt a duplicate
        seen = 0
        for _ in range(workers * per_worker):
            flushed.get(timeout=60)
            seen += reader.refresh()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        seen += reader.refresh()
        assert seen == workers * per_worker
        assert len(reader) == workers * per_worker
        for w in range(workers):
            assert reader.lookup(f"w{w}-h0") == "verified"

    def test_one_file_per_process(self, tmp_path):
        disk_dir = str(tmp_path)
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        procs = [ctx.Process(target=_appender, args=(disk_dir, w, 3))
                 for w in range(3)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        files = [n for n in os.listdir(disk_dir)
                 if n.startswith("memo-") and n.endswith(".jsonl")]
        assert len(files) == 3  # appenders never share a file


class TestTornWrites:
    def _line(self, key: str, verdict: str = "verified") -> bytes:
        return (json.dumps({"c": CTX, "k": key, "v": verdict})
                .encode() + b"\n")

    def test_torn_final_line_is_not_consumed(self, tmp_path):
        path = tmp_path / "memo-99.jsonl"
        full = self._line("complete")
        torn = self._line("torn")[:-10]  # no newline, truncated JSON
        path.write_bytes(full + torn)

        memo = RefinementMemo(CTX, disk_dir=str(tmp_path))
        assert memo.lookup("complete") == "verified"
        assert memo.lookup("torn") is None

        # the writer finishes its line; a refresh adopts it whole
        with open(path, "ab") as fh:
            fh.write(self._line("torn")[-10:])
        assert memo.refresh() == 1
        assert memo.lookup("torn") == "verified"

    def test_torn_line_followed_by_good_line(self, tmp_path):
        # a writer killed mid-write left garbage *with* a newline;
        # skip it, keep reading the good lines after it
        path = tmp_path / "memo-99.jsonl"
        path.write_bytes(self._line("a")
                         + b'{"c": "ctx", "k": "br\n'
                         + self._line("b"))
        memo = RefinementMemo(CTX, disk_dir=str(tmp_path))
        assert memo.lookup("a") == "verified"
        assert memo.lookup("b") == "verified"
        assert len(memo) == 2

    def test_refresh_is_incremental(self, tmp_path):
        path = tmp_path / "memo-99.jsonl"
        path.write_bytes(self._line("a"))
        memo = RefinementMemo(CTX, disk_dir=str(tmp_path))
        assert memo.refresh() == 0  # nothing new
        with open(path, "ab") as fh:
            fh.write(self._line("b"))
        assert memo.refresh() == 1
        assert memo.refresh() == 0

    def test_other_context_not_adopted(self, tmp_path):
        path = tmp_path / "memo-99.jsonl"
        path.write_bytes(
            json.dumps({"c": "other", "k": "x", "v": "verified"})
            .encode() + b"\n" + self._line("mine"))
        memo = RefinementMemo(CTX, disk_dir=str(tmp_path))
        assert len(memo) == 1
        assert memo.lookup("x") is None

    def test_failed_verdict_on_disk_is_ignored(self, tmp_path):
        path = tmp_path / "memo-99.jsonl"
        path.write_bytes(self._line("bad", "failed"))
        memo = RefinementMemo(CTX, disk_dir=str(tmp_path))
        assert memo.lookup("bad") is None


class TestThreaded:
    def test_record_lookup_flush_race(self, tmp_path):
        memo = RefinementMemo(CTX, disk_dir=str(tmp_path))
        stop = threading.Event()
        errors = []

        def writer(base):
            try:
                for i in range(200):
                    memo.record(f"{base}-{i}", "verified")
                    if i % 20 == 0:
                        memo.flush()
            except Exception as e:  # noqa: BLE001
                errors.append(e)

        def reader():
            try:
                while not stop.is_set():
                    memo.lookup("t0-0")
                    memo.refresh()
            except Exception as e:  # noqa: BLE001
                errors.append(e)

        threads = [threading.Thread(target=writer, args=(f"t{n}",))
                   for n in range(4)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        for t in threads[:-1]:
            t.join()
        stop.set()
        threads[-1].join()
        assert errors == []
        memo.flush()
        assert len(memo) == 4 * 200
        # everything flushed is replayable by a fresh process
        again = RefinementMemo(CTX, disk_dir=str(tmp_path))
        assert len(again) == 4 * 200
