"""Concurrency stress tests for the columnar backend's derived caches.

Column-kernel and row-cache construction is lazy, so concurrent readers
race to build them.  The backend publishes caches copy-on-write under a
per-table lock: every reader must observe either a complete cache or
build its own — never a half-built one — and version tokens must always
be at least as new as the data a reader observed alongside them.
"""

from __future__ import annotations

import threading

from repro.dataset.schema import Column
from repro.dataset.table import Table
from repro.dataset.types import DataType
from repro.storage import ColumnStore, StorageBackend

import pytest


@pytest.fixture
def backend():
    return ColumnStore()


def _make_table(backend: StorageBackend, rows: int = 500) -> Table:
    table = Table(
        "Events",
        [
            Column("Id", DataType.INT, primary_key=True),
            Column("Kind", DataType.TEXT),
            Column("Weight", DataType.DECIMAL),
        ],
        backend=backend,
    )
    for index in range(rows):
        table.insert((index, f"kind-{index % 7}", float(index)))
    return table


def _run_threads(workers, timeout: float = 60.0) -> list[str]:
    errors: list[str] = []
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads)
    return errors


class TestConcurrentReaders:
    def test_racing_column_kernel_builds_are_consistent(self, backend):
        table = _make_table(backend)
        num_threads = 8
        barrier = threading.Barrier(num_threads)
        results: list = []
        errors: list[str] = []

        def read():
            try:
                barrier.wait(timeout=30)
                results.append(backend.column_kernel("Events", 1))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        _run_threads([read] * num_threads)
        assert not errors
        assert len(results) == num_threads
        # Every reader got a complete kernel over all 500 rows.
        for kernel in results:
            assert len(kernel.keys) == 500 and kernel.valid.all()
            assert kernel.python_keys() == table.column_values("Kind")
        # One build was published and shared thereafter.
        assert all(kernel is results[0] for kernel in results)
        assert backend.column_kernel("Events", 1) is results[0]

    def test_racing_rows_cache_builds_are_consistent(self, backend):
        table = _make_table(backend, rows=200)
        num_threads = 8
        barrier = threading.Barrier(num_threads)
        errors: list[str] = []

        def read():
            try:
                barrier.wait(timeout=30)
                rows = table.rows
                if len(rows) != 200 or rows[42] != (42, "kind-0", 42.0):
                    errors.append(f"inconsistent rows snapshot: {len(rows)}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        _run_threads([read] * num_threads)
        assert not errors

    def test_readers_race_one_writer_without_corruption(self, backend):
        table = _make_table(backend, rows=100)
        stop = threading.Event()
        errors: list[str] = []

        def writer():
            try:
                for index in range(100, 400):
                    table.insert((index, f"kind-{index % 7}", float(index)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))
            finally:
                stop.set()

        def read():
            try:
                while not stop.is_set():
                    version = table.storage_version
                    kernel = backend.column_kernel("Events", 0)
                    rows = table.rows
                    # A cache snapshot may trail the writer but must be
                    # internally complete: row i holds key i.
                    keys = kernel.keys.tolist()
                    if len(keys) < 100 or len(rows) < 100:
                        errors.append(
                            f"lost rows: kernel={len(keys)}, rows={len(rows)}"
                        )
                        return
                    if keys != list(range(len(keys))) or not kernel.valid.all():
                        errors.append(f"torn kernel of {len(keys)} rows")
                        return
                    # Version tokens never run backwards.
                    if table.storage_version < version:
                        errors.append("version token went backwards")
                        return
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        workers = [writer] + [read] * 6
        _run_threads(workers)
        assert not errors
        # After the writer finishes, a fresh kernel covers everything.
        final = backend.column_kernel("Events", 0)
        assert final.keys.tolist() == list(range(400))

    def test_concurrent_version_token_reads_with_writes(self, backend):
        table = _make_table(backend, rows=10)
        database_versions: list[int] = []
        stop = threading.Event()
        errors: list[str] = []

        def writer():
            try:
                for index in range(10, 210):
                    table.insert((index, f"kind-{index % 7}", float(index)))
            finally:
                stop.set()

        def version_reader():
            try:
                last = -1
                while not stop.is_set():
                    current = backend.version("Events")
                    if current < last:
                        errors.append(f"version regressed: {last} -> {current}")
                        return
                    last = current
                database_versions.append(last)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        _run_threads([writer] + [version_reader] * 4)
        assert not errors
        assert backend.version("Events") == 210
