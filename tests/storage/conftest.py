"""Shared fixtures for the storage contract suites.

One logical store can sit in several physical layouts, and the storage
contract must read the same in each of them:

``grown``
    built by appends alone: arrays carry slack capacity, no cache is
    published yet;
``unpickled``
    after a pickle round trip, which is how spawned process shards receive
    their databases: arrays are trimmed to their logical length (so the
    next append regrows them), text dictionaries' reverse maps are rebuilt
    and every derived cache starts empty;
``cached``
    every read cache published (row tuples, decoded columns, column
    kernels), so the next append must replace them rather than extend them.
"""

from __future__ import annotations

import pickle

import pytest

STORE_LAYOUTS = ("grown", "unpickled", "cached")


@pytest.fixture(params=STORE_LAYOUTS)
def in_layout(request):
    """A function that moves a populated store into the requested layout.

    ``in_layout(backend, table_name, *companions)`` returns
    ``(backend, *companions)`` in that layout; companions (e.g. a
    :class:`Table` bound to the backend) travel with it, so after the
    ``unpickled`` move they are bound to the unpickled store.
    """
    layout = request.param

    def move(backend, table_name, *companions):
        if layout == "unpickled":
            return pickle.loads(pickle.dumps((backend, *companions)))
        if layout == "cached":
            backend.rows(table_name)
            for position in range(len(backend.row(table_name, 0))):
                backend.column_values(table_name, position)
                backend.column_kernel(table_name, position)
        return (backend, *companions)

    return move
