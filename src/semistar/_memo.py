"""Every cache of the package, in one place.

A cache is a pure private function wrapped by :func:`memo`.  Its arguments
are everything its value depends on, the size limits included, so a hit
returns exactly what a fresh computation would, and a call that raises
stores nothing: no limit is re-checked on a hit, and what a call returns or
raises does not depend on the calls made before it.  Every memo keeps at
most :data:`CACHE_ENTRIES` entries, dropping the least recently used.
"""

from __future__ import annotations

from functools import lru_cache, update_wrapper

#: The most entries any one memo keeps.
CACHE_ENTRIES = 2048

_MEMOS = {}  # "module.function" -> [function, its current lru_cache]


def memo(func):
    """``func`` memoized on its positional arguments, in the shared registry."""
    entry = [func, lru_cache(maxsize=CACHE_ENTRIES)(func)]
    _MEMOS[f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"] = entry

    def call(*args):
        return entry[1](*args)

    return update_wrapper(call, func)


def clear_caches():
    """Empty every memo, which then holds at most the current ``CACHE_ENTRIES``."""
    for entry in _MEMOS.values():
        entry[1] = lru_cache(maxsize=CACHE_ENTRIES)(entry[0])


def cache_info() -> dict:
    """Hits, misses, bound and size of every memo, by ``module.function`` name."""
    return {name: entry[1].cache_info() for name, entry in sorted(_MEMOS.items())}
