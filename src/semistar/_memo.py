"""Every cache of the package, in one place.

A cache is a pure private function wrapped by :func:`memo`.  Its arguments
are everything its value depends on, the size limits included, so a hit
returns exactly what a fresh computation would, and a call that raises
stores nothing: no limit is re-checked on a hit, and what a call returns or
raises does not depend on the calls made before it.

Each memo declares its bound at the decorator and drops the least recently
used entry past it.  The bound fits what the memo holds: one entry per
component shape for the per-shape values (:data:`SHAPE_ENTRIES`), a few
dozen for materialized ordered sets, which hold up to ``max_poset``
elements each (:data:`POSET_ENTRIES`), a few hundred for support sums,
one integer each (:data:`SUM_ENTRIES`), sixteen for finished counting
polynomials, up to 10 MB each (:data:`POLY_ENTRIES`), a hundred or so
for the branch map lists, covers and restrictions that ordered sets share
(:data:`MAP_ENTRIES`), and :data:`CACHE_ENTRIES` for the small values kept
per tree, per pair of posets or per branch count, and for the command
line's parsers (one per command) and validated trees (one per tree text).
"""

from __future__ import annotations

from functools import lru_cache, update_wrapper

#: The bound of a memo of small values, one per tree, tree text, command or
#: pair of posets, and of the tables kept per branch count, which hold one
#: entry per count up to the branch limit (by tracemalloc, the support table
#: of four branches is 48 kB and its pair table 0.4 MB more).
CACHE_ENTRIES = 2048

#: The bound of a per-shape memo, with no eviction over five branches: the
#: 2 215 component shapes, each plain and domain-closing (4 430 factors), or
#: the shapes and the shapes less their domain (4 391 posets).
SHAPE_ENTRIES = 4480

#: The bound of a memo of materialized ordered sets, or of the block labels
#: of one.  One pass of a benchmark workload holds at most 14 of any one kind.
POSET_ENTRIES = 64

#: The bound of the memos of sorted branch map lists, their covers and their
#: restrictions, which ordered sets share per shape.  One pass of each
#: benchmark workload (seeds 1 and 2) holds 12, 6, 3 and 20 lists and cover
#: lists and 29, 17, 6 and 47 restrictions (``counts``, ``labels``, ``poly``,
#: ``hasse``).  A list holds at most ``max_poset`` maps, 0.4 MB by tracemalloc
#: at the default 2 000, and its covers about as much (0.37 MB for 1 953
#: maps), so these memos hold at most about 100 MB.
MAP_ENTRIES = 128

#: The bound of the support-sum memo, one integer per set of sibling branches
#: (the root's children, or an internal node's, whose sums size its record)
#: and closing flag.  One pass of the ``counts`` workload holds 48.
SUM_ENTRIES = 256

#: The bound of the memo of finished counting polynomials, one per tree,
#: count and set of variables.  The largest is 10 MB by tracemalloc: flat
#: four branches (weight 3, epsilon 2) in the four weights and the four
#: epsilons, 41 265 terms.  So the memo holds at most about 160 MB, and one
#: pass of the ``poly`` workload (7 polynomials) fits.
POLY_ENTRIES = 16


class _Memo:
    """A registry entry: the function, its bound and its current ``lru_cache``."""

    __slots__ = ("func", "entries", "cache")

    def __init__(self, func, entries: int):
        self.func, self.entries = func, entries
        self.clear()

    def clear(self):
        self.cache = lru_cache(maxsize=self.entries)(self.func)


_MEMOS: dict[str, _Memo] = {}  # "module.function" -> its entry


def memo(entries: int):
    """Memoize a function on its positional arguments, keeping at most ``entries``."""

    def decorate(func):
        entry = _Memo(func, entries)
        _MEMOS[f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"] = entry

        def call(*args):
            return entry.cache(*args)

        return update_wrapper(call, func)

    return decorate


def clear_caches():
    """Empty every memo; each then holds at most its current ``entries``."""
    for entry in _MEMOS.values():
        entry.clear()


def cache_info() -> dict:
    """Hits, misses, bound and size of every memo, by ``module.function`` name."""
    return {name: entry.cache.cache_info() for name, entry in sorted(_MEMOS.items())}
