"""Bitmask-backed immutable sets of items, numbered from 1.

Item j occupies bit j-1, so the empty set is mask 0 and the full ground set
of m items is mask 2**m - 1.  All exhaustive routines in the package iterate
over masks directly.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


class ItemSet:
    """Immutable set of positive item indices."""

    __slots__ = ("_mask",)

    def __init__(self, items: Iterable[int] = ()):
        mask = 0
        for item in items:
            if not isinstance(item, int) or isinstance(item, bool) or item < 1:
                raise ValueError(f"items must be integers >= 1, got {item!r}")
            mask |= 1 << (item - 1)
        self._mask = mask

    @classmethod
    def from_mask(cls, mask: int) -> "ItemSet":
        if mask < 0:
            raise ValueError("mask must be nonnegative")
        out = cls.__new__(cls)
        out._mask = mask
        return out

    @property
    def mask(self) -> int:
        return self._mask

    def items(self) -> tuple[int, ...]:
        return tuple(self)

    def max_item(self) -> int:
        """Largest member, 0 for the empty set."""
        return self._mask.bit_length()

    def add(self, item: int) -> "ItemSet":
        return ItemSet.from_mask(self._mask | (1 << (item - 1)))

    def union(self, other: "ItemSet") -> "ItemSet":
        return ItemSet.from_mask(self._mask | other._mask)

    def intersection(self, other: "ItemSet") -> "ItemSet":
        return ItemSet.from_mask(self._mask & other._mask)

    def difference(self, other: "ItemSet") -> "ItemSet":
        return ItemSet.from_mask(self._mask & ~other._mask)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def issubset(self, other: "ItemSet") -> bool:
        return self._mask & ~other._mask == 0

    def isdisjoint(self, other: "ItemSet") -> bool:
        return self._mask & other._mask == 0

    def __contains__(self, item: int) -> bool:
        return item >= 1 and (self._mask >> (item - 1)) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self._mask
        while mask:
            low = mask & -mask
            yield low.bit_length()
            mask ^= low

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __bool__(self) -> bool:
        return self._mask != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, ItemSet) and self._mask == other._mask

    def __hash__(self) -> int:
        return hash(("ItemSet", self._mask))

    def __repr__(self) -> str:
        return f"ItemSet({{{', '.join(str(i) for i in self)}}})"


EMPTY_SET = ItemSet()


def canonical_less(a: int, b: int) -> bool:
    """Whether the set with mask a comes before the set with mask b in the
    canonical order: by cardinality, then by the sorted item list.

    At equal cardinality the smaller item list is the one holding the
    smallest item of the symmetric difference.
    """
    size_a, size_b = a.bit_count(), b.bit_count()
    if size_a != size_b:
        return size_a < size_b
    diff = a ^ b
    return a & diff & -diff != 0


def all_masks(num_items: int) -> np.ndarray:
    """All subset masks of a ground set, as an int64 vector."""
    return np.arange(1 << num_items, dtype=np.int64)


def popcounts(masks: np.ndarray) -> np.ndarray:
    """Per-element popcount of a mask vector."""
    return np.bitwise_count(masks).astype(np.int64)


_REV_CACHE: dict[int, np.ndarray] = {}


def bit_reversals(num_items: int) -> np.ndarray:
    """rev[mask] = mask with its low num_items bits reversed.

    Among masks of equal popcount, larger rev means lexicographically smaller
    item list, which is what the canonical tie-break needs.
    """
    cached = _REV_CACHE.get(num_items)
    if cached is None:
        masks = all_masks(num_items)
        rev = np.zeros_like(masks)
        for bit in range(num_items):
            rev |= ((masks >> bit) & 1) << (num_items - 1 - bit)
        _REV_CACHE[num_items] = cached = rev
    return cached
