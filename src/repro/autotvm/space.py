"""Schedule configuration space (paper Section 5.1).

A schedule template declares *knobs* — tile sizes, unroll factors, whether to
vectorize, how many virtual threads to use — through the
``define_split`` / ``define_knob`` API.  The cross product of all knob
candidates forms the configuration space the automated optimizer explores
(billions of configurations for real workloads; here the spaces are smaller
but share the same structure).
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = ["SplitEntity", "OtherEntity", "ConfigSpace", "ConfigEntity"]


#: most candidates one split knob keeps (longer lists are thinned evenly)
_MAX_SPLIT_CANDIDATES = 64


def _factorizations(extent: int, parts: int) -> List[Tuple[int, ...]]:
    """All ways to write ``extent`` as an ordered product of ``parts`` factors."""
    def divisors(n: int) -> List[int]:
        return [d for d in range(1, n + 1) if n % d == 0]

    results: List[Tuple[int, ...]] = []

    def recurse(remaining: int, chosen: Tuple[int, ...]) -> None:
        if len(chosen) == parts - 1:
            results.append(chosen + (remaining,))
            return
        for d in divisors(remaining):
            recurse(remaining // d, chosen + (d,))

    recurse(extent, ())
    if len(results) > _MAX_SPLIT_CANDIDATES:
        # Deterministically thin the list while keeping the extremes.
        step = len(results) / _MAX_SPLIT_CANDIDATES
        results = [results[int(i * step)]
                   for i in range(_MAX_SPLIT_CANDIDATES)]
    return results


class SplitEntity:
    """A concrete loop-split choice: the extents of each produced sub-loop."""

    def __init__(self, sizes: Sequence[int]):
        self.size = [int(s) for s in sizes]

    def apply(self, stage, ivar) -> List[object]:
        """Apply this split to a stage's iter var, returning the new loops
        from outermost to innermost."""
        loops = []
        current = ivar
        # Split from the innermost factor outwards.
        for factor in reversed(self.size[1:]):
            outer, inner = stage.split(current, factor=factor)
            loops.insert(0, inner)
            current = outer
        loops.insert(0, current)
        return loops

    def __repr__(self) -> str:
        return f"Split({self.size})"


class OtherEntity:
    """A concrete non-split knob value."""

    def __init__(self, value: object):
        self.val = value

    def __repr__(self) -> str:
        return f"Knob({self.val})"


class ConfigSpace:
    """The set of all configurations a template exposes.

    Calling ``define_split`` / ``define_knob`` registers candidates the first
    time a knob name is seen and returns the *default* entity (the first
    candidate), so a template can be executed directly against the space to
    discover its knobs.
    """

    def __init__(self) -> None:
        self._candidates: Dict[str, List[object]] = {}
        #: the extent each split knob divides
        self._split_extents: Dict[str, int] = {}
        self._radix: Optional[Tuple[List[str], List[int], List[int], int]] = None

    # -- definition API ---------------------------------------------------------
    def define_split(self, name: str, extent: int, num_outputs: int = 2,
                     candidate_sizes: Optional[Sequence[Sequence[int]]] = None) -> SplitEntity:
        if name not in self._candidates:
            if candidate_sizes is not None:
                entities = [SplitEntity(s) for s in candidate_sizes]
            else:
                entities = [SplitEntity(s)
                            for s in _factorizations(int(extent), num_outputs)]
            if not entities:
                entities = [SplitEntity([int(extent)] + [1] * (num_outputs - 1))]
            self._candidates[name] = entities
            self._split_extents[name] = int(extent)
            self._radix = None
        return self[name]

    def define_knob(self, name: str, candidates: Sequence[object]) -> OtherEntity:
        if name not in self._candidates:
            self._candidates[name] = [OtherEntity(v) for v in candidates]
            self._radix = None
        return self[name]

    # -- access -------------------------------------------------------------------
    def __getitem__(self, name: str) -> object:
        return self._candidates[name][0]

    def _radix_info(self) -> Tuple[List[str], List[int], List[int], int]:
        """Memoized ``(knob names, dims, mixed-radix multipliers, size)``.

        The knob set is fixed once the template has executed, but the hot
        explorer loops (simulated annealing, hill climbing, GA breeding) read
        these per candidate — rebuilding the lists each time dominated their
        inner loops.
        """
        radix = self._radix
        if radix is None:
            names = list(self._candidates.keys())
            dims = [len(v) for v in self._candidates.values()]
            multipliers: List[int] = []
            product = 1
            for dim in dims:
                multipliers.append(product)
                product *= dim
            radix = (names, dims, multipliers, product)
            self._radix = radix
        return radix

    @property
    def knob_names(self) -> List[str]:
        return list(self._radix_info()[0])

    @property
    def dims(self) -> List[int]:
        return list(self._radix_info()[1])

    def __len__(self) -> int:
        return self._radix_info()[3]

    def get(self, index: int) -> "ConfigEntity":
        """Return the configuration at a flat index (mixed-radix decode)."""
        if not 0 <= index < len(self):
            raise IndexError(f"Config index {index} out of range [0, {len(self)})")
        choices: Dict[str, object] = {}
        remaining = index
        for name, candidates in self._candidates.items():
            remaining, choice = divmod(remaining, len(candidates))
            choices[name] = candidates[choice]
        return ConfigEntity(self, index, choices)

    def index_of(self, choices: Dict[str, int]) -> int:
        """Flat index from per-knob candidate indices."""
        names, _dims, multipliers, _size = self._radix_info()
        index = 0
        for name, multiplier in zip(names, multipliers):
            index += choices.get(name, 0) * multiplier
        return index

    def flat_index(self, knob_indices: Sequence[int]) -> int:
        """Flat index from per-knob candidate indices in knob order.

        Same arithmetic as :meth:`index_of` without requiring the caller to
        build a name-keyed dict first — the explorers' neighbour moves call
        this once per candidate.
        """
        _names, _dims, multipliers, _size = self._radix_info()
        index = 0
        for choice, multiplier in zip(knob_indices, multipliers):
            index += choice * multiplier
        return index

    def knob_indices(self, index: int) -> List[int]:
        """Per-knob candidate indices for a flat index."""
        out: List[int] = []
        remaining = index
        for candidates in self._candidates.values():
            remaining, choice = divmod(remaining, len(candidates))
            out.append(choice)
        return out

    def sample(self, count: int, rng: Optional[random.Random] = None) -> List["ConfigEntity"]:
        rng = rng or random.Random(0)
        total = len(self)
        if count >= total:
            return [self.get(i) for i in range(total)]
        indices = rng.sample(range(total), count)
        return [self.get(i) for i in indices]

    def __iter__(self) -> Iterator["ConfigEntity"]:
        for i in range(len(self)):
            yield self.get(i)

    def __repr__(self) -> str:
        knobs = ", ".join(f"{k}({len(v)})" for k, v in self._candidates.items())
        return f"ConfigSpace(size={len(self)}, knobs=[{knobs}])"


class ConfigEntity(ConfigSpace):
    """One concrete configuration drawn from a :class:`ConfigSpace`."""

    def __init__(self, space: ConfigSpace, index: int, choices: Dict[str, object]):
        super().__init__()
        self._candidates = space._candidates
        self._split_extents = space._split_extents
        self.space = space
        self.index = index
        self._choices = choices

    def define_split(self, name: str, extent: int, num_outputs: int = 2,
                     candidate_sizes: Optional[Sequence[Sequence[int]]] = None):
        return self[name]

    def define_knob(self, name: str, candidates: Sequence[object]):
        return self[name]

    def __getitem__(self, name: str) -> object:
        if name in self._choices:
            return self._choices[name]
        return self._candidates[name][0]

    def structure(self) -> Tuple[Tuple, List[int]]:
        """``(pre-key, factors)`` of this config's lowering.

        ``factors`` are the sizes of every split knob, in knob order.  The
        pre-key holds what decides most of a lowered tree's shape and is
        cheap to read: every other knob's value, which applied factors are
        1 and which splits divide the extent they split.
        """
        knobs: List[object] = []
        factors: List[int] = []
        ones: List[bool] = []
        divides: List[bool] = []
        for name in self._candidates:
            entity = self[name]
            if isinstance(entity, SplitEntity):
                factors.extend(entity.size)
                # a split applies every size but the outermost
                ones.extend(size == 1 for size in entity.size[1:])
                extent = self._split_extents[name]
                for size in reversed(entity.size[1:]):
                    divides.append(extent % size == 0)
                    extent = -(-extent // size)
            else:
                knobs.append(entity.val)
        return (tuple(knobs), tuple(ones), tuple(divides)), factors

    def traced(self, factors: Sequence[int]) -> "ConfigEntity":
        """This config with its split sizes replaced, in :meth:`structure`'s
        order, by ``factors`` (a recording's traced integers)."""
        choices = dict(self._choices)
        position = 0
        for name in self._candidates:
            entity = self[name]
            if isinstance(entity, SplitEntity):
                traced = SplitEntity.__new__(SplitEntity)
                traced.size = list(factors[position:position + len(entity.size)])
                position += len(entity.size)
                choices[name] = traced
        return ConfigEntity(self.space, self.index, choices)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for name, entity in self._choices.items():
            if isinstance(entity, SplitEntity):
                out[name] = list(entity.size)
            else:
                out[name] = entity.val
        return out

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items())
        return f"Config(#{self.index}: {parts})"
