"""Finite partially ordered sets (posets).

Section 3.1 of the paper models inter-frame dependency as a poset: for two
frames ``x`` and ``y``, ``x <= y`` iff ``x`` depends on ``y`` directly or
indirectly.  We store the poset as its *cover* (Hasse) relation plus a
transitively-closed comparability table, built once at construction.

The construction takes the user-supplied relation (any set of pairs whose
transitive closure is acyclic) and normalizes it, so callers may pass
either direct dependencies or an already-closed relation.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Set,
    Tuple,
    TypeVar,
)

from repro.errors import CycleError, PosetError

T = TypeVar("T", bound=Hashable)


class Poset(Generic[T]):
    """A finite poset over hashable elements.

    Parameters
    ----------
    elements:
        The ground set.
    relation:
        Pairs ``(x, y)`` meaning ``x <= y`` (``x`` depends on ``y`` in the
        streaming interpretation).  Reflexive pairs are allowed and
        ignored; the transitive closure is computed internally.

    Raises
    ------
    CycleError:
        If the closure of the relation contains ``x <= y`` and ``y <= x``
        for distinct ``x`` and ``y``.
    PosetError:
        If the relation mentions an element outside the ground set.
    """

    def __init__(
        self,
        elements: Iterable[T],
        relation: Iterable[Tuple[T, T]] = (),
    ) -> None:
        self._elements: Tuple[T, ...] = tuple(elements)
        element_set = set(self._elements)
        if len(element_set) != len(self._elements):
            raise PosetError("poset elements must be distinct")

        # successors[x] = set of y with x < y (strict), transitively closed.
        successors: Dict[T, Set[T]] = {x: set() for x in self._elements}
        direct: Dict[T, Set[T]] = {x: set() for x in self._elements}
        for x, y in relation:
            if x not in element_set or y not in element_set:
                raise PosetError(f"relation pair ({x!r}, {y!r}) outside ground set")
            if x != y:
                direct[x].add(y)

        # Transitive closure by DFS from each node, with cycle detection.
        for start in self._elements:
            stack = [start]
            seen: Set[T] = set()
            while stack:
                node = stack.pop()
                for succ in direct[node]:
                    if succ == start:
                        raise CycleError(
                            f"dependency cycle through {start!r}"
                        )
                    if succ not in seen:
                        seen.add(succ)
                        stack.append(succ)
            successors[start] = seen

        self._above = {x: frozenset(s) for x, s in successors.items()}
        below: Dict[T, Set[T]] = {x: set() for x in self._elements}
        for x, above in self._above.items():
            for y in above:
                below[y].add(x)
        self._below = {x: frozenset(s) for x, s in below.items()}

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def elements(self) -> Tuple[T, ...]:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, x: T) -> bool:
        return x in self._above

    def __iter__(self) -> Iterator[T]:
        return iter(self._elements)

    def le(self, x: T, y: T) -> bool:
        """``x <= y`` in the partial order."""
        self._require(x)
        self._require(y)
        return x == y or y in self._above[x]

    def lt(self, x: T, y: T) -> bool:
        """``x < y`` strictly."""
        return x != y and self.le(x, y)

    def comparable(self, x: T, y: T) -> bool:
        """Whether ``x <= y`` or ``y <= x``."""
        return self.le(x, y) or self.le(y, x)

    def above(self, x: T) -> FrozenSet[T]:
        """All ``y`` with ``x < y`` — everything ``x`` depends on."""
        self._require(x)
        return self._above[x]

    def below(self, x: T) -> FrozenSet[T]:
        """All ``y`` with ``y < x`` — everything depending on ``x``."""
        self._require(x)
        return self._below[x]

    def covers(self, x: T, y: T) -> bool:
        """``y`` covers ``x``: ``x < y`` with nothing strictly between."""
        if not self.lt(x, y):
            return False
        return not any(self.lt(x, z) and self.lt(z, y) for z in self._above[x])

    def cover_pairs(self) -> List[Tuple[T, T]]:
        """All pairs ``(x, y)`` where ``y`` covers ``x`` (the Hasse diagram)."""
        pairs = []
        for x in self._elements:
            for y in self._above[x]:
                if self.covers(x, y):
                    pairs.append((x, y))
        return pairs

    # ------------------------------------------------------------------
    # Structural features used by the paper
    # ------------------------------------------------------------------

    def minimal_elements(self) -> List[T]:
        """Elements with nothing below them."""
        return [x for x in self._elements if not self._below[x]]

    def maximal_elements(self) -> List[T]:
        """Elements with nothing above them.

        In the streaming interpretation these depend on nothing — the
        paper calls a frame *anchor* when some other frame sits below it.
        """
        return [x for x in self._elements if not self._above[x]]

    def anchors(self) -> List[T]:
        """Elements some other element depends on (paper's anchor frames)."""
        return [x for x in self._elements if self._below[x]]

    def is_chain(self, subset: Iterable[T]) -> bool:
        """Whether every pair in ``subset`` is comparable."""
        items = list(subset)
        return all(
            self.comparable(items[i], items[j])
            for i in range(len(items))
            for j in range(i + 1, len(items))
        )

    def is_antichain(self, subset: Iterable[T]) -> bool:
        """Whether every pair of distinct elements in ``subset`` is incomparable."""
        items = list(subset)
        return all(
            not self.comparable(items[i], items[j])
            for i in range(len(items))
            for j in range(i + 1, len(items))
        )

    def longest_chain_length(self) -> int:
        """Length (number of elements) of the longest chain.

        By Mirsky's theorem this equals the size of the minimum antichain
        decomposition, which sets the number of layers in the paper's
        layered transmission order.
        """
        if not self._elements:
            return 0
        # Longest path in the DAG of strict relations, one pass over a
        # topological order: ``above`` is transitively closed, so
        # everything above ``x`` has a strictly smaller ``above`` set.
        above = self._above
        height: Dict[T, int] = {}
        for x in sorted(self._elements, key=lambda x: len(above[x])):
            height[x] = 1 + max((height[y] for y in above[x]), default=0)
        return max(height.values())

    def ranks(self) -> Dict[T, int]:
        """Rank of each element: minimal elements get 0, covers add one.

        For *ranked* posets (all maximal chains between fixed endpoints
        have equal length — MPEG and H.261 dependency posets are ranked)
        this is the paper's rank function; in general we use the height of
        the longest chain ending at the element, which always yields a
        valid antichain decomposition.
        """
        # One pass over a topological order: ``below`` is transitively
        # closed, so everything below ``x`` has a strictly smaller
        # ``below`` set and is ranked first.  (Iterative, so no
        # self-referencing closure is left for the cyclic collector.)
        below = self._below
        rank: Dict[T, int] = {}
        for x in sorted(self._elements, key=lambda x: len(below[x])):
            under = below[x]
            rank[x] = 0 if not under else 1 + max(rank[y] for y in under)
        return {x: rank[x] for x in self._elements}

    def is_ranked(self) -> bool:
        """Whether the rank function is consistent with the cover relation.

        A poset is ranked iff whenever ``y`` covers ``x``,
        ``rank(y) == rank(x) + 1``.
        """
        ranks = self.ranks()
        return all(
            ranks[y] == ranks[x] + 1 for x, y in self.cover_pairs()
        )

    def dual(self) -> "Poset[T]":
        """The poset with all relations reversed."""
        pairs = [
            (y, x)
            for x in self._elements
            for y in self._above[x]
        ]
        return Poset(self._elements, pairs)

    def restrict(self, subset: Iterable[T]) -> "Poset[T]":
        """The induced subposet on ``subset``."""
        keep = set(subset)
        for x in keep:
            self._require(x)
        order = [x for x in self._elements if x in keep]
        pairs = [
            (x, y)
            for x in order
            for y in self._above[x]
            if y in keep
        ]
        return Poset(order, pairs)

    # ------------------------------------------------------------------

    def _require(self, x: T) -> None:
        if x not in self._above:
            raise PosetError(f"{x!r} is not an element of this poset")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Poset({len(self._elements)} elements, {sum(len(s) for s in self._above.values())} relations)"


def chain(n: int) -> Poset[int]:
    """The chain ``0 < 1 < ... < n-1``."""
    if n < 0:
        raise PosetError("chain length must be non-negative")
    return Poset(range(n), [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Poset[int]:
    """The antichain of ``n`` pairwise-incomparable elements."""
    if n < 0:
        raise PosetError("antichain size must be non-negative")
    return Poset(range(n), [])
