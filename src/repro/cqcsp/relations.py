"""A tiny in-memory relational algebra.

Just enough engine to demonstrate *why* the paper's widths matter: joins,
projections and semijoins over named-attribute relations, used by the
Yannakakis algorithm and the decomposition-guided CQ evaluator.

Relations are immutable: attribute tuple + frozenset of value tuples.
Joins are hash joins on the shared attributes; the engine tracks the
number of intermediate tuples materialized so experiments can show the
blow-up that decompositions avoid.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter


__all__ = [
    "Relation",
    "join_all",
    "relation_to_payload",
    "relation_from_payload",
]

#: JSON-representable scalar types allowed in wire/file relation rows.
_SCALARS = (str, int, float, bool)


def _columns(rows, indices: Sequence[int]):
    """The ``indices`` sub-tuple of every row, built in C.

    ``itemgetter`` yields a bare value for one index and takes no empty
    index list, hence the two special cases.
    """
    if len(indices) == 1:
        return zip(map(itemgetter(indices[0]), rows))
    if not indices:
        return repeat((), len(rows))
    return map(itemgetter(*indices), rows)


@dataclass(frozen=True)
class Relation:
    """A named relation with a fixed attribute order."""

    name: str
    attributes: tuple[str, ...]
    tuples: frozenset

    def __post_init__(self) -> None:
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError(f"duplicate attributes in {self.attributes}")
        arity = len(self.attributes)
        if set(map(len, self.tuples)) - {arity}:
            row = next(r for r in self.tuples if len(r) != arity)
            raise ValueError(
                f"row {row} does not match attributes {self.attributes}"
            )

    @classmethod
    def from_rows(
        cls, name: str, attributes: Sequence[str], rows: Iterable[Sequence]
    ) -> "Relation":
        """Build a relation from any iterable of row sequences."""
        return cls(
            name, tuple(attributes), frozenset(tuple(r) for r in rows)
        )

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    # ------------------------------------------------------------------
    def rename(self, mapping: Mapping[str, str], name: str | None = None) -> "Relation":
        """Rename attributes (identity for unmentioned ones)."""
        attrs = tuple(mapping.get(a, a) for a in self.attributes)
        return Relation(name or self.name, attrs, self.tuples)

    def project(self, attributes: Sequence[str]) -> "Relation":
        """π: keep the listed attributes (deduplicating rows)."""
        missing = [a for a in attributes if a not in self.attributes]
        if missing:
            raise KeyError(f"unknown attributes {missing}")
        attributes = tuple(attributes)
        if attributes == self.attributes:
            return self
        idx = [self.attributes.index(a) for a in attributes]
        rows = frozenset(_columns(self.tuples, idx))
        return Relation(self.name, attributes, rows)

    def select_equal(self, attribute: str, value) -> "Relation":
        """σ: rows whose ``attribute`` equals ``value``."""
        i = self.attributes.index(attribute)
        return Relation(
            self.name,
            self.attributes,
            frozenset(row for row in self.tuples if row[i] == value),
        )

    def _key_indices(self, other: "Relation") -> tuple[list[int], list[int]]:
        shared = [a for a in self.attributes if a in other.attributes]
        return (
            [self.attributes.index(a) for a in shared],
            [other.attributes.index(a) for a in shared],
        )

    def join(self, other: "Relation") -> "Relation":
        """⋈: natural (hash) join on the shared attributes."""
        my_idx, their_idx = self._key_indices(other)
        extra = [
            i
            for i, a in enumerate(other.attributes)
            if a not in self.attributes
        ]
        name = f"({self.name}⋈{other.name})"
        if not extra:
            return Relation(name, self.attributes, self.semijoin(other).tuples)
        buckets: dict = {}
        for key, tail in zip(
            _columns(other.tuples, their_idx), _columns(other.tuples, extra)
        ):
            buckets.setdefault(key, []).append(tail)
        rows = frozenset(
            row + tail
            for row, key in zip(self.tuples, _columns(self.tuples, my_idx))
            for tail in buckets.get(key, ())
        )
        attrs = self.attributes + tuple(other.attributes[i] for i in extra)
        return Relation(name, attrs, rows)

    def semijoin(self, other: "Relation") -> "Relation":
        """⋉: rows of self with a join partner in other."""
        my_idx, their_idx = self._key_indices(other)
        keys = set(_columns(other.tuples, their_idx))
        hits = map(keys.__contains__, _columns(self.tuples, my_idx))
        rows = frozenset(compress(self.tuples, hits))
        if len(rows) == len(self.tuples):
            return self
        return Relation(self.name, self.attributes, rows)

    def is_empty(self) -> bool:
        """True iff the relation holds no tuples."""
        return not self.tuples


def relation_to_payload(relation: Relation) -> dict:
    """Encode a relation as the plain-JSON shape used on disk and wire.

    ``{"attributes": [...], "rows": [[...], ...]}`` with rows sorted
    deterministically (by their repr — rows may mix value types), so
    two equal relations always encode byte-identically.
    """
    return {
        "attributes": list(relation.attributes),
        "rows": sorted(
            (list(row) for row in relation.tuples), key=repr
        ),
    }


def relation_from_payload(name: str, obj) -> Relation:
    """Decode ``{"attributes", "rows"}`` into a :class:`Relation`.

    Raises ``ValueError`` on any malformed shape: missing keys, rows of
    the wrong arity, or non-scalar values (only JSON scalars are
    allowed — nested lists would not survive the hash-join key paths).
    """
    if not isinstance(obj, dict):
        raise ValueError(f"relation {name!r} must be a JSON object")
    unknown = set(obj) - {"attributes", "rows"}
    if unknown:
        raise ValueError(
            f"relation {name!r} has unknown keys {sorted(unknown)}; "
            "valid keys: attributes, rows"
        )
    attributes = obj.get("attributes")
    if not isinstance(attributes, (list, tuple)) or not all(
        isinstance(a, str) for a in attributes
    ):
        raise ValueError(
            f"relation {name!r} needs an 'attributes' list of strings"
        )
    rows = obj.get("rows", [])
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"relation {name!r} needs a 'rows' list")
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise ValueError(
                f"relation {name!r} row {i} must be a list"
            )
        if len(row) != len(attributes):
            raise ValueError(
                f"relation {name!r} row {i} has {len(row)} values but "
                f"{len(attributes)} attributes"
            )
        for value in row:
            if not isinstance(value, _SCALARS):
                raise ValueError(
                    f"relation {name!r} row {i} holds non-scalar "
                    f"value {value!r}"
                )
    try:
        return Relation.from_rows(name, attributes, rows)
    except ValueError as exc:
        raise ValueError(f"relation {name!r}: {exc}") from exc


def join_all(relations: Sequence[Relation]) -> tuple[Relation, int]:
    """Left-deep natural join of all relations.

    Returns the result and the *total intermediate tuple count* — the
    quantity that explodes for cyclic queries evaluated naively and stays
    polynomial when joining along a decomposition.
    """
    if not relations:
        raise ValueError("nothing to join")
    acc = relations[0]
    intermediate = len(acc)
    for rel in relations[1:]:
        acc = acc.join(rel)
        intermediate += len(acc)
    return acc, intermediate
