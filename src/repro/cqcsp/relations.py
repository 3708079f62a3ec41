"""A tiny in-memory relational algebra.

Just enough engine to demonstrate *why* the paper's widths matter: joins,
projections and semijoins over named-attribute relations, used by the
Yannakakis algorithm and the decomposition-guided CQ evaluator.

Relations are immutable: attribute tuple + frozenset of value tuples.
Joins are hash joins on the shared attributes, and
:meth:`Relation.join_project` fuses a join with the projection after
it; the engine tracks the size of every join so experiments can show
the blow-up that decompositions avoid.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, compress, product, repeat, starmap
from operator import add, itemgetter

from ..hypergraph.io import short_repr


__all__ = [
    "Relation",
    "join_all",
    "relation_to_payload",
    "relation_from_payload",
]

#: JSON-representable scalar types allowed in wire/file relation rows.
#: ``bool`` is excluded even though it subclasses ``int``: ``True == 1``
#: and they hash alike, so a row could silently merge with another.
_SCALARS = (str, int, float)


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


def _keys(rows, indices: Sequence[int]):
    """The join key of every row: a bare value for one key column.

    Cheaper to build and hash than :func:`_columns`' 1-tuples; both
    sides of a join have as many key columns, so their keys compare.
    """
    if not indices:
        return repeat((), len(rows))
    return map(itemgetter(*indices), rows)


def _groups(
    relation: "Relation", key_idx: Sequence[int], idx: Sequence[int],
    parts=_columns,
) -> dict:
    """Key -> the distinct ``parts(rows, idx)`` of the rows with that key:
    ``idx`` sub-tuples, or bare values with ``parts=_keys``."""
    rows = relation.tuples
    pairs = zip(_keys(rows, key_idx), parts(rows, idx))
    if len(set(key_idx).union(idx)) < len(relation.attributes):
        # Dropped columns can make pairs repeat; whole rows never do.
        pairs = set(pairs)
    groups: dict = defaultdict(list)
    for key, part in pairs:
        groups[key].append(part)
    return groups


@dataclass(frozen=True)
class Relation:
    """A named relation with a fixed attribute order."""

    name: str
    attributes: tuple[str, ...]
    tuples: frozenset

    def __post_init__(self) -> None:
        self._check_attributes()
        arity = len(self.attributes)
        if set(map(len, self.tuples)) - {arity}:
            row = next(r for r in self.tuples if len(r) != arity)
            raise ValueError(
                f"row {row} does not match attributes {self.attributes}"
            )

    def _check_attributes(self) -> None:
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError(
                f"duplicate attributes in {short_repr(self.attributes)}"
            )

    @classmethod
    def _derived(
        cls, name: str, attributes: tuple, tuples: frozenset
    ) -> "Relation":
        """A relation whose rows are known to have ``attributes``' arity
        (an operator's result over checked relations, or rows checked in
        bulk): only the attributes are checked, with no pass over rows."""
        relation = cls.__new__(cls)
        object.__setattr__(relation, "name", name)
        object.__setattr__(relation, "attributes", attributes)
        object.__setattr__(relation, "tuples", tuples)
        relation._check_attributes()
        return relation

    @classmethod
    def from_rows(
        cls, name: str, attributes: Sequence[str], rows: Iterable[Sequence]
    ) -> "Relation":
        """Build a relation from any iterable of row sequences."""
        return cls(
            name, tuple(attributes), frozenset(map(tuple, rows))
        )

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    # ------------------------------------------------------------------
    def rename(self, mapping: Mapping[str, str], name: str | None = None) -> "Relation":
        """Rename attributes (identity for unmentioned ones)."""
        attrs = tuple(mapping.get(a, a) for a in self.attributes)
        return Relation._derived(name or self.name, attrs, self.tuples)

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
        return Relation._derived(self.name, attributes, rows)

    def select_equal(self, attribute: str, value) -> "Relation":
        """σ: rows whose ``attribute`` equals ``value``."""
        i = self.attributes.index(attribute)
        return Relation._derived(
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
            rows = self.semijoin(other).tuples
            return Relation._derived(name, self.attributes, rows)
        buckets: dict = {}
        for key, tail in zip(
            _keys(other.tuples, their_idx), _columns(other.tuples, extra)
        ):
            buckets.setdefault(key, []).append(tail)
        rows = frozenset(
            row + tail
            for row, key in zip(self.tuples, _keys(self.tuples, my_idx))
            for tail in buckets.get(key, ())
        )
        attrs = self.attributes + tuple(other.attributes[i] for i in extra)
        return Relation._derived(name, attrs, rows)

    def join_project(
        self, other: "Relation", keep: Collection[str]
    ) -> tuple["Relation", int]:
        """π_keep(self ⋈ other) and |self ⋈ other|, without the join.

        The result has the attributes of ``self.join(other)`` that lie
        in ``keep``, in that order.  Each side's kept columns are
        grouped by join key and every shared key emits the product of
        its two groups; the join's size is Σ_key count_self·count_other.
        """
        my_idx, their_idx = self._key_indices(other)
        mine = [i for i, a in enumerate(self.attributes) if a in keep]
        extra = [
            i
            for i, a in enumerate(other.attributes)
            if a not in self.attributes
        ]
        theirs = [i for i in extra if other.attributes[i] in keep]
        if len(mine) + len(theirs) == len(self.attributes) + len(extra):
            # Nothing dropped: the plain join.
            joined = self.join(other)
            return joined, len(joined)
        name = f"({self.name}⋈{other.name})"
        attrs = tuple(self.attributes[i] for i in mine) + tuple(
            other.attributes[i] for i in theirs
        )
        counts = Counter(_keys(other.tuples, their_idx))
        if not theirs:
            # ``other`` only filters: semijoin, then project.
            hits = list(map(counts.get, _keys(self.tuples, my_idx), repeat(0)))
            rows = frozenset(_columns(list(compress(self.tuples, hits)), mine))
            return Relation._derived(name, attrs, rows), sum(hits)
        my_counts = Counter(_keys(self.tuples, my_idx))
        shared = my_counts.keys() & counts.keys()
        # With one kept column per side, ``product`` over bare values
        # yields the result rows as they are.
        bare = len(mine) == len(theirs) == 1
        parts = _keys if bare else _columns
        left = _groups(self, my_idx, mine, parts)
        right = _groups(other, their_idx, theirs, parts)
        pairs = (product(left[key], right[key]) for key in shared)
        if not bare:
            pairs = (starmap(add, pair) for pair in pairs)
        rows = frozenset(chain.from_iterable(pairs))
        size = sum(my_counts[key] * counts[key] for key in shared)
        return Relation._derived(name, attrs, rows), size

    def semijoin(self, other: "Relation") -> "Relation":
        """⋉: rows of self with a join partner in other."""
        my_idx, their_idx = self._key_indices(other)
        keys = set(_keys(other.tuples, their_idx))
        if keys.issuperset(_keys(self.tuples, my_idx)):
            return self
        hits = map(keys.__contains__, _keys(self.tuples, my_idx))
        rows = frozenset(compress(self.tuples, hits))
        return Relation._derived(self.name, self.attributes, rows)

    def is_empty(self) -> bool:
        """True iff the relation holds no tuples."""
        return not self.tuples


def relation_to_payload(relation: Relation) -> dict:
    """Encode a relation as the plain-JSON shape used on disk and wire.

    ``{"attributes": [...], "rows": [[...], ...]}`` with rows in
    ascending order, column by column: by value, and with numbers
    before strings in a column that holds both.  Rows are distinct, so
    the order is total and two equal relations always encode
    byte-identically, whatever order their sets iterate in.  Values are
    strings and finite numbers, as :func:`relation_from_payload` takes.
    """
    rows = relation.tuples
    kinds = set(map(type, chain.from_iterable(rows)))
    mixed = str in kinds and len(kinds) > 1 and {
        i  # the columns holding strings and numbers
        for i in range(len(relation.attributes))
        if len(set(map(str.__instancecheck__, _keys(rows, [i])))) > 1
    }
    if mixed:
        ordered = sorted(rows, key=lambda row: tuple(
            (isinstance(v, str), v) if i in mixed else v
            for i, v in enumerate(row)
        ))
    else:
        ordered = sorted(rows)
    return {
        "attributes": list(relation.attributes),
        "rows": list(map(list, ordered)),
    }


def relation_from_payload(name: str, obj) -> Relation:
    """Decode ``{"attributes", "rows"}`` into a :class:`Relation`.

    Raises ``ValueError`` on any malformed shape: missing keys, rows of
    the wrong arity, or values other than strings and finite non-bool
    numbers (nested lists would not survive the hash-join key paths,
    ``true`` would merge with ``1``, and ``NaN`` is not JSON).
    """
    if not isinstance(obj, dict):
        raise ValueError(f"relation {short_repr(name)} must be a JSON object")
    unknown = set(obj) - {"attributes", "rows"}
    if unknown:
        raise ValueError(
            f"relation {short_repr(name)} has unknown keys "
            f"{short_repr(sorted(unknown))}; valid keys: attributes, rows"
        )
    attributes = obj.get("attributes")
    if not isinstance(attributes, (list, tuple)) or not all(
        isinstance(a, str) for a in attributes
    ):
        raise ValueError(
            f"relation {short_repr(name)} needs an 'attributes' list of "
            "strings"
        )
    rows = obj.get("rows", [])
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"relation {short_repr(name)} needs a 'rows' list")
    # Whole-list passes in C; the row loop runs only to name a bad row.
    arity = len(attributes)
    if set(map(type, rows)) - {list, tuple} or set(map(len, rows)) - {arity}:
        _check_rows(name, rows, arity)
    values = list(chain.from_iterable(rows))
    kinds = set(map(type, values))
    if kinds - set(_SCALARS) or float in kinds and not all(
        map(math.isfinite, filter(float.__instancecheck__, values))
    ):
        _check_rows(name, rows, arity)
    try:
        return Relation._derived(
            name, tuple(attributes), frozenset(map(tuple, rows))
        )
    except ValueError as exc:
        raise ValueError(f"relation {short_repr(name)}: {exc}") from exc


def _check_rows(name: str, rows: Sequence, arity: int) -> None:
    """Raise ``ValueError`` naming the first row that is not a list of
    ``arity`` strings and finite non-bool numbers.

    Row by row, so only for rows the bulk checks of
    :func:`relation_from_payload` did not pass.
    """
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise ValueError(
                f"relation {short_repr(name)} row {i} must be a list"
            )
        if len(row) != arity:
            raise ValueError(
                f"relation {short_repr(name)} row {i} has {len(row)} "
                f"values but {arity} attributes"
            )
        for value in row:
            if isinstance(value, bool) or not isinstance(value, _SCALARS):
                raise ValueError(
                    f"relation {short_repr(name)} row {i} holds non-scalar "
                    f"value {short_repr(value)}"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(
                    f"relation {short_repr(name)} row {i} holds non-finite "
                    f"number {value!r}"
                )


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
