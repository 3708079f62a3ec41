"""Conjunctive queries and their hypergraphs (Section 1).

A CQ ``ans(x, y) :- r(x, z), s(z, y)`` consists of atoms over variables;
its hypergraph has the variables as vertices and one edge per atom —
exactly the translation the paper describes.  CSPs share the same shape
(Section 1: "Formally, CQs and CSPs are the same problem").

Atom positions may also hold :class:`Const` terms — ``r(x, 3)`` or
``r(x, 'iron')`` — which select on the relation before it enters the
join; constants never become hypergraph vertices, so they only ever
shrink the query hypergraph.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from ..hypergraph import Hypergraph
from ..hypergraph.io import short_repr

__all__ = ["Atom", "Const", "ConjunctiveQuery", "parse_cq"]


@dataclass(frozen=True)
class Const:
    """A constant term in an atom position.

    ``value`` is a plain hashable scalar (int or str in the text
    syntax).  In query text, integers are written bare (``r(x, 3)``)
    and strings single- or double-quoted (``r(x, 'iron')``).  A string
    constant may contain commas and whitespace but not its own
    delimiter quote — there is no escape syntax, so the formatter
    picks whichever quote character the value does not contain (a
    value holding *both* kinds can only be built programmatically and
    has no text form).
    """

    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            quote = '"' if "'" in self.value else "'"
            return quote + self.value + quote
        return str(self.value)


@dataclass(frozen=True)
class Atom:
    """One query atom: a relation name and a term tuple.

    Terms are variable names (strings) or :class:`Const` values.
    Repeated variables within an atom are allowed (they express equality
    selections); constants express selections on the relation.  At least
    one term must be a variable — an all-constant atom is a membership
    test the relational layer cannot host on any bag.
    """

    relation: str
    variables: tuple

    def __post_init__(self) -> None:
        for term in self.variables:
            if not isinstance(term, (str, Const)):
                raise ValueError(
                    f"atom {self.relation} has a term {term!r} that is "
                    "neither a variable name nor a Const"
                )
        if not self.variable_names:
            raise ValueError(f"atom {self.relation} has no variables")

    @property
    def variable_names(self) -> tuple:
        """The distinct variable names, in first-occurrence order."""
        seen = []
        for term in self.variables:
            if isinstance(term, str) and term not in seen:
                seen.append(term)
        return tuple(seen)

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(map(str, self.variables))})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query: head variables + body atoms.

    An empty head makes the query Boolean.  Head terms must be distinct
    variables that occur in the body (safety); constants belong in the
    body, not the head.
    """

    head: tuple
    atoms: tuple
    name: str = "q"

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("query must have at least one atom")
        non_vars = [v for v in self.head if not isinstance(v, str)]
        if non_vars:
            raise ValueError(
                f"head terms must be variables, not {non_vars}"
            )
        if len(set(self.head)) != len(self.head):
            duplicated = sorted(
                {v for v in self.head if self.head.count(v) > 1}
            )
            raise ValueError(f"duplicate head variables: {duplicated}")
        body_vars = self.variables
        unsafe = [v for v in self.head if v not in body_vars]
        if unsafe:
            raise ValueError(f"unsafe head variables: {unsafe}")

    @property
    def variables(self) -> frozenset:
        """All variable names occurring in the body (constants excluded)."""
        out: set[str] = set()
        for atom in self.atoms:
            out.update(atom.variable_names)
        return frozenset(out)

    @property
    def is_boolean(self) -> bool:
        """True iff the head is empty (a yes/no query)."""
        return not self.head

    def hypergraph(self) -> Hypergraph:
        """The query hypergraph: variables as vertices, atom scopes as edges.

        Atom occurrences are disambiguated by position (``#i`` suffix), so
        self-joins yield distinct edges as the paper requires ("for every
        atom in Q, E(H) contains a hyperedge").  Constants contribute no
        vertices — only the variables of an atom form its edge.  Built
        once per query (both are immutable), so its canonical hash is
        computed once too.
        """
        return self._hypergraph

    @cached_property
    def _hypergraph(self) -> Hypergraph:
        edges = {
            f"{atom.relation}#{i}": frozenset(atom.variable_names)
            for i, atom in enumerate(self.atoms)
        }
        return Hypergraph(edges, name=self.name)

    def atom_for_edge(self, edge_name: str) -> Atom:
        """The atom corresponding to a query-hypergraph edge name."""
        index = int(edge_name.rsplit("#", 1)[1])
        return self.atoms[index]

    def __str__(self) -> str:
        head = f"{self.name}({', '.join(self.head)})"
        return f"{head} :- {', '.join(map(str, self.atoms))}."


_ATOM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)")
# _ATOM_RE tried only where a run of word characters starts, past the
# run's leading digits.  A try from inside a run ends where the run ends,
# so it succeeds exactly when the try from the run's first letter does:
# this finds the same atoms, but in linear time, where ``finditer`` over
# _ATOM_RE rescans the rest of a long run from each of its positions.
_BODY_ATOM_RE = re.compile(r"(?<![A-Za-z0-9_])[0-9]*" + _ATOM_RE.pattern)
_VARIABLE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?[0-9]+")
_GAP_RE = re.compile(r"\s*,\s*")


def _split_terms(text: str, context: str) -> list:
    """Split an argument list on commas *outside* quotes.

    A bare ``str.split(",")`` would cut the string constant ``'a,b'``
    in half and then fail with a baffling "cannot parse term" message;
    here a comma inside a quoted string belongs to the string.  There
    is no escape syntax — an unbalanced quote is a loud error, not a
    truncated constant.
    """
    if "'" not in text and '"' not in text:
        return text.split(",")  # what the loop below does without quotes
    parts: list[str] = []
    buffer: list[str] = []
    quote = None
    for ch in text:
        if quote is not None:
            buffer.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            buffer.append(ch)
        elif ch == ",":
            parts.append("".join(buffer))
            buffer = []
        else:
            buffer.append(ch)
    if quote is not None:
        raise ValueError(
            f"unbalanced {quote} quote in {context}"
        )
    parts.append("".join(buffer))
    return parts


def _parse_term(raw: str, context: str):
    """One atom position: a variable name, an integer, or a quoted string."""
    term = raw.strip()
    if not term:
        raise ValueError(f"empty term in {context} (stray comma?)")
    if _VARIABLE_RE.fullmatch(term):
        return term
    if _INT_RE.fullmatch(term):
        return Const(int(term))
    if term[0] in "'\"":
        if (
            len(term) >= 2
            and term[-1] == term[0]
            and term[0] not in term[1:-1]
        ):
            return Const(term[1:-1])
        raise ValueError(
            f"cannot parse term {short_repr(term)} in {context}: string "
            "constants are quote-delimited and cannot contain their own "
            "quote character (no escape syntax)"
        )
    raise ValueError(
        f"cannot parse term {short_repr(term)} in {context}: expected a "
        "variable name, an integer, or a quoted string"
    )


def _parse_atoms(body_text: str) -> tuple:
    """All atoms of a query body, refusing any unparsed leftovers.

    ``finditer`` alone would silently skip malformed fragments (a bug
    this parser shipped with: ``q(x) :- r(x), s(y`` used to drop the
    dangling ``s(y`` and answer the wrong query).  Every character
    outside a matched atom must therefore be accounted for exactly:
    whitespace before the first atom and after the last, and a single
    comma (with optional whitespace) between consecutive atoms —
    ``r(x),, s(x)``, a leading comma and a trailing comma are all
    errors, never noise.
    """
    atoms = []
    cursor = 0
    for match in _BODY_ATOM_RE.finditer(body_text):
        gap = body_text[cursor:match.start(1)]
        if not atoms:
            if gap.strip():
                raise ValueError(
                    f"cannot parse {short_repr(gap.strip())} in the query "
                    "body"
                )
        elif _GAP_RE.fullmatch(gap) is None:
            raise ValueError(
                "expected a single comma between atoms, got "
                f"{short_repr(gap.strip() or gap)}"
            )
        context = f"atom {match.group(1)}"
        terms = tuple(
            _parse_term(raw, context)
            for raw in _split_terms(match.group(2), context)
        ) if match.group(2).strip() else ()
        atoms.append(Atom(match.group(1), terms))
        cursor = match.end()
    tail = body_text[cursor:]
    if tail.strip():
        raise ValueError(
            f"cannot parse {short_repr(tail.strip())} in the query body"
        )
    return tuple(atoms)


def parse_cq(text: str) -> ConjunctiveQuery:
    """Parse ``name(x, y) :- r(x, z), s(z, y).`` into a query.

    The head is everything before ``:-``; a missing head (text starting
    with ``:-``) gives a Boolean query.  Body positions accept variables,
    bare integers and quoted strings (constants; commas inside quotes
    belong to the string, but a string cannot contain its own quote
    character — there is no escape syntax).  Raises ``ValueError`` with
    a pointed message on any malformed input — unparseable fragments,
    doubled/leading/trailing commas and unbalanced quotes are errors,
    never silently dropped.
    """
    text = text.strip()
    if text.endswith("."):
        text = text[:-1].rstrip()
    if ":-" not in text:
        raise ValueError("expected ':-' separating head and body")
    head_text, body_text = text.split(":-", 1)
    head_text = head_text.strip()
    name, head_vars = "q", ()
    if head_text:
        match = _ATOM_RE.fullmatch(head_text)
        if not match:
            raise ValueError(f"cannot parse head {short_repr(head_text)}")
        name = match.group(1)
        head_vars = tuple(
            _parse_term(raw, "the head")
            for raw in _split_terms(match.group(2), "the head")
        ) if match.group(2).strip() else ()
    atoms = _parse_atoms(body_text)
    if not atoms:
        raise ValueError("query body has no atoms")
    return ConjunctiveQuery(tuple(head_vars), atoms, name=name)
