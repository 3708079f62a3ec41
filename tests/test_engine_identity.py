"""Golden pins of the exact searches: states explored and witness digests.

Every search below runs on an instance whose vertices are ints.  Ints
hash to themselves under every ``PYTHONHASHSEED``, so vertex iteration
order (and with it the component order of the search) is the same in
every process; edge names are strings, but the engine orders them by
sort, and the witness JSON is dumped with sorted keys.  A change that
moves any number here changed what the engine explores or returns, not
just how fast it does so.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest

from repro.algorithms import HDSearch, StrictFHDSearch, augmented_hypergraph
from repro.algorithms.approx import _FracDecompSearch
from repro.algorithms.subedges import fhd_subedges
from repro.hypergraph import Hypergraph, degree
from repro.hypergraph.generators import (
    clique,
    cycle,
    grid,
    random_csp_hypergraph,
    triangle_cascade,
)


def _ints(h: Hypergraph) -> Hypergraph:
    """``h`` with its vertices renamed 0, 1, ... in ``str`` order."""
    index = {v: i for i, v in enumerate(sorted(h.vertices, key=str))}
    return Hypergraph({n: [index[v] for v in vs] for n, vs in h.edges.items()})


INSTANCES = {
    "C6": lambda: _ints(cycle(6)),
    "C7": lambda: _ints(cycle(7)),
    "K4": lambda: _ints(clique(4)),
    "K5": lambda: _ints(clique(5)),
    "grid33": lambda: _ints(grid(3, 3)),
    "tri3": lambda: _ints(triangle_cascade(3)),
    "csp": lambda: _ints(
        random_csp_hypergraph(8, 10, arity=3, rng=random.Random(1))
    ),
}


def _digest(witness) -> str | None:
    if witness is None:
        return None
    encoded = json.dumps(witness.as_dict(), sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


def _hd(h, k):
    search = HDSearch(h, k)
    witness = search.run()
    return search.states_explored, witness


def _ghd(h, k):
    return _hd(augmented_hypergraph(h, k), k)


def _fhd(h, k):
    d = degree(h)
    augmented = h.with_edges(fhd_subedges(h, int(math.ceil(k)), d=d))
    search = StrictFHDSearch(augmented, k, max_support=k * d)
    witness = search.run()
    return search.states_explored, witness


def _frac(h, k):
    search = _FracDecompSearch(h, k, eps=0.5, c=3)
    witness = search.run()
    return len(search._memo), witness


RUNNERS = {"hd": _hd, "ghd": _ghd, "fhd": _fhd, "frac": _frac}

#: (search, instance, k, states explored, witness digest or None).
GOLDEN = [
    ("hd", "C7", 1, 8, None),
    ("hd", "C7", 2, 4, "4f426cb9b5b6546a"),
    ("hd", "grid33", 2, 8, "709e48b371557239"),
    ("hd", "tri3", 2, 6, "2d3e8b3721f91b3b"),
    ("hd", "csp", 2, 47, None),
    ("hd", "csp", 3, 5, "5fc6d1fa3a910d7c"),
    ("ghd", "K5", 2, 31, None),
    ("ghd", "K5", 3, 4, "e5dde20aada827f5"),
    ("ghd", "csp", 2, 153, None),
    ("ghd", "grid33", 2, 8, "709e48b371557239"),
    ("fhd", "C6", 1, 25, None),
    ("fhd", "C6", 2, 4, "06178ca019d47ce6"),
    ("fhd", "K4", 2, 3, "2bb238a7aef20501"),
    ("fhd", "tri3", 2, 6, "2d3e8b3721f91b3b"),
    ("frac", "C6", 1.0, 19, None),
    ("frac", "C6", 1.5, 3, "88022615724ab9a4"),
    ("frac", "K4", 1.5, 2, "2651b7d32aa2d9de"),
    ("frac", "tri3", 1.5, 4, "4b056ee9c206d763"),
]


@pytest.mark.parametrize(
    "search,instance,k,states,digest",
    GOLDEN,
    ids=[f"{s}-{i}-k{k}" for s, i, k, _, _ in GOLDEN],
)
def test_search_matches_golden(search, instance, k, states, digest):
    explored, witness = RUNNERS[search](INSTANCES[instance](), k)
    assert (explored, _digest(witness)) == (states, digest)
