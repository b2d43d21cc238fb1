"""Answer checks that do not trust the program under test.

* :func:`nx_answer` recomputes ``D_q`` with networkx's VF2 matcher: a
  label-matching subgraph *monomorphism* search over the live graphs.
* :func:`property_errors` checks what every answer must satisfy, cheaply
  enough to run on every query.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher


def _same_label(a: dict, b: dict) -> bool:
    return a["l"] == b["l"]


def to_nx(graph) -> nx.Graph:
    """A networkx copy of a ``LabeledGraph`` with labels under ``"l"``."""
    out = nx.Graph()
    for v in graph.vertices():
        out.add_node(v, l=graph.vertex_label(v))
    for u, v, label in graph.edges():
        out.add_edge(u, v, l=label)
    return out


def nx_answer(query, live: Dict[int, nx.Graph]) -> FrozenSet[int]:
    """Ids of the live graphs that contain ``query`` (VF2 monomorphism)."""
    pattern = to_nx(query)
    return frozenset(
        gid
        for gid, host in live.items()
        if GraphMatcher(
            host, pattern, node_match=_same_label, edge_match=_same_label
        ).subgraph_is_monomorphic()
    )


def property_errors(
    result,
    live_ids: FrozenSet[int],
    host: Optional[int],
    dead_ids: Iterable[int] = (),
) -> List[str]:
    """Violations of the answer properties for one query result.

    ``host`` is the live id of the graph the query was cut from, or None
    when that graph is not live; ``dead_ids`` are ids deleted earlier.
    """
    errors = []
    matches = result.matches
    if not result.complete:
        errors.append("answer is not complete")
    if not matches <= live_ids:
        errors.append(f"answer holds non-live ids {sorted(matches - live_ids)[:5]}")
    if host is not None and host not in matches:
        errors.append(f"answer misses host graph {host}")
    dead = matches.intersection(dead_ids)
    if dead:
        errors.append(f"answer holds deleted ids {sorted(dead)[:5]}")
    return errors
