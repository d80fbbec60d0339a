"""Strongly connected components, shared by the verifier and gsdt.

Callers number their nodes 0..n-1 in the order they want them compared and
pass int adjacency lists, so one iterative Tarjan (SIAM J. Comput. 1972)
keeps ``index``, ``low`` and the stack positions in plain arrays.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence


def strongly_connected_components(
    nodes: Iterable[int], succ: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Iterative Tarjan; ``succ[v]`` is the successor list of node ``v``.

    Nodes are ints ``0..len(succ)-1``; ``nodes`` gives the roots in the order
    to try them. A mapping from other hashable nodes also works, with dicts
    in place of the arrays.

    A component completes only after everything it can reach, so components
    come back in completion order, which is sinks first. Roots are taken in
    node order and successors in list order, so the result is deterministic.
    """
    fresh = dict.fromkeys(succ, -1) if isinstance(succ, Mapping) else [-1] * len(succ)
    index, low, stack_pos = fresh, fresh.copy(), fresh.copy()  # -1: unset
    stack: list[int] = []
    components: list[list[int]] = []
    visits = itertools.count()
    for root in nodes:
        if index[root] >= 0:
            continue
        work: list[tuple[int, Iterator[int] | None]] = [(root, None)]
        while work:
            node, outs = work.pop()
            if outs is None:  # first visit
                index[node] = low[node] = next(visits)
                stack_pos[node] = len(stack)
                stack.append(node)
                outs = iter(succ[node])
            for nxt in outs:
                if index[nxt] < 0:
                    work += [(node, outs), (nxt, None)]
                    break
                if stack_pos[nxt] >= 0 and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                if low[node] == index[node]:
                    comp = stack[stack_pos[node]:]
                    del stack[stack_pos[node]:]
                    for member in comp:
                        stack_pos[member] = -1
                    components.append(comp)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return components
