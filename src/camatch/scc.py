"""Strongly connected components, shared by the verifier and gsdt.

Callers number their nodes 0..n-1 in the order they want them compared and
pass int adjacency lists, so one iterative Tarjan (SIAM J. Comput. 1972)
keeps ``index``, ``low``, the stack positions and the successor iterators in
plain arrays, and a tree arc costs one append to the DFS path of nodes.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


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
    index, low, stack_pos, outs = fresh, fresh.copy(), fresh.copy(), fresh.copy()  # -1: unset
    stack: list[int] = []
    components: list[list[int]] = []
    visits = 0
    for root in nodes:
        if index[root] >= 0:
            continue
        path = [root]
        while path:
            node = path[-1]
            if index[node] < 0:  # first visit
                index[node] = low[node] = visits
                visits += 1
                stack_pos[node] = len(stack)
                stack.append(node)
                outs[node] = iter(succ[node])
            node_low = low[node]
            for nxt in outs[node]:
                if index[nxt] < 0:
                    low[node] = node_low
                    path.append(nxt)
                    break
                if stack_pos[nxt] >= 0 and index[nxt] < node_low:
                    node_low = index[nxt]
            else:
                path.pop()
                if node_low == index[node]:
                    components.append(stack[stack_pos[node]:])
                    del stack[stack_pos[node]:]
                    for member in components[-1]:
                        stack_pos[member] = -1
                elif node_low < low[path[-1]]:  # a non-root has a parent
                    low[path[-1]] = node_low
    return components
