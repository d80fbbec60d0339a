"""Strongly connected components, for envy's verifier and pair order.

Nodes are ints ``0..n-1``, numbered in the order callers want them compared,
so one iterative Tarjan (SIAM J. Comput. 1972) keeps its state in plain arrays
and a tree arc costs one append to the DFS path of nodes.
"""

from __future__ import annotations

from typing import Sequence


def strongly_connected_components(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan; ``succ[v]`` is the successor list of node ``v``.

    A component completes only after everything it can reach, so components
    come back in completion order, sinks first. Roots are tried in ascending
    order and successors in list order, so the result is deterministic. A
    root with an empty list closes at once, as its own component, with no
    DFS frame; off the stack, its index only marks it visited.
    """
    index, low, stack_pos, outs = ([-1] * len(succ) for _ in range(4))  # -1: unset
    stack: list[int] = []
    components: list[list[int]] = []
    visits = 0
    for root in range(len(succ)):
        if index[root] >= 0:
            continue
        if not succ[root]:  # a lone root
            index[root] = 0
            components.append([root])
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
