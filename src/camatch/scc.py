"""Strongly connected components, shared by the verifier and gsdt."""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence


def strongly_connected_components(
    nodes: Iterable[Hashable], succ: Mapping[Hashable, Sequence[Hashable]]
) -> list[list[Hashable]]:
    """Iterative Tarjan; ``succ`` maps every node to its successor list.

    A component completes only after everything it can reach, so components
    come back in completion order, which is sinks first. Roots are taken in
    node order and successors in list order, so the result is deterministic.
    """
    index: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    stack: list[Hashable] = []
    stack_pos: dict[Hashable, int] = {}  # exactly the nodes on the stack
    components: list[list[Hashable]] = []
    for root in nodes:
        if root in index:
            continue
        work: list[tuple[Hashable, int]] = [(root, 0)]
        while work:
            node, ei = work.pop()
            if ei == 0:
                index[node] = low[node] = len(index)
                stack_pos[node] = len(stack)
                stack.append(node)
            outs = succ[node]
            for k in range(ei, len(outs)):
                nxt = outs[k]
                if nxt not in index:
                    work.append((node, k + 1))
                    work.append((nxt, 0))
                    break
                if nxt in stack_pos:
                    low[node] = min(low[node], index[nxt])
            else:
                if low[node] == index[node]:
                    comp = stack[stack_pos[node]:]
                    del stack[stack_pos[node]:]
                    for member in comp:
                        del stack_pos[member]
                    components.append(comp)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return components
