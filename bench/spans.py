"""Spans recorded from outside camatch, and the self-time arithmetic.

The tracer replaces public functions of camatch's modules with timing
wrappers, at the name each caller looks up (module globals, or the class
attribute for methods), and puts the originals back afterwards. Nothing
under ``src/`` is edited. Spans stay in memory as plain tuples until the run
ends.
"""

from __future__ import annotations

import importlib
import time

# Span tuple fields.
NAME, START, END, PARENT, OP, ATTR = range(6)


def _policy_kind(args, kwargs):
    policy = kwargs.get("policy", args[2] if len(args) > 2 else None)
    return "canonical" if policy is None or not hasattr(policy, "target") else "guided"


def _gsdt_attr(args, kwargs, result):
    return (_policy_kind(args, kwargs), result.searches, sum(result.arc_visits))


# (span name, module, attribute path, callers' modules that hold their own
# reference, attribute extractor run on (args, kwargs, result)).
TARGETS = (
    ("instance.parse_instance", "camatch.instance", "parse_instance", (), None),
    ("instance.parse_ordering", "camatch.instance", "parse_ordering", (), None),
    ("instance.parse_matching_pairs", "camatch.instance", "parse_matching_pairs", (), None),
    ("matching.is_feasible", "camatch.matching", "is_feasible", (), None),
    ("matching.satisfy_coalition", "camatch.envy", "satisfy_coalition", (), None),
    ("envy.is_pareto_optimal", "camatch.envy", "is_pareto_optimal", (),
     lambda a, k, r: len(r.coalition.applicants) if r.coalition is not None else 0),
    ("envy.build_envy_graph", "camatch.envy", "build_envy_graph", (),
     lambda a, k, r: (len(r.nodes), len(r.arcs))),
    ("envy.find_negative_cycle", "camatch.envy", "find_negative_cycle", (),
     lambda a, k, r: len(r.nodes) if r is not None else 0),
    ("envy.extract_improving_coalition", "camatch.envy", "extract_improving_coalition", (), None),
    ("gsdt.run_gsdt", "camatch.gsdt", "run_gsdt", ("camatch.oracle",), _gsdt_attr),
    ("gsdt.find_augmenting_path", "camatch.gsdt", "find_augmenting_path", (),
     lambda a, k, r: r is not None),
    ("gsdt.check", "camatch.gsdt", "FlowNetwork.check", (), None),
    ("gsdt.derive_ordering", "camatch.gsdt", "derive_ordering", (), None),
    ("oracle.find_beneficial_misreport", "camatch.oracle", "find_beneficial_misreport", (),
     lambda a, k, r: r.examined),
)


class Tracer:
    """Records spans of the wrapped functions while installed.

    Each span is ``(name, start, end, parent index, op id, attribute)``;
    the parent is the innermost span open when the call began, -1 for a
    span with no traced caller.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, attr=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, None)
            if attr is not None:
                try:
                    value = attr(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    # The function's result changed shape; keep the span and
                    # let the operation's own output check judge the result.
                    value = None
                spans[idx] = (name, start, end, parent, self.op, value)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        self.missing = []
        for name, modname, path, callers, attr in TARGETS:
            owner = importlib.import_module(modname)
            *outer, leaf = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.span(name, original, attr)
            holders = [owner] + [
                m for m in map(importlib.import_module, callers)
                if getattr(m, leaf, None) is original
            ]
            for holder in holders:
                self._saved.append((holder, leaf, original))
                setattr(holder, leaf, wrapped)

    def uninstall(self) -> None:
        for holder, leaf, original in reversed(self._saved):
            setattr(holder, leaf, original)
        self._saved.clear()


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp[PARENT] >= 0:
            children.setdefault(sp[PARENT], []).append((sp[START], sp[END]))
    return [
        (sp[END] - sp[START])
        - union_length(children.get(i, ()), sp[START], sp[END])
        for i, sp in enumerate(spans)
    ]
