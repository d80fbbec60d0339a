"""Test inputs: the worked examples, read from ``fixtures/*.txt`` (their only
copy), the deterministic fleets the sweep tests run over, the instance
and ordering helpers only tests use, ``probes``, which expands a GSDT
stage's compact record entry into one (tie, path) record per probe,
``completed``, which builds every list of an envy graph,
``reference_pair_priority_order``, the all-pairs construction of the order
``envy._pair_priority_order`` reads off a verdict's kept graph, and
``correlated_instance``, where applicants agree on which courses are popular."""

import dataclasses
import itertools
import random
from pathlib import Path
from typing import Iterator, NamedTuple

from camatch import Instance, generate_random_instance, parse_instance
from camatch import gsdt
from camatch.envy import EnvyGraph
from camatch.gsdt import Entry, FlowNetwork
from camatch.scc import strongly_connected_components

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures"


def worked_example(name: str) -> Instance:
    """A fresh parse of ``fixtures/<name>.txt``: ``walkthrough`` (three
    applicants, ties in every list), ``manipulation`` (a1-a2-a1 punishes a1
    for honesty) or ``impossibility_i1`` .. ``impossibility_i4``."""
    return parse_instance((FIXTURE_DIR / f"{name}.txt").read_text())


def worked_examples() -> dict[str, Instance]:
    """Every shipped fixture, keyed by file stem."""
    return {path.stem: worked_example(path.stem) for path in sorted(FIXTURE_DIR.glob("*.txt"))}


def fixture_instances(count: int = 50) -> list[Instance]:
    """Deterministic fleet of small instances with total quota at most 6.

    Alternates quota-1 and quota-2 applicants so both the general and the
    unit-quota sweeps get coverage; sizes cycle through 1..3 applicants and
    courses, tie densities through 0, 0.25, 0.5, 0.75.
    """
    fleet: list[Instance] = []
    for k in range(count):
        n1 = 1 + k % 3
        n2 = 1 + (k // 3) % 3
        max_b = 1 if k % 2 == 0 else 2
        density = (k % 4) * 0.25
        attempt = 0
        while (inst := generate_random_instance(
                n1, n2, max_b, 2, density, seed=1000 + 37 * k + attempt)).total_quota() > 6:
            attempt += 1
        fleet.append(inst)
    return fleet


def correlated_instance(n1: int, n2: int, max_b: int, max_q: int,
                        tie_density: float, seed: int) -> Instance:
    """A random instance whose preferences follow one popularity score per
    course, deterministically for a fixed seed. One ``random.Random(seed)``
    draws, in this order: each course's capacity ``1 + randrange(max_q)``,
    in id order; each course's score ``random()``, in id order; then per
    applicant, in id order, her quota ``1 + randrange(max_b)``, one
    ``random() < 0.5`` per course in id order for acceptability, one noise
    ``random()`` per acceptable course in id order, and, walking her courses
    by score + 0.3 * noise descending, one ``random() < tie_density`` per
    course after the first, which joins it to the previous tie when true."""
    rng = random.Random(seed)
    course_ids = [f"c{j}" for j in range(1, n2 + 1)]
    courses = [(c, 1 + rng.randrange(max_q)) for c in course_ids]
    score = {c: rng.random() for c in course_ids}
    applicants = []
    for i in range(1, n1 + 1):
        b = 1 + rng.randrange(max_b)
        acceptable = [c for c in course_ids if rng.random() < 0.5]
        key = {c: score[c] + 0.3 * rng.random() for c in acceptable}
        ties: list[list[str]] = []
        for c in sorted(acceptable, key=key.__getitem__, reverse=True):
            if ties and rng.random() < tie_density:
                ties[-1].append(c)
            else:
                ties.append([c])
        applicants.append((f"a{i}", b, ties))
    return Instance.build(courses, applicants)


def random_small_instances(count: int = 200) -> list[Instance]:
    """Deterministic fleet with up to 3 applicants/courses and quotas <= 2,
    no bound on total quota; meant for exhaustive-agreement sweeps."""
    return [
        generate_random_instance(
            1 + i % 3,
            1 + (i // 3) % 3,
            2,
            2,
            (i % 4) * 0.3,
            seed=5000 + i,
        )
        for i in range(count)
    ]


def with_quotas(instance: Instance, quota: dict[str, int]) -> Instance:
    """Same instance, different applicant quotas (0 allowed, for stage-restricted instances)."""
    return dataclasses.replace(instance, quota=dict(quota))


def consecutive_orderings(instance: Instance) -> Iterator[tuple[str, ...]]:
    """All orderings in which each applicant's copies are adjacent."""
    for perm in itertools.permutations(instance.applicants):
        out: list[str] = []
        for a in perm:
            out.extend([a] * instance.quota[a])
        yield tuple(out)


def capacity_history(instance: Instance, ordering) -> tuple[tuple[int, ...], ...]:
    """The source-arc capacities of a run before its first stage and after
    each one, in applicant order, read off a network served stage by stage."""
    net = FlowNetwork(instance)
    history = [tuple(net.cap_src.values())]
    for a in ordering:
        gsdt._stage(net, a)
        history.append(tuple(net.cap_src.values()))
    return tuple(history)


class ProbeRecord(NamedTuple):
    """One probe of a stage: the tie probed, and its path or ``None``."""

    tie: int
    path: tuple | None


def probes(entry: Entry) -> tuple[ProbeRecord, ...]:
    """A compact stage entry, (first tie probed, tie reached, path or
    ``None``), expanded into its probes: the ties from the first probed to
    the one reached failed, and a path succeeded at the latter. An entry
    (first, first, ``None``) has none."""
    first, t, path = entry
    failed = tuple(ProbeRecord(s, None) for s in range(first, t))
    return failed if path is None else (*failed, ProbeRecord(t, path))


def completed(graph: EnvyGraph) -> tuple[list, list]:
    """The graph's stored lists and strict sets, ``(out, strict)``, indexed
    like ``graph._out`` and ``graph._strict``, once every unbuilt slot is
    built through ``graph._build``."""
    graph._build([k for k, built in enumerate(graph._out) if built is None])
    return graph._out, graph._strict


def reference_pair_priority_order(instance: Instance, matching) -> list[tuple[str, str]]:
    """All-pairs construction: an arc from ac to every other pair a'c' whose
    course a weakly prefers to c, where a' is a herself or c' is a course
    she finds acceptable and does not hold; the strongly connected
    components, sinks first, each sorted. Reads no envy graph, so it takes
    dominated matchings too."""
    pairs = matching.canonical_pairs()
    adj = {p: [] for p in pairs}
    for a, c in pairs:
        own_tie = instance.tie_of(a, c)
        held = matching.of_applicant(a)
        for a2, c2 in pairs:
            if (a2, c2) == (a, c):
                continue
            if a2 != a and (c2 in held or c2 not in instance.acceptable(a)):
                continue
            if instance.tie_of(a, c2) <= own_tie:
                adj[(a, c)].append((a2, c2))
    number = {p: i for i, p in enumerate(pairs)}
    succ = [[number[q] for q in adj[p]] for p in pairs]
    components = strongly_connected_components(succ)
    return [p for comp in components for p in sorted(pairs[i] for i in comp)]
