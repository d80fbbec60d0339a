"""Built-in benchmark instances.

The named ones are small hand-checkable instances the golden tests pin down;
the generated fleets are deterministic seeds for sweep-style verification at
desk scale.
"""

from __future__ import annotations

from .instance import Instance, generate_random_instance


def walkthrough_instance() -> Instance:
    """Three applicants, three courses, ties in every list; the instance the
    stage-trace golden test walks through."""
    return Instance.build(
        courses=[("c1", 2), ("c2", 1), ("c3", 1)],
        applicants=[
            ("a1", 2, [["c1", "c2"], ["c3"]]),
            ("a2", 3, [["c2"], ["c1", "c3"]]),
            ("a3", 2, [["c3"], ["c2"], ["c1"]]),
        ],
    )


def manipulation_instance() -> Instance:
    """Two applicants; a1 wants two seats and prefers c2, a2 only takes c1.
    Serving a1-a2-a1 punishes a1 for honesty, the classic manipulation case."""
    return Instance.build(
        courses=[("c1", 1), ("c2", 1)],
        applicants=[
            ("a1", 2, [["c2"], ["c1"]]),
            ("a2", 1, [["c1"]]),
        ],
    )


def impossibility_instance(variant: int) -> Instance:
    """The four 2x2 strict instances of the no-truthful-selector argument.

    All share quotas b(a1)=2, b(a2)=1, q(c1)=q(c2)=1 and differ only in the
    declared lists.
    """
    lists = {
        1: ([["c1"], ["c2"]], [["c1"], ["c2"]]),
        2: ([["c1"], ["c2"]], [["c1"]]),
        3: ([["c2"], ["c1"]], [["c1"]]),
        4: ([["c2"], ["c1"]], [["c1"], ["c2"]]),
    }
    a1_prefs, a2_prefs = lists[variant]
    return Instance.build(
        courses=[("c1", 1), ("c2", 1)],
        applicants=[("a1", 2, a1_prefs), ("a2", 1, a2_prefs)],
    )


WORKED_EXAMPLES = {
    "walkthrough": walkthrough_instance,
    "manipulation": manipulation_instance,
    "impossibility_i1": lambda: impossibility_instance(1),
    "impossibility_i2": lambda: impossibility_instance(2),
    "impossibility_i3": lambda: impossibility_instance(3),
    "impossibility_i4": lambda: impossibility_instance(4),
}


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
