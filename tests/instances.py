"""Test inputs: the worked examples, read from ``fixtures/*.txt`` (their only
copy), the deterministic fleets the sweep tests run over, and the instance
and ordering helpers only tests use."""

import dataclasses
import itertools
from pathlib import Path
from typing import Iterator

from camatch import Instance, generate_random_instance, parse_instance

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
