from pathlib import Path

import pytest

import instances


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return instances.FIXTURE_DIR


@pytest.fixture(scope="session")
def t1():
    return instances.worked_example("walkthrough")


@pytest.fixture(scope="session")
def ex1():
    return instances.worked_example("manipulation")


@pytest.fixture(scope="session")
def impossibility_family():
    return {k: instances.worked_example(f"impossibility_i{k}") for k in (1, 2, 3, 4)}


@pytest.fixture(scope="session")
def fleet():
    """The 50 small deterministic instances used by the sweep tests."""
    return instances.fixture_instances(50)


@pytest.fixture(scope="session")
def worked_examples():
    return instances.worked_examples()
