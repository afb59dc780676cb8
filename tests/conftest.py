import pytest

from pairpath.blowup import build
from pairpath.graph import generate


@pytest.fixture(scope="session")
def c4():
    return generate("cycle", (4,))


@pytest.fixture(scope="session")
def q3():
    return generate("hypercube", (3,))


@pytest.fixture(scope="session")
def petersen():
    return generate("petersen")


@pytest.fixture(scope="session")
def blown2():
    return build(2)


@pytest.fixture(scope="session")
def blown3():
    return build(3)
