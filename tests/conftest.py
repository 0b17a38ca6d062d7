import pytest

from stabcat.concat import build_code


@pytest.fixture(scope="session")
def code_m1k1():
    return build_code(1, 1)


@pytest.fixture(scope="session")
def code_m1k0():
    return build_code(1, 0)


@pytest.fixture(scope="session")
def code_m2k3():
    return build_code(2, 3)


@pytest.fixture(scope="session")
def code_m3k10():
    return build_code(3, 10)
