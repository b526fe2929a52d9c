import pytest

from ecinj import Curve, InjectionParams, UniquenessFunction, collisions


@pytest.fixture
def progress(monkeypatch):
    """The lines the scans hand their progress hook, in order."""
    lines = []
    monkeypatch.setattr(collisions, "progress", lines.append)
    return lines


@pytest.fixture(scope="session")
def curve248():
    return Curve(1, -1)


@pytest.fixture(scope="session")
def gen248(curve248):
    return curve248.point(1, 1)


@pytest.fixture(scope="session")
def params_default():
    return InjectionParams(1, 1, 2, 9)


@pytest.fixture(scope="session")
def ufunc248(curve248, params_default):
    return UniquenessFunction(params_default, curve248)
