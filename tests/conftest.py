from pathlib import Path

import pytest

from schemeforge.io import parse_matrix

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name):
    return parse_matrix((FIXTURES / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


# fig1 and fig2 are parsed afresh for each test: a matrix keeps every stage
# result in its analysis context, and a shared one would carry them across tests
@pytest.fixture
def fig1():
    return load_fixture("fig1.mat")


@pytest.fixture
def fig2():
    return load_fixture("fig2.mat")
