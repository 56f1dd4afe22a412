"""The usage examples in module docstrings run as tests."""

import doctest

import pytest

from elltree import abelian, coefficients, field, groups


@pytest.mark.parametrize("module", [abelian, coefficients, field, groups], ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
