"""Fixtures shared by the test modules."""

import pytest

from elltree import coefficients, groups, resolution


@pytest.fixture
def cold_caches():
    """Empty every lru_cache of groups, resolution and coefficients, so
    that a test sees what a fresh process builds."""
    for module in (groups, resolution, coefficients):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
