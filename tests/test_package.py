"""The package's lazy exports (PEP 562)."""

import pytest

import scrollflex
from scrollflex import exactpoly, scroll


def test_exports_resolve_to_their_modules_and_are_listed():
    assert scrollflex.Poly is exactpoly.Poly
    assert scrollflex.scroll_ring is scroll.scroll_ring
    listed = dir(scrollflex)
    assert set(scrollflex.__all__) <= set(listed)
    assert "__version__" in listed
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        scrollflex.missing
