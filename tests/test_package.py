"""The package's export list."""

import diffguide


def test_every_export_is_an_attribute_listed_once():
    assert [name for name in diffguide.__all__ if not hasattr(diffguide, name)] == []
    assert len(set(diffguide.__all__)) == len(diffguide.__all__)
