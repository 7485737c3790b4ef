"""The package namespace: every exported name resolves."""

import crextend


def test_every_exported_name_resolves():
    assert [name for name in crextend.__all__ if not hasattr(crextend, name)] == []
