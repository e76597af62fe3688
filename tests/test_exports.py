"""The package's public names: a refactor that removes or renames an export
must also take it out of `__all__`."""

import nsfd_sirvs


def test_every_exported_name_resolves_once():
    exported = nsfd_sirvs.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(nsfd_sirvs, name)] == []
