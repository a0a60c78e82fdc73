import momentsdp


def test_every_exported_name_resolves_once():
    missing = [name for name in momentsdp.__all__ if not hasattr(momentsdp, name)]
    assert missing == []
    assert len(set(momentsdp.__all__)) == len(momentsdp.__all__)
