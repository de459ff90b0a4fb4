import boxspan


def test_every_exported_name_resolves():
    missing = [name for name in boxspan.__all__ if not hasattr(boxspan, name)]
    assert missing == []
