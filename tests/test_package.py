import robinsplit


def test_all_exports_resolve():
    missing = [name for name in robinsplit.__all__ if not hasattr(robinsplit, name)]
    assert missing == []
