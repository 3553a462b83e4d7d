import routeforge


def test_public_names_resolve_and_are_sorted():
    missing = [name for name in routeforge.__all__ if not hasattr(routeforge, name)]
    assert missing == []
    assert routeforge.__all__ == sorted(routeforge.__all__)
