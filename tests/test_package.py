import pickle

import routeforge


def test_public_names_resolve_and_are_sorted():
    missing = [name for name in routeforge.__all__ if not hasattr(routeforge, name)]
    assert missing == []
    assert routeforge.__all__ == sorted(routeforge.__all__)


def test_public_errors_survive_a_pickle_round_trip():
    # A fork_join child sends an exception back over a pipe, so every public
    # error must come back from pickle as it went in.
    no_plan = routeforge.NoSolutionFoundError("no plan")
    no_plan.wall_time_ms = 12.5
    too_deep = routeforge.RecursionLimitError("too deep")
    too_deep.wall_time_ms = 3.0
    samples = [
        routeforge.EmptyInputError("no points"),
        routeforge.InfeasibleError((4, 7)),
        routeforge.InfeasibleSequenceError(3, 10.0, 5),
        routeforge.InvalidInstanceError("bad instance"),
        no_plan,
        too_deep,
        routeforge.UnknownWaypointError(42),
    ]
    public = {
        name
        for name in routeforge.__all__
        if isinstance(getattr(routeforge, name), type) and issubclass(getattr(routeforge, name), BaseException)
    }
    assert {type(e).__name__ for e in samples} == public
    for error in samples:
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert str(back) == str(error)
        assert back.__dict__ == error.__dict__
