import pseudomode


def test_public_names_resolve_and_are_sorted():
    # an export left behind by a deleted name fails here, not at import
    # time of a user's code
    missing = [n for n in pseudomode.__all__ if not hasattr(pseudomode, n)]
    assert missing == []
    assert pseudomode.__all__ == sorted(pseudomode.__all__)
    assert len(set(pseudomode.__all__)) == len(pseudomode.__all__)
