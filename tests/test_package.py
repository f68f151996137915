import triladder


def test_every_public_name_resolves():
    assert len(set(triladder.__all__)) == len(triladder.__all__)
    for name in triladder.__all__:
        assert getattr(triladder, name) is not None, name
