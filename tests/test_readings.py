from itertools import combinations

from polagram import Reading, extract_reading, inverted_pairs, is_linear


def test_extract_licensing_reading(parsed):
    result = parsed("Nobody saw anybody")
    readings = {extract_reading(d).scope_order for d in result.derivations}
    assert readings == {(("nobody", 0), ("anybody", 2))}


def test_extract_single_quantifier(parsed):
    result = parsed("Alice saw a man's mother")
    readings = {extract_reading(d).scope_order for d in result.derivations}
    assert readings == {(("a man", 2),)}


def test_extract_no_quantifiers(parsed):
    result = parsed("Alice saw Bob")
    assert all(extract_reading(d).scope_order == ()
               for d in result.derivations)


def test_is_linear():
    assert is_linear(Reading((("nobody", 0), ("anybody", 2))))
    assert not is_linear(Reading((("everybody", 2), ("somebody", 0))))
    assert is_linear(Reading(()))


def test_inverted_pairs_basic():
    inverse = Reading((("everybody", 2), ("somebody", 0)))
    assert inverted_pairs(inverse) == [(("everybody", 2), ("somebody", 0))]
    assert inverted_pairs(Reading((("nobody", 0), ("anybody", 2)))) == []


def test_inverted_pairs_fully_inverted_matches_brute_force():
    reading = Reading((("c", 2), ("b", 1), ("a", 0)))
    got = inverted_pairs(reading)
    # brute force over all position pairs
    expect = [(w, n) for w, n in combinations(reading.scope_order, 2)
              if w[1] > n[1]]
    assert got == expect
    assert len(got) == 3


def test_linear_iff_no_inverted_pairs():
    for order in [(("a", 0), ("b", 1)), (("b", 1), ("a", 0)),
                  (("a", 0), ("c", 2), ("b", 1)), ()]:
        r = Reading(order)
        assert is_linear(r) == (not inverted_pairs(r))


def test_identical_scope_orders_collapse(parsed):
    result = parsed("Nobody saw anybody")
    assert len(result.derivations) > len(result.readings) == 1
