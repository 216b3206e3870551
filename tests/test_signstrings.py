import random

import pytest
from hypothesis import given, strategies as st

import oracles
from signcrystal.errors import ResourceCeilingError, ValidationError
from signcrystal.signstrings import (
    _flip_at,
    e_tilde,
    f_tilde,
    h_minus,
    h_plus,
    iter_words,
    minus_flips,
    plus_flips,
    reduced_form,
    statistics,
    succ_compare,
    suffix_h_minus,
    weight,
)

words = st.text(alphabet="+-", max_size=24)
# past the exhaustive length of 12, where the counting kernels' open '-'
# can run deep
long_words = st.text(alphabet="+-", max_size=60)


def all_words_up_to(n):
    for length in range(n + 1):
        yield from iter_words(length)


class TestReduce:
    def test_fixed_point(self):
        assert reduced_form("++-") == "++-"

    def test_single_cancellation(self):
        assert reduced_form("-+") == "00"

    def test_full_cancellation(self):
        # frozen from the all-orders rewriting oracle
        assert oracles.reduce_all_orders("-+--++") == {"000000"}
        assert reduced_form("-+--++") == "000000"

    def test_empty(self):
        assert reduced_form("") == ""

    def test_rejects_other_symbols(self):
        with pytest.raises(ValidationError):
            reduced_form("+0-")

    @given(words)
    def test_matches_literal_rewriting(self, t):
        assert reduced_form(t) == oracles.reduce_leftmost(t)

    @given(words)
    def test_reduced_shape(self, t):
        r = reduced_form(t)
        assert len(r) == len(t)
        assert all(a == b or a == "0" for a, b in zip(r, t))
        live = [c for c in r if c != "0"]
        assert "".join(live) == "+" * live.count("+") + "-" * live.count("-")
        zeroed_plus = sum(1 for a, b in zip(r, t) if a == "0" and b == "+")
        zeroed_minus = sum(1 for a, b in zip(r, t) if a == "0" and b == "-")
        assert zeroed_plus == zeroed_minus

    def test_all_orders_agree_small(self):
        for t in all_words_up_to(6):
            assert oracles.reduce_all_orders(t) == {reduced_form(t)}

    def test_random_orders_agree(self):
        rng = random.Random(7)
        for t in all_words_up_to(8):
            for _ in range(5):
                assert oracles.reduce_random(t, rng) == reduced_form(t)


class TestStatistics:
    def test_counts(self):
        # frozen from the fixed-point reduced form "++-"
        assert h_plus("++-") == 2
        assert h_minus("++-") == 1
        assert weight("++-") == -1

    def test_empty(self):
        assert h_plus("") == h_minus("") == weight("") == 0

    def test_cancelled_word(self):
        assert h_plus("-+--++") == 0
        assert h_minus("-+--++") == 0

    def test_weight_already_reduced(self):
        assert weight("--") == 2

    def test_counts_match_oracle_exhaustive(self):
        # every suffix of a word is a shorter word, so one table serves every k
        expected = {t: oracles.counts(t) for t in all_words_up_to(12)}
        for t, counts in expected.items():
            assert statistics(t) == (h_plus(t), h_minus(t)) == counts
            suffixes = [suffix_h_minus(t, k) for k in range(1, len(t) + 2)]
            assert suffixes == [expected[t[k:]][1] for k in range(len(t) + 1)]

    @given(long_words)
    def test_counts_match_oracle_long(self, t):
        counts = oracles.counts(t)
        assert statistics(t) == (h_plus(t), h_minus(t)) == counts
        for k in range(1, len(t) + 2):
            assert suffix_h_minus(t, k) == oracles.counts(t[k - 1:])[1]

    @given(words)
    def test_weight_is_count_difference(self, t):
        assert weight(t) == t.count("-") - t.count("+")


class TestOperators:
    def test_raise_single(self):
        assert e_tilde("+") == ("-", 1)

    def test_raise_picks_last_survivor(self):
        # reduced form of -++ is 00+, survivor at position 3
        assert reduced_form("-++") == "00+"
        assert e_tilde("-++") == ("-+-", 3)

    def test_raise_absent(self):
        assert e_tilde("--") is None

    def test_lower_single(self):
        assert f_tilde("-") == ("+", 1)

    def test_lower_picks_first_survivor(self):
        assert f_tilde("+--") == ("++-", 2)

    def test_lower_absent(self):
        assert f_tilde("++") is None

    def test_flips_match_oracle(self):
        # the one flip rule, both directions, against the rewriting oracle
        for t in all_words_up_to(12):
            up, down = oracles.raise_word(t), oracles.lower_word(t)
            assert e_tilde(t) == up
            assert f_tilde(t) == down
            assert _flip_at(t, True) == (-1 if up is None else up[1] - 1)
            assert _flip_at(t, False) == (-1 if down is None else down[1] - 1)

    @given(long_words)
    def test_flips_match_oracle_long(self, t):
        up, down = oracles.raise_word(t), oracles.lower_word(t)
        assert _flip_at(t, True) == (-1 if up is None else up[1] - 1)
        assert _flip_at(t, False) == (-1 if down is None else down[1] - 1)

    def test_axioms_exhaustive(self):
        for t in all_words_up_to(9):
            hp, hm = statistics(t)
            assert weight(t) == hm - hp
            up, down = e_tilde(t), f_tilde(t)
            assert (up is None) == (hp == 0)
            assert (down is None) == (hm == 0)
            if up is not None:
                u, i = up
                assert t[i - 1] == "+" and u[i - 1] == "-"
                assert f_tilde(u) == (t, i)
                assert statistics(u) == (hp - 1, hm + 1)
                assert weight(u) == weight(t) + 2
            if down is not None:
                d, j = down
                assert e_tilde(d) == (t, j)


class TestSuffixStatistic:
    def test_interior_suffix(self):
        assert suffix_h_minus("-+-", 2) == 1

    def test_whole_word(self):
        # reduced form of -+- is 00-
        assert suffix_h_minus("-+-", 1) == 1

    def test_empty_suffix(self):
        assert suffix_h_minus("-+-", 4) == 0

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            suffix_h_minus("-+-", 0)
        with pytest.raises(ValidationError):
            suffix_h_minus("-+-", 5)

    @given(words)
    def test_weakly_decreasing_in_k(self, t):
        values = [suffix_h_minus(t, k) for k in range(1, len(t) + 2)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestSuccOrder:
    def test_first_position(self):
        assert succ_compare("-+", "++") == 1

    def test_largest_differing_position_wins(self):
        assert succ_compare("+-", "-+") == 1

    def test_equal(self):
        assert succ_compare("+-", "+-") == 0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            succ_compare("+", "++")

    def test_total_order_small(self):
        for n in range(9):
            ordered = sorted(iter_words(n), key=_succ_key)
            for a, b in zip(ordered, ordered[1:]):
                assert succ_compare(b, a) == 1
                assert succ_compare(a, b) == -1


def _succ_key(t):
    # reversed word with '-' above '+' realizes the order
    return tuple(1 if c == "-" else 0 for c in reversed(t))


class TestFlips:
    def test_plus_flips(self):
        assert plus_flips("+-+") == [(1, "--+"), (3, "+--")]

    def test_minus_flips_empty(self):
        assert minus_flips("++") == []

    @pytest.mark.parametrize("flips, sym", [(plus_flips, "+"), (minus_flips, "-")])
    def test_ceiling(self, flips, sym):
        # len(t) symbols per flip: 1414^2 = 1,999,396 is within the default
        # ceiling, 1415^2 = 2,002,225 is not, and raises before building anything
        assert [i for i, _ in flips(sym * 1414)] == list(range(1, 1415))
        with pytest.raises(ResourceCeilingError):
            flips(sym * 1415)

    def test_flip_order_matches_succ_exhaustive(self):
        for t in all_words_up_to(10):
            flips = plus_flips(t)
            for (_, a), (_, b) in zip(flips, flips[1:]):
                assert succ_compare(b, a) == 1


class TestCombinatorialLemma:
    def test_exhaustive_small(self):
        for t in all_words_up_to(8):
            n = len(t)
            hs = [suffix_h_minus(t, k) for k in range(1, n + 2)]
            for l in range(1, n + 1):
                if hs[l - 1] <= hs[l]:
                    continue
                assert t[l - 1] == "-"
                tbar = t[: l - 1] + "+" + t[l:]
                flips = plus_flips(tbar)
                j = next(k for k, (pos, _) in enumerate(flips) if pos == l)
                assert flips[j][1] == t
                assert hs[l] + 1 == hs[l - 1]
                for k in range(j):
                    assert suffix_h_minus(flips[k][1], l + 1) == hs[l]
                for k in range(j + 1, len(flips)):
                    assert suffix_h_minus(flips[k][1], l + 1) >= hs[l - 1] + 1
