import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import all_ternary, ternary_space
from veclog.metric import (
    Choice,
    CompactedQuality,
    beta_cycle_check,
    better_of,
    compact_quality,
    quality_arith,
    quality_vector,
)
from veclog.vlcore import BitVector, LengthMismatch, TernaryVector, slc


def bv(s):
    return BitVector.from_string(s)


def tv(s):
    return TernaryVector.from_string(s)


@st.composite
def bit_pair(draw, max_len=48):
    n = draw(st.integers(1, max_len))
    return (BitVector(draw(st.integers(0, (1 << n) - 1)), n),
            BitVector(draw(st.integers(0, (1 << n) - 1)), n))


M12 = bv("110011001100")
A12 = bv("000011110101")


class TestQualityArith:
    def test_half_space_pair(self):
        out = quality_arith(tv("1x"), tv("xx"))
        assert out.distance == 1
        assert out.query_in_stored == Fraction(1, 2)
        assert out.stored_in_query == 1
        assert out.quality == Fraction(5, 6)

    def test_equal_vectors(self):
        out = quality_arith(tv("10x"), tv("10x"))
        assert (out.distance, out.query_in_stored, out.stored_in_query,
                out.quality) == (1, 1, 1, 1)

    def test_double_half_pair(self):
        out = quality_arith(tv("xx0"), tv("x1x"))
        assert out.distance == 1
        assert out.query_in_stored == Fraction(1, 2)
        assert out.stored_in_query == Fraction(1, 2)
        assert out.quality == Fraction(2, 3)

    def test_fully_clashing(self):
        out = quality_arith(tv("0"), tv("1"))
        assert (out.distance, out.query_in_stored, out.stored_in_query,
                out.quality) == (0, 0, 0, 0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            quality_arith(tv("x"), tv("xx"))

    def test_matches_space_oracle(self):
        # oracle: expand to binary spaces; memberships are space-size
        # ratios, the distance is the non-clashing coordinate fraction
        for a in all_ternary(3):
            sa = ternary_space(a)
            for b in all_ternary(3):
                sb = ternary_space(b)
                common = sa & sb
                out = quality_arith(a, b)
                if common:
                    assert out.query_in_stored == Fraction(len(common), len(sb))
                    assert out.stored_in_query == Fraction(len(common), len(sa))
                    assert out.distance == 1
                else:
                    assert out.query_in_stored == 0
                    assert out.stored_in_query == 0
                clashes = sum(1 for pa, pb in zip(str(a), str(b))
                              if {pa, pb} == {"0", "1"})
                assert out.distance == Fraction(3 - clashes, 3)

    def test_equal_iff_quality_one(self):
        for a in all_ternary(2):
            for b in all_ternary(2):
                assert (quality_arith(a, b).quality == 1) == (a == b)


class TestQualityCounts:
    """The 1-counts of ``quality_vector``'s components against integer
    counts of the pair."""

    @given(bit_pair())
    def test_counts_match_vector_popcounts(self, pair):
        a, b = pair
        shared = (a.value & b.value).bit_count()
        vectors = quality_vector(a, b)
        assert vectors.mismatch.popcount == (a.value ^ b.value).bit_count()
        assert vectors.stored_only.popcount == b.popcount - shared
        assert vectors.query_only.popcount == a.popcount - shared


def oracle_quality_vector(query: str, stored: str):
    """Character-level recomputation of the vector criterion."""
    mismatch = "".join("1" if q != s else "0" for q, s in zip(query, stored))
    shared = ["1" if q == s == "1" else "0" for q, s in zip(query, stored)]
    stored_only = "".join("1" if s == "1" and sh == "0" else "0"
                          for s, sh in zip(stored, shared))
    query_only = "".join("1" if q == "1" and sh == "0" else "0"
                         for q, sh in zip(query, shared))
    quality = "".join("1" if "1" in trio else "0"
                      for trio in zip(mismatch, stored_only, query_only))
    return mismatch, stored_only, query_only, quality


class TestQualityVector:
    def test_worked_example(self):
        out = quality_vector(M12, A12)
        assert out.quality == bv("110000111001")
        assert out.quality.popcount == 6
        assert out.quality.length == 12

    def test_equal_vectors(self):
        v = bv("1010")
        assert quality_vector(v, v).quality == bv("0000")

    def test_matches_character_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 24)
            a = BitVector(rng.getrandbits(n), n)
            b = BitVector(rng.getrandbits(n), n)
            out = quality_vector(a, b)
            want = oracle_quality_vector(str(a), str(b))
            assert (str(out.mismatch), str(out.stored_only),
                    str(out.query_only), str(out.quality)) == want

    def test_quality_is_or_of_components(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(1, 32)
            out = quality_vector(BitVector(rng.getrandbits(n), n),
                                 BitVector(rng.getrandbits(n), n))
            assert out.quality == out.mismatch | out.stored_only | out.query_only

    def test_reduction_to_xor_exhaustive_small(self):
        for n in range(1, 7):
            for a in range(1 << n):
                va = BitVector(a, n)
                for b in range(1 << n):
                    vb = BitVector(b, n)
                    assert quality_vector(va, vb).quality == (va ^ vb)

    @given(bit_pair(max_len=256))
    def test_reduction_to_xor_random(self, pair):
        a, b = pair
        assert quality_vector(a, b).quality == a ^ b


class TestCompactedComparison:
    def test_worked_compaction(self):
        out = compact_quality(quality_vector(M12, A12))
        assert out.compacted == bv("111111000000")
        assert out.compacted.popcount == 6
        assert str(out) == "(6/12)"

    def test_zero_quality(self):
        v = bv("0110")
        out = compact_quality(quality_vector(v, v))
        assert out.compacted.popcount == 0
        assert str(out) == "(0/4)"

    def test_ones_permutation_invariant(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(2, 16)
            bits = [rng.randint(0, 1) for _ in range(n)]
            shuffled = bits[:]
            rng.shuffle(shuffled)
            a = BitVector(int("".join(map(str, bits)), 2), n)
            b = BitVector(int("".join(map(str, shuffled)), 2), n)
            assert a.popcount == b.popcount

    def test_six_beats_eight(self):
        q6 = CompactedQuality(bv("111111000000"))
        q8 = CompactedQuality(bv("111111110000"))
        assert better_of(q6, q8) is Choice.FIRST
        assert better_of(q8, q6) is Choice.SECOND

    def test_tie_resolves_to_first(self):
        q = CompactedQuality(bv("1100"))
        assert better_of(q, q) is Choice.FIRST

    def test_perfect_solution_dominates(self):
        q0 = CompactedQuality(bv("0000"))
        q3 = CompactedQuality(bv("1110"))
        assert better_of(q0, q3) is Choice.FIRST

    def test_agrees_with_ones_counts(self):
        n = 9
        for i in range(n + 1):
            qi = CompactedQuality(slc(BitVector((1 << i) - 1, n)))
            for j in range(n + 1):
                qj = CompactedQuality(slc(BitVector((1 << j) - 1, n)))
                want = Choice.FIRST if i <= j else Choice.SECOND
                assert better_of(qi, qj) is want


class TestXorDistanceAndBeta:
    def test_identity(self):
        v = bv("10101")
        assert v ^ v == bv("00000")

    def test_simple(self):
        assert bv("1100") ^ bv("0110") == bv("1010")

    @given(bit_pair())
    def test_equals_quality_vector(self, pair):
        a, b = pair
        assert a ^ b == quality_vector(a, b).quality

    def test_two_point_cycle(self):
        a, b = bv("1010"), bv("0111")
        assert beta_cycle_check([a, b]) == bv("0000")

    def test_three_point_cycle(self):
        rng = random.Random(14)
        for _ in range(50):
            pts = [BitVector(rng.getrandbits(8), 8) for _ in range(3)]
            assert beta_cycle_check(pts).value == 0

    def test_random_cycles(self):
        rng = random.Random(15)
        for _ in range(200):
            n = rng.randint(1, 32)
            count = rng.randint(2, 8)
            pts = [BitVector(rng.getrandbits(n), n) for _ in range(count)]
            assert beta_cycle_check(pts) == BitVector.zeros(n)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            beta_cycle_check([bv("1")])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(LengthMismatch):
            beta_cycle_check([bv("10"), bv("100")])
