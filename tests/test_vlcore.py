import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import all_ternary, bit, devectorize, ternary_space, vectorize
from veclog.vlcore import (
    BitVector,
    EmptyInput,
    EmptyIntersection,
    LengthMismatch,
    ParseError,
    TernaryVector,
    slc,
    ternary_intersect,
)


@st.composite
def bit_pair(draw, max_len=64):
    n = draw(st.integers(1, max_len))
    a = draw(st.integers(0, (1 << n) - 1))
    b = draw(st.integers(0, (1 << n) - 1))
    return BitVector(a, n), BitVector(b, n)


def bv(s: str) -> BitVector:
    return BitVector.from_string(s)


def tv(s: str) -> TernaryVector:
    return TernaryVector.from_string(s)


class TestBitVector:
    def test_string_roundtrip(self):
        assert str(bv("110x".replace("x", "0"))) == "1100"
        assert str(bv("000101")) == "000101"

    def test_rejects_bad_symbol(self):
        with pytest.raises(ParseError) as err:
            bv("10201")
        assert err.value.column == 3

    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            bv("")

    @pytest.mark.parametrize("value, length, message", [
        (0, 0, "vector length must be at least 1, got 0"),
        (-1, -2, "vector length must be at least 1, got -2"),
        (8, 0, "vector length must be at least 1, got 0"),
        (-1, 3, "value does not fit the stated length"),
        (8, 3, "value does not fit the stated length"),
        (1 << 64, 64, "value does not fit the stated length"),
    ])
    def test_constructor_messages(self, value, length, message):
        # a bad length is reported before a value that does not fit
        with pytest.raises(ValueError) as err:
            BitVector(value, length)
        assert str(err.value) == message

    def test_bit_indexing_is_one_based_from_left(self):
        # the coordinate order the reference ``helpers.bit`` reads
        v = bv("1010")
        assert [bit(v, k) for k in (1, 2, 3, 4)] == [1, 0, 1, 0]
        with pytest.raises(IndexError):
            bit(v, 5)

    def test_equality_includes_length(self):
        assert bv("01") != bv("001")
        assert bv("01") == BitVector(1, 2)

    def test_operators_require_equal_length(self):
        with pytest.raises(LengthMismatch):
            bv("10") & bv("100")


class TestLogicOp:
    """The vector logic operations, which are the BitVector operators."""

    def test_worked_xor(self):
        # coordinatewise evaluation, frozen from by-hand computation
        assert bv("110011001100") ^ bv("000011110101") == bv("110000111001")

    def test_and_idempotent(self):
        a = bv("101101")
        assert a & a == a

    def test_not_of_zero(self):
        assert ~bv("0000") == bv("1111")

    @given(bit_pair())
    def test_xor_is_involution(self, pair):
        a, b = pair
        assert (a ^ b) ^ b == a


class TestSlc:
    def test_compacts_left(self):
        assert slc(bv("101001")) == bv("111000")

    def test_zero_fixed_point(self):
        assert slc(bv("000000")) == bv("000000")

    def test_worked_example(self):
        assert slc(bv("110000111001")) == bv("111111000000")

    def test_exhaustive_invariants_small(self):
        # oracle: sort the characters, 1s first
        for n in range(1, 10):
            for value in range(1 << n):
                v = BitVector(value, n)
                out = slc(v)
                assert str(out) == "".join(sorted(str(v), reverse=True))
                assert out.popcount == v.popcount
                assert slc(out) == out
                assert "01" not in str(out)  # no 0 before a 1


class TestDevectorizeVectorize:
    """The reference primitives in ``helpers`` that the differential tests
    build the table kernels' vector-logic formulations from."""

    def test_devectorize(self):
        assert devectorize(bv("0000")) == 0
        assert devectorize(bv("0100")) == 1

    @given(bit_pair())
    def test_devectorize_ignores_order(self, pair):
        a, _ = pair
        assert devectorize(slc(a)) == devectorize(a)

    @given(bit_pair())
    def test_devectorize_zero_iff_all_zero(self, pair):
        a, _ = pair
        assert (devectorize(a) == 0) == (a == BitVector.zeros(a.length))

    def test_vectorize(self):
        assert vectorize([1, 0, 1]) == bv("101")
        assert vectorize([0]) == bv("0")

    def test_vectorize_empty(self):
        with pytest.raises(EmptyInput):
            vectorize([])

    def test_vectorize_rejects_non_bits(self):
        with pytest.raises(ValueError):
            vectorize([0, 2])

    def test_roundtrip(self):
        v = bv("100110")
        assert vectorize(map(int, str(v))) == v


class TestTernary:
    def test_parse_and_render(self):
        assert str(tv("110x01")) == "110x01"
        assert tv("x0x").xcount == 2
        assert 1 << tv("x0x").xcount == 4

    def test_parse_rejects_bad_symbol(self):
        with pytest.raises(ParseError) as err:
            tv("1u0")
        assert err.value.column == 2

    def test_intersect_absorbs_x(self):
        assert ternary_intersect(tv("1x"), tv("xx")) == tv("1x")

    def test_intersect_clash(self):
        out = ternary_intersect(tv("01"), tv("11"))
        assert out == EmptyIntersection(1)

    def test_intersect_coordinatewise(self):
        # oracle: per-coordinate rule applied by hand
        assert ternary_intersect(tv("xx0"), tv("x1x")) == tv("x10")

    def test_intersect_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ternary_intersect(tv("x"), tv("xx"))

    def test_intersect_matches_space_oracle(self):
        for a in all_ternary(3):
            for b in all_ternary(3):
                inter = ternary_intersect(a, b)
                common = ternary_space(a) & ternary_space(b)
                if isinstance(inter, EmptyIntersection):
                    assert common == set()
                else:
                    assert ternary_space(inter) == common
