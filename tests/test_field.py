import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmrc import (
    Fq,
    ParameterError,
    default_modulus,
    is_prime,
    smallest_prime_at_least,
)
from pmrc.linalg import matmul_mod

FIELDS = [Fq(13), Fq(29), Fq(257)]


def test_mul_identity_exhaustive():
    # the codec's field arithmetic is the kernel's: 1x1 products
    for x in range(29):
        assert matmul_mod([[1]], [[x]], 29).tolist() == [[x]]


def test_frozen_examples():
    assert Fq(29).inv(2) == 15
    assert Fq(13).inv(5) == 8
    assert Fq(29).pow(2, 5) == 3
    assert Fq(29).pow(7, 2) == 20


def test_inverse_of_one():
    for f in FIELDS:
        assert f.inv(1) == 1


def test_pow_zero_exponent():
    f = Fq(29)
    for x in range(29):
        assert f.pow(x, 0) == 1  # includes 0**0 == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Fq(29).inv(0)


def test_non_prime_modulus_rejected():
    for bad in (0, 1, 6, 256, 2**31, 65537):  # 65537 is prime but not 16-bit
        with pytest.raises(ParameterError):
            Fq(bad)
    assert Fq(65521).q == 65521  # the largest 16-bit prime


def test_out_of_range_operands_rejected():
    f = Fq(13)
    with pytest.raises(ParameterError):
        f.inv(13)
    with pytest.raises(ParameterError):
        f.pow(-1, 2)
    with pytest.raises(ParameterError):
        f.check(13)
    assert f.element(13) == 0
    assert f.element(-1) == 12


@given(
    q=st.sampled_from([13, 29, 257]),
    a=st.integers(0, 10**6),
    b=st.integers(0, 10**6),
    c=st.integers(0, 10**6),
)
def test_field_axioms(q, a, b, c):
    # sums and differences run on the product kernel too: [x y] @ [1 ±1]^T
    f = Fq(q)

    def add(x, y):
        return int(matmul_mod([[x, y]], [[1], [1]], q)[0, 0])

    def sub(x, y):
        return int(matmul_mod([[x, y]], [[1], [q - 1]], q)[0, 0])

    def mul(x, y):
        return int(matmul_mod([[x]], [[y]], q)[0, 0])

    a, b, c = (f.element(v) for v in (a, b, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert sub(a, b) == add(a, sub(0, b))


def test_inverse_involution_exhaustive():
    f = Fq(29)
    for a in range(1, 29):
        assert a * f.inv(a) % 29 == 1
        assert f.inv(f.inv(a)) == a


@pytest.mark.parametrize("q", [13, 29, 257])
def test_fermat_full_field(q):
    f = Fq(q)
    for a in range(1, q):
        assert f.pow(a, q - 1) == 1


def test_primality_helpers():
    assert is_prime(2) and is_prime(257) and is_prime(65521)
    assert not is_prime(1) and not is_prime(65535)
    assert smallest_prime_at_least(258) == 263
    assert smallest_prime_at_least(257) == 257


def test_default_modulus():
    assert default_modulus(7) == 257
    assert default_modulus(64) == 257  # 4n = 256 still fits under 257
    assert default_modulus(65) == 263  # smallest prime >= 260
    assert default_modulus(100) == 401
