import pytest
from hypothesis import given
from hypothesis import strategies as st

from fujitacert.residues import is_unit, units
from reference import euler_phi


def test_units_rejects_bad_modulus():
    with pytest.raises(ValueError):
        units(1)
    with pytest.raises(ValueError):
        units(0)


def test_is_unit_examples():
    assert is_unit(2, 5)
    assert not is_unit(4, 8)
    assert is_unit(25 - 3, 25)


def test_units_examples():
    assert units(5) == [1, 2, 3, 4]
    assert units(6) == [1, 5]
    assert units(12) == [1, 5, 7, 11]


@given(st.integers(min_value=2, max_value=400))
def test_unit_count_is_phi(n):
    assert len(units(n)) == euler_phi(n)

