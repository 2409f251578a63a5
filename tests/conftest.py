import pytest

from gradalg.catalog import catalog_group, klein_sign_cocycle
from gradalg.cocycles import ExpCocycle


def lift(sig, modulus):
    """sig at a multiple of its modulus: the same roots of unity, each
    exponent scaled by modulus / sig.modulus."""
    step, rem = divmod(modulus, sig.modulus)
    if rem:
        raise ValueError(f"{modulus} is not a multiple of {sig.modulus}")
    return ExpCocycle(sig.domain, modulus, sig.mat * step)


@pytest.fixture(scope="session")
def klein():
    return catalog_group("C2xC2")


@pytest.fixture(scope="session")
def sign_cocycle(klein):
    # order-2 class on the Klein group: the one nontrivial twist
    return klein_sign_cocycle(klein.full_subgroup())


@pytest.fixture(scope="session")
def c4():
    return catalog_group("C4")


@pytest.fixture(scope="session")
def s3():
    return catalog_group("S3")


@pytest.fixture(scope="session")
def q8():
    return catalog_group("Q8")
