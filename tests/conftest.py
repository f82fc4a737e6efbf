import pytest

from geodesica.knotgroup import build_representation, two_bridge_presentation
from geodesica.pipeline import load_census
from geodesica.polycore import RatPoly
from geodesica.pretzel import pretzel_holonomy


@pytest.fixture(scope="session")
def census_records():
    return load_census()


@pytest.fixture(scope="session")
def rep_74():
    pres = two_bridge_presentation(15, 11, "7_4")
    return build_representation(pres, RatPoly([1, 4, -4, 1]), name="Q(z_74)")


@pytest.fixture(scope="session")
def rep_73():
    pres = two_bridge_presentation(13, 9, "7_3")
    return build_representation(
        pres, RatPoly([1, 5, -6, -4, 9, -5, 1]), name="Q(z_73)"
    )


@pytest.fixture(scope="session")
def pretzel_1():
    return pretzel_holonomy(1)
