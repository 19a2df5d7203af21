"""The contract of the package's ten record types: construction by position
and by keyword, equality and hashing, immutability and ``_replace``."""

import pytest

from octavib import bifurcation, force_field, group_core, modes, orbit_o2, spectral
from octavib.errors import ConfigError


def instances():
    """One instance of each record type, as the pipeline builds it.  A
    record with an array or a dict among its fields is unhashable."""
    params = force_field.REFERENCE_PARAMS
    eq = force_field.find_equilibrium(params)
    report = spectral.spectrum_at_equilibrium(eq)
    engine = bifurcation.engine_from_spectrum(report)
    shop = modes.ModeWorkshop()
    traj = shop.build_mode("8", 2)
    return {
        "SubgroupClass": (group_core.catalog().classes[5], True),
        "PotentialParams": (params, True),
        "Equilibrium": (eq, True),
        "SpectrumLine": (report.lines[0], True),
        "SpectrumReport": (report, False),
        "OrbitTypeO2": (orbit_o2.REFERENCE_EXPANSIONS[4][0][2], True),
        "CriticalNumber": (bifurcation.critical_set(report.alphas(), 2.0)[0], True),
        "BifurcationReport": (engine.report("8", full=True), False),
        "ModeTrajectory": (traj, False),
        "TypeElements": (modes._type_elements(shop.ring, traj.type_class), False),
    }


NAMES = (
    "SubgroupClass", "PotentialParams", "Equilibrium", "SpectrumLine", "SpectrumReport",
    "OrbitTypeO2", "CriticalNumber", "BifurcationReport",
    "ModeTrajectory", "TypeElements",
)


@pytest.fixture(scope="module")
def built():
    return instances()


@pytest.fixture(params=NAMES)
def record(request, built):
    return built[request.param]


def test_every_type_is_covered(built):
    assert tuple(built) == NAMES
    types = {type(x) for x, _ in built.values()}
    assert {t.__name__ for t in types} == {
        "SubgroupClass", "PotentialParams", "Equilibrium", "SpectrumLine",
        "SpectrumReport", "OrbitTypeO2", "CriticalNumber", "BifurcationReport",
        "ModeTrajectory", "TypeElements",
    }


def test_position_and_keyword_construction_agree(record):
    x, hashable = record
    cls = type(x)
    by_position = cls(*(getattr(x, f) for f in cls._fields))
    by_keyword = cls(**{f: getattr(x, f) for f in cls._fields})
    assert type(by_position) is type(by_keyword) is cls
    assert by_position == by_keyword == x
    if hashable:
        assert hash(by_position) == hash(by_keyword) == hash(x)
    else:
        with pytest.raises(TypeError):
            hash(x)


def test_fields_cannot_be_assigned(record):
    x, _ = record
    for name in (*type(x)._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)


def test_replace_returns_the_changed_copy(record):
    x, _ = record
    first, *rest = type(x)._fields
    marker = float("0.5")  # a fresh object, and a σ the force field accepts
    y = x._replace(**{first: marker})
    assert type(y) is type(x)
    assert getattr(y, first) is marker
    assert all(getattr(y, f) is getattr(x, f) for f in rest)
    assert getattr(x, first) is not marker


def test_defaults():
    with pytest.raises(TypeError, match="basis"):
        spectral.SpectrumReport(())
    family = orbit_o2.OrbitTypeO2("D", 1, "full", "S_4^p", "full")
    assert family.quotient == ""


@pytest.mark.parametrize(
    "sigmas, message",
    [
        ((-1.0, 0.0, 1.0), "sigma1 must be nonnegative"),
        ((1.0, 0.0, -1.0), "sigma3 must be nonnegative"),
        ((0.0, 0.5, 1.0), "sigma1=0 with sigma2>0"),
    ],
)
def test_params_refuse_at_construction(sigmas, message):
    names = force_field.PotentialParams._fields
    with pytest.raises(ConfigError, match=message):
        force_field.PotentialParams(*sigmas)
    with pytest.raises(ConfigError, match=message):
        force_field.PotentialParams(**dict(zip(names, sigmas)))
    with pytest.raises(ConfigError, match=message):
        force_field.REFERENCE_PARAMS._replace(**dict(zip(names, sigmas)))
