"""Word plans against the byte-granular crossbar oracle.

:func:`repro.core.route_plan` compiles a route into shift/mask terms over
the MMX words; :meth:`CrossbarConfig.apply`, which mirrors the file into the
unified SPU register and gathers granule by granule, is the reference.  For
every configuration the two must agree on every legal route and register
file, and fail with the same :class:`RouteError` message on illegal ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CONFIG_A,
    CONFIG_B,
    CONFIG_C,
    CONFIG_D,
    CONFIG_D_MODED,
    SPURegister,
    route_plan,
)
from repro.errors import RouteError

ALL_CONFIGS = (CONFIG_A, CONFIG_B, CONFIG_C, CONFIG_D, CONFIG_D_MODED)

words = st.integers(0, (1 << 64) - 1)
register_files = st.lists(words, min_size=8, max_size=8)


def entries(config):
    """One legal route entry: straight, a selector, or a moded selector."""
    selector = st.integers(0, config.in_ports - 1)
    options = [st.none(), selector]
    if config.modes:
        options.append(st.tuples(selector, st.sampled_from(config.modes)))
    return st.one_of(options)


@st.composite
def legal_routes(draw):
    config = draw(st.sampled_from(ALL_CONFIGS))
    route = draw(st.lists(entries(config), min_size=config.granules_per_operand,
                          max_size=config.granules_per_operand))
    return config, tuple(route)


@st.composite
def illegal_routes(draw):
    config = draw(st.sampled_from(ALL_CONFIGS))
    n = config.granules_per_operand
    route = draw(st.lists(entries(config), min_size=n, max_size=n))
    at = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["window", "length", "mode", "straight_mode"]))
    if kind == "window":
        route[at] = draw(st.integers(config.in_ports, config.in_ports + 64))
    elif kind == "length":
        size = draw(st.integers(0, 2 * n).filter(lambda size: size != n))
        route = (route * 3)[:size]
    elif kind == "mode":
        unsupported = [m for m in ("neg", "sxb", "zxb", "sqrt") if m not in config.modes]
        route[at] = (draw(st.integers(0, config.in_ports - 1)),
                     draw(st.sampled_from(unsupported)))
    else:
        route[at] = (None, draw(st.sampled_from(config.modes or ("neg",))))
    return config, tuple(route)


def oracle(config, route, mmx, straight):
    register = SPURegister()
    register.load_from_mmx(mmx)
    return config.apply(route, register, straight)


class TestPlansMatchTheOracle:
    @settings(max_examples=400, deadline=None)
    @given(legal_routes(), register_files, words)
    def test_legal_routes(self, config_route, mmx, straight):
        config, route = config_route
        plan = route_plan(config, route)
        assert plan.gather(mmx, straight) == oracle(config, route, mmx, straight)

    @settings(max_examples=300, deadline=None)
    @given(illegal_routes(), register_files)
    def test_illegal_routes_raise_the_same_error(self, config_route, mmx):
        config, route = config_route
        with pytest.raises(RouteError) as expected:
            oracle(config, route, mmx, 0)
        for _ in range(2):  # cached as its error, raised on each use
            with pytest.raises(RouteError) as got:
                route_plan(config, route)
            assert str(got.value) == str(expected.value)


class TestPlanShape:
    def test_contiguous_granules_merge(self):
        plan = route_plan(CONFIG_A, tuple(range(8, 16)))  # all of MM1
        assert plan.keep == 0
        assert plan.terms == ((1, 0, (1 << 64) - 1, 0),)

    def test_straight_granules_are_kept(self):
        plan = route_plan(CONFIG_D, (None, 4, None, None))  # MM1 low half-word
        assert plan.keep == 0xFFFF_FFFF_0000_FFFF
        assert plan.terms == ((1, 0, 0xFFFF, 16),)

    def test_modes_are_per_granule_terms(self):
        plan = route_plan(CONFIG_D_MODED, ((4, "neg"), 5, (6, "sxb"), None))
        assert [term[-1] for term in plan.moded] == ["neg", "sxb"]
        assert plan.terms == ((1, 16, 0xFFFF, 16),)

    def test_cached_by_config_and_route(self):
        route = (3, 2, 1, 0)
        assert route_plan(CONFIG_D, route) is route_plan(CONFIG_D, tuple(route))
        assert route_plan(CONFIG_C, route) is not route_plan(CONFIG_D, route)
