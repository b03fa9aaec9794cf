"""Tests for the analytic cost model (psu-opt, psu-noIO, pmu-cpu)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.scheduling import CostModel
from repro.workload import JoinQuery


def model(num_pe=60, **overrides):
    return CostModel(SystemConfig(num_pe=num_pe, **overrides))


def join(selectivity=0.01):
    return JoinQuery(scan_selectivity=selectivity)


# -- formula (3.1): psu-noIO -----------------------------------------------------
def test_psu_no_io_matches_paper_values():
    """Paper §5.2: psu-noIO = 3 for 1 %; §5.2 join complexity: 1 for 0.1 %, 14 for 5 %."""
    cm = model()
    assert cm.psu_no_io(join(0.01)) == 3
    assert cm.psu_no_io(join(0.001)) == 1
    assert cm.psu_no_io(join(0.05)) == 14


def test_psu_no_io_capped_by_system_size():
    cm = model(num_pe=10)
    assert cm.psu_no_io(join(0.5)) == 10


def test_psu_no_io_grows_when_memory_shrinks():
    from dataclasses import replace

    config = SystemConfig(num_pe=60)
    small_buffer = config.with_overrides(buffer=replace(config.buffer, buffer_pages=5))
    assert CostModel(small_buffer).psu_no_io(join(0.01)) > CostModel(config).psu_no_io(join(0.01))


@pytest.mark.parametrize("explicit_default_class", [False, True])
def test_psu_no_io_on_uniform_hardware_is_formula_3_1(explicit_default_class):
    """The capacity-vector form of psu-noIO reduces to the scalar formula
    (3.1), max(1, min(n, ceil(bi * F / m))), when every buffer pool is m."""
    import math
    from dataclasses import replace

    from repro.config.parameters import NodeClass

    node_classes = (NodeClass(name="plain", fraction=1.0),) if explicit_default_class else ()
    selectivities = (0.0001, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 1.0)
    fudge_factors = (1.0, 1.05, 1.1, 1.3, 1.5, 2.0)
    for buffer_pages in (25, 50, 333, 2500):
        for num_pe in (1, 2, 3, 7, 10, 40, 60, 160):
            config = SystemConfig(num_pe=num_pe, node_classes=node_classes)
            config = config.with_overrides(
                buffer=replace(config.buffer, buffer_pages=buffer_pages)
            )
            cm = CostModel(config)
            for selectivity in selectivities:
                for fudge in fudge_factors:
                    query = JoinQuery(scan_selectivity=selectivity, fudge_factor=fudge)
                    profile = cm.profile(query)
                    needed = profile.inner_pages * profile.fudge_factor
                    expected = max(1, min(num_pe, math.ceil(needed / buffer_pages)))
                    assert cm.psu_no_io(query) == expected, (
                        buffer_pages, num_pe, selectivity, fudge
                    )


# -- psu-opt -------------------------------------------------------------------------
def test_psu_opt_close_to_paper_values():
    """Paper: psu-opt ~ 10 / 30 / 70 for 0.1 / 1 / 5 % selectivity."""
    cm = model()
    assert 8 <= cm.psu_opt(join(0.001)) <= 12
    assert 25 <= cm.psu_opt(join(0.01)) <= 35
    assert 60 <= cm.psu_opt(join(0.05)) <= 80


def test_psu_opt_increases_with_join_size():
    cm = model()
    assert cm.psu_opt(join(0.001)) < cm.psu_opt(join(0.01)) < cm.psu_opt(join(0.05))


def test_psu_opt_can_exceed_system_size():
    cm = model(num_pe=60)
    assert cm.psu_opt(join(0.05)) >= 60


def test_response_time_curve_is_convex_around_optimum():
    """Fig. 1a: response time falls, reaches a minimum and rises again."""
    cm = model()
    query = join(0.01)
    optimum = cm.psu_opt(query)
    at_opt = cm.estimate_response_time(query, optimum)
    assert cm.estimate_response_time(query, 1) > at_opt
    assert cm.estimate_response_time(query, optimum * 3) > at_opt


def test_estimate_rejects_invalid_degree():
    with pytest.raises(ValueError):
        model().estimate_response_time(join(), 0)


def test_estimate_response_time_positive_and_finite():
    cm = model()
    for degree in (1, 5, 30, 100):
        value = cm.estimate_response_time(join(), degree)
        assert 0 < value < 60


# -- formula (3.2): pmu-cpu --------------------------------------------------------------
def test_pmu_cpu_equals_psu_opt_when_idle():
    cm = model()
    query = join(0.01)
    capped_su_opt = min(cm.config.num_pe, cm.psu_opt(query))
    assert cm.pmu_cpu(query, 0.0) == capped_su_opt


def test_pmu_cpu_decreases_with_utilization():
    cm = model()
    query = join(0.01)
    values = [cm.pmu_cpu(query, u) for u in (0.0, 0.5, 0.8, 0.95)]
    assert values == sorted(values, reverse=True)
    assert values[-1] >= 1


def test_pmu_cpu_reduction_small_below_half_utilization():
    """Formula 3.2 reduces mostly above 50 % utilisation."""
    cm = model()
    query = join(0.01)
    assert cm.pmu_cpu(query, 0.3) >= 0.9 * cm.pmu_cpu(query, 0.0)


def test_pmu_cpu_clamps_utilization():
    cm = model()
    query = join(0.01)
    assert cm.pmu_cpu(query, 1.5) == 1 or cm.pmu_cpu(query, 1.5) >= 1
    assert cm.pmu_cpu(query, -0.5) == cm.pmu_cpu(query, 0.0)


@settings(max_examples=30, deadline=None)
@given(utilization=st.floats(min_value=0.0, max_value=1.0))
def test_pmu_cpu_always_within_bounds(utilization):
    cm = model(num_pe=40)
    value = cm.pmu_cpu(join(0.01), utilization)
    assert 1 <= value <= 40


# -- join profile ---------------------------------------------------------------------------
def test_profile_tuple_counts_match_selectivity():
    cm = model()
    profile = cm.profile(join(0.01))
    assert profile.inner_tuples == 2_500
    assert profile.outer_tuples == 10_000
    assert profile.result_tuples == 2_500
    assert profile.inner_pages == 125
    assert profile.outer_pages == 500
    assert profile.hash_table_pages == 132  # 125 * 1.05 rounded up


def test_profile_respects_result_fraction():
    cm = model()
    query = JoinQuery(scan_selectivity=0.01, result_fraction_of_inner=0.5)
    assert cm.profile(query).result_tuples == 1_250
