"""Internal utilities and the exception hierarchy."""

import time

import numpy as np
import pytest

from repro import (
    BudgetExceededError,
    GraphFormatError,
    GraphValidationError,
    IndexBuildError,
    QueryError,
    ReproError,
    VertexError,
)
from repro._util import (
    Stopwatch,
    TimeBudget,
    check_random_state,
    format_bytes,
    format_seconds,
)


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exc_class", [
        GraphFormatError, GraphValidationError, IndexBuildError,
        QueryError, BudgetExceededError,
    ])
    def test_all_derive_from_repro_error(self, exc_class):
        if exc_class is BudgetExceededError:
            instance = exc_class("x", kind="time")
        else:
            instance = exc_class("x")
        assert isinstance(instance, ReproError)

    def test_vertex_error_message(self):
        err = VertexError(5, 3)
        assert "5" in str(err)
        assert err.num_vertices == 3
        assert isinstance(err, IndexError)

    def test_budget_kind_validated(self):
        with pytest.raises(ValueError):
            BudgetExceededError("x", kind="patience")


class TestTimeBudget:
    def test_check_passes_within_budget(self):
        TimeBudget(10.0).check()  # must not raise

    def test_check_raises_after_deadline(self):
        budget = TimeBudget(0.01)
        time.sleep(0.02)
        with pytest.raises(BudgetExceededError) as info:
            budget.check()
        assert info.value.kind == "time"

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            TimeBudget(0)

    def test_remaining_decreases(self):
        budget = TimeBudget(5.0)
        first = budget.remaining
        time.sleep(0.01)
        assert budget.remaining < first


class TestStopwatch:
    def test_measures_time(self):
        with Stopwatch() as sw:
            time.sleep(0.01)
        assert sw.elapsed >= 0.01


class TestFormatting:
    def test_format_bytes(self):
        assert format_bytes(10) == "10B"
        assert format_bytes(2048) == "2.00KB"
        assert format_bytes(3 * 1024 ** 2) == "3.00MB"
        assert format_bytes(5 * 1024 ** 3) == "5.00GB"

    def test_format_seconds(self):
        assert format_seconds(5e-7).endswith("us")
        assert format_seconds(0.005).endswith("ms")
        assert format_seconds(2.5) == "2.50s"


class TestRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_seeded(self):
        a = check_random_state(7).integers(1000)
        b = check_random_state(7).integers(1000)
        assert a == b

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert check_random_state(rng) is rng
