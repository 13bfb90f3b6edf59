"""Validation and resolution semantics of TuneRequest/TuneResponse."""

import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif, lofar
from repro.errors import ValidationError
from repro.hardware.catalog import hd7970
from repro.service import TuneRequest

DEVICE = hd7970()


class TestValidation:
    @pytest.mark.parametrize("n_dms", [0, -4, "many", 3.5])
    def test_rejects_bad_n_dms(self, n_dms):
        with pytest.raises(ValidationError):
            TuneRequest(setup="apertif", n_dms=n_dms, device="HD7970")

    def test_request_is_frozen(self):
        request = TuneRequest(setup="apertif", n_dms=32, device="HD7970")
        with pytest.raises(Exception):
            request.n_dms = 64


class TestResolution:
    def test_names_resolve_to_catalogue_objects(self):
        request = TuneRequest(setup="apertif", n_dms=32, device="HD7970")
        assert request.resolved_setup().name == apertif().name
        assert request.resolved_device().name == DEVICE.name
        assert request.resolved_grid().n_dms == 32

    def test_objects_pass_through_unchanged(self):
        grid = DMTrialGrid(n_dms=64)
        request = TuneRequest(setup=lofar(), n_dms=grid, device=DEVICE)
        assert request.resolved_setup() is request.setup
        assert request.resolved_device() is DEVICE
        assert request.resolved_grid() is grid

    def test_unknown_setup_name_rejected(self):
        request = TuneRequest(setup="ska-mid", n_dms=32, device="HD7970")
        with pytest.raises(ValidationError, match="unknown setup"):
            request.resolved_setup()

    def test_key_is_identical_for_names_and_objects(self):
        by_name = TuneRequest(setup="apertif", n_dms=32, device="HD7970")
        by_object = TuneRequest(
            setup=apertif(), n_dms=DMTrialGrid(n_dms=32), device=DEVICE
        )
        assert by_name.key() == by_object.key()

    def test_key_ignores_strategy(self):
        base = TuneRequest(setup="apertif", n_dms=32, device="HD7970")
        varied = TuneRequest(
            setup="apertif", n_dms=32, device="HD7970", strategy="halving"
        )
        assert base.key() == varied.key()
