"""ServiceClient: one entrypoint over single service and fleet.

Pins the API-redesign acceptance criterion that the same
``resolve(TuneRequest)`` client code works unchanged against a single
:class:`TuningService` and a :class:`TuningFleet`.
"""

import pytest

from repro.errors import PipelineError
from repro.service import (
    ServiceClient,
    TuneRequest,
    TuningFleet,
    TuningService,
)


def request_32(**kwargs):
    return TuneRequest(setup="apertif", n_dms=32, device="HD7970", **kwargs)


class TestClientSurface:
    def test_same_client_code_works_on_service_and_fleet(self, tmp_path):
        with TuningService(store_dir=tmp_path / "single") as service:
            single = ServiceClient(service).resolve(request_32())
        with TuningFleet(replicas=2, store_dir=tmp_path / "fleet") as fleet:
            fanned = ServiceClient(fleet).resolve(request_32())
        assert single.key == fanned.key
        assert single.best.config == fanned.best.config
        assert fanned.replica is not None  # fleet provenance rides along
        assert single.replica is None or isinstance(single.replica, str)

    def test_client_stamps_default_tenant(self):
        seen = []

        class Recorder:
            def resolve(self, request):
                seen.append(request)
                return request  # good enough for the test

        client = ServiceClient(Recorder(), tenant="survey")
        client.resolve(request_32())
        client.resolve(request_32(tenant="explicit"))
        assert seen[0].tenant == "survey"  # default replaced
        assert seen[1].tenant == "explicit"  # caller's tenant wins

    def test_rejects_backend_without_resolve(self):
        with pytest.raises(PipelineError, match="resolve"):
            ServiceClient(object())

    def test_rejects_non_request_arguments(self):
        with TuningService(max_workers=1) as service:
            client = ServiceClient(service)
            with pytest.raises(PipelineError, match="TuneRequest"):
                client.resolve({"setup": "apertif"})

    def test_context_manager_closes_backend(self):
        closed = []

        class Closable:
            def resolve(self, request):
                return request

            def close(self, wait=True):
                closed.append(wait)

        with ServiceClient(Closable()):
            pass
        assert closed == [True]
