"""ServiceClient: the one request entrypoint over the tuning service.

Pins that client code speaks only ``resolve(TuneRequest)``, whatever
object answers it.
"""

import pytest

from repro.errors import PipelineError
from repro.service import ServiceClient, TuneRequest, TuningService


def request_32(**kwargs):
    return TuneRequest(setup="apertif", n_dms=32, device="HD7970", **kwargs)


class TestClientSurface:
    def test_client_resolves_through_a_service(self, tmp_path):
        with TuningService(store_dir=tmp_path) as service:
            single = ServiceClient(service).resolve(request_32())
        assert single.key == request_32().key()
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
