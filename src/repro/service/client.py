"""The one client surface over the tuning service.

:class:`ServiceClient` wraps a :class:`~repro.service.TuningService` (or
any object speaking ``resolve(TuneRequest) -> TuneResponse``) behind
exactly that call, plus a default tenant so subsystem code (the
scheduler's workers, the survey driver) can tag all its traffic without
threading tenancy through every call site.  One client per tenant is
the usual shape::

    service = TuningService(store_dir=..., admission=TenantAdmission())
    client = ServiceClient(service, tenant="apertif-survey")
    response = client.resolve(TuneRequest(setup="apertif", n_dms=256,
                                          device="HD7970"))
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import PipelineError
from repro.service.request import TuneRequest, TuneResponse


class ServiceClient:
    """A uniform front over anything that resolves tune requests.

    Parameters
    ----------
    backend:
        A :class:`~repro.service.TuningService`, or any object exposing
        ``resolve(TuneRequest) -> TuneResponse``.
    tenant:
        Default tenant stamped on requests that carry the dataclass
        default (``"default"``); a request naming its own tenant wins.
    """

    def __init__(self, backend, tenant: str | None = None):
        resolve = getattr(backend, "resolve", None)
        if not callable(resolve):
            raise PipelineError(
                f"backend {type(backend).__name__} does not expose "
                "resolve(request); pass a TuningService"
            )
        self.backend = backend
        self.tenant = tenant

    def resolve(self, request: TuneRequest) -> TuneResponse:
        """The tuned answer for ``request`` from the wrapped backend."""
        if not isinstance(request, TuneRequest):
            raise PipelineError(
                f"resolve() takes a TuneRequest, got {type(request).__name__}"
            )
        if self.tenant is not None and request.tenant == "default":
            request = replace(request, tenant=self.tenant)
        return self.backend.resolve(request)

    def close(self, wait: bool = True) -> None:
        """Close the wrapped backend (if it is closable)."""
        close = getattr(self.backend, "close", None)
        if callable(close):
            close(wait=wait)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
