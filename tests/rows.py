"""Field positions in a request's outcome row, for tests that read one
field: ``(operation, ok, latency_ms, error, trace number, error_services)``
as ``ServiceRuntime.execute`` returns it and ``BatchResult.exemplars``
holds it."""

OK, LATENCY, ERROR, NUMBER, ERROR_SERVICES = range(1, 6)
