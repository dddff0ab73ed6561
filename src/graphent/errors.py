"""Exception types shared across the package, and the JSON readers' repeated-key check."""


class GraphentError(Exception):
    """Base class for all library errors."""


class ValidationError(GraphentError, ValueError):
    """Malformed input or a violated operation precondition."""


class ResourceCapError(GraphentError, RuntimeError):
    """Requested simulation exceeds the configured qubit cap."""


class ConsistencyError(GraphentError, RuntimeError):
    """Internal invariant violated (norm drift, nonreal expectation); indicates a bug."""


def _unique_keys(what: str, pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; a repeated key raises, where ``json`` keeps the last.

    An ``object_pairs_hook`` for ``json.loads`` once ``what``, the input's
    name in the message, is bound with ``functools.partial``.
    """
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError(f"{what} repeats the key {key!r}")
            seen.add(key)
    return obj
