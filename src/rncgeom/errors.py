"""Exception types shared across the package."""

from contextlib import contextmanager


class MismatchError(ValueError):
    """Objects from different fields or ambient dimensions were combined."""


class DegenerateInputError(ValueError):
    """Input violates a nondegeneracy precondition (repeated points,
    singular frame, general-position failure)."""


class CharacteristicError(ValueError):
    """The field characteristic is too small for the requested degree."""


@contextmanager
def malformed_input(what: str):
    """Re-raise what decoding a badly shaped JSON document throws (a number
    where a list belongs, a scalar that is not a string) as ValueError, the
    input-error type the command line reports with exit code 2."""
    try:
        yield
    except (TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from None


def json_int(value, what: str) -> int:
    """A JSON integer, refusing the bool, float or string that int() would
    quietly convert."""
    if type(value) is not int:
        raise TypeError(f"{what} must be a JSON integer, got {value!r}")
    return value
