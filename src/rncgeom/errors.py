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


_JSON_TYPES = {int: "a JSON integer", bool: "a JSON boolean",
               type(None): "null"}


def json_typed(value, what: str, *types: type):
    """The value if its type is exactly one of types (int, bool or
    NoneType), refusing what int() or bool() would quietly convert: a bool
    is no integer here, and the string "false" no boolean."""
    if type(value) not in types:
        kinds = " or ".join(_JSON_TYPES[t] for t in types)
        raise TypeError(f"{what} must be {kinds}, got {value!r}")
    return value


def json_int(value, what: str) -> int:
    """A JSON integer, refusing the bool, float or string that int() would
    quietly convert."""
    return json_typed(value, what, int)
