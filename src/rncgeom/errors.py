"""Exception types shared across the package."""

import json
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
    """Re-raise what decoding a badly shaped JSON document throws (a missing
    key, a number where a list belongs) as ValueError, the input-error
    type the command line reports with exit code 2."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"malformed {what}: missing key {exc}") from None
    except (TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from None


_JSON_TYPES = {int: "a JSON integer", bool: "a JSON boolean",
               str: "a JSON string", dict: "a JSON object",
               list: "a JSON array", type(None): "null"}


def json_typed(value, what: str, *types: type):
    """The value if its type is exactly one of types (int, bool, str, dict
    or NoneType), refusing what int() or bool() would quietly convert: a
    bool is no integer here, and the string "false" no boolean.  A wrong
    array or object is named by its type, a wrong scalar written as JSON
    spells it."""
    if type(value) not in types:
        kinds = " or ".join(_JSON_TYPES[t] for t in types)
        got = (_JSON_TYPES[type(value)] if type(value) in (list, dict)
               else json.dumps(value, ensure_ascii=False))
        raise TypeError(f"{what} must be {kinds}, got {got}")
    return value


def json_int(value, what: str) -> int:
    """A JSON integer, refusing the bool, float or string that int() would
    quietly convert."""
    return json_typed(value, what, int)
