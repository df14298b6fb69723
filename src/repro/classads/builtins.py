"""Built-in functions of the ClassAd language.

Each entry in :data:`BUILTINS` maps a lower-cased function name to
``(callable, lazy)``.  Eager functions receive evaluated argument values;
lazy functions (``ifThenElse``) receive unevaluated expressions plus the
context.  Per ClassAd convention, bad arity or argument types produce the
ERROR value rather than raising.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable

from .values import ERROR, UNDEFINED, is_number, is_special


def _strcat(ctx, args):
    out = []
    for a in args:
        if a is ERROR:
            return ERROR
        if a is UNDEFINED:
            return UNDEFINED
        if isinstance(a, str):
            out.append(a)
        elif isinstance(a, bool):
            out.append("true" if a else "false")
        elif is_number(a):
            out.append(str(a))
        else:
            return ERROR
    return "".join(out)


def _substr(ctx, args):
    if not 2 <= len(args) <= 3:
        return ERROR
    s, offset = args[0], args[1]
    for a in args:
        if is_special(a):
            return a
    if not isinstance(s, str) or isinstance(offset, bool) or \
            not isinstance(offset, int):
        return ERROR
    if offset < 0:
        offset = max(0, len(s) + offset)
    if len(args) == 3:
        length = args[2]
        if isinstance(length, bool) or not isinstance(length, int):
            return ERROR
        if length < 0:
            return s[offset:len(s) + length]
        return s[offset:offset + length]
    return s[offset:]


def _size(ctx, args):
    from .classad import ClassAd

    if len(args) != 1:
        return ERROR
    v = args[0]
    if is_special(v):
        return v
    if isinstance(v, (str, list)):
        return len(v)
    if isinstance(v, ClassAd):
        return len(v)
    return ERROR


def _str_fn(fn: Callable[[str], str]):
    def inner(ctx, args):
        if len(args) != 1:
            return ERROR
        v = args[0]
        if is_special(v):
            return v
        if not isinstance(v, str):
            return ERROR
        return fn(v)
    return inner


def _to_int(ctx, args):
    if len(args) != 1:
        return ERROR
    v = args[0]
    if is_special(v):
        return v
    if isinstance(v, bool):
        return int(v)
    if is_number(v):
        return int(v)
    if isinstance(v, str):
        try:
            return int(float(v.strip()))
        except ValueError:
            return ERROR
    return ERROR


def _to_real(ctx, args):
    if len(args) != 1:
        return ERROR
    v = args[0]
    if is_special(v):
        return v
    if isinstance(v, bool):
        return float(v)
    if is_number(v):
        return float(v)
    if isinstance(v, str):
        try:
            return float(v.strip())
        except ValueError:
            return ERROR
    return ERROR


def _to_string(ctx, args):
    from .values import value_repr

    if len(args) != 1:
        return ERROR
    v = args[0]
    if is_special(v):
        return v
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if is_number(v):
        return str(v)
    return value_repr(v)


def _round_fn(fn: Callable[[float], float]):
    def inner(ctx, args):
        if len(args) != 1:
            return ERROR
        v = args[0]
        if is_special(v):
            return v
        if isinstance(v, bool) or not is_number(v):
            return ERROR
        return int(fn(v))
    return inner


def _random(ctx, args):
    rng = ctx.rng
    if rng is None:
        return ERROR
    if len(args) == 0:
        return rng.random()
    if len(args) == 1:
        v = args[0]
        if is_special(v):
            return v
        if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
            return ERROR
        return rng.randrange(v)
    return ERROR


def _type_check(predicate: Callable[[Any], bool]):
    def inner(ctx, args):
        if len(args) != 1:
            return ERROR
        return predicate(args[0])
    return inner


def _member(ctx, args):
    if len(args) != 2:
        return ERROR
    v, lst = args
    if is_special(v):
        return v
    if lst is ERROR:
        return ERROR
    if lst is UNDEFINED:
        return UNDEFINED
    if not isinstance(lst, list):
        return ERROR
    for item in lst:
        if isinstance(v, str) and isinstance(item, str):
            if v.lower() == item.lower():
                return True
        elif is_number(v) and is_number(item):
            if v == item:
                return True
        elif isinstance(v, bool) and isinstance(item, bool):
            if v == item:
                return True
    return False


def _split_string_list(s: str, delims: str = " ,") -> list[str]:
    out, cur = [], []
    for ch in s:
        if ch in delims:
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def _string_list_member(ctx, args):
    if not 2 <= len(args) <= 3:
        return ERROR
    for a in args:
        if is_special(a):
            return a
    x, s = args[0], args[1]
    delims = args[2] if len(args) == 3 else " ,"
    if not (isinstance(x, str) and isinstance(s, str)
            and isinstance(delims, str)):
        return ERROR
    return any(x.lower() == m.lower() for m in _split_string_list(s, delims))


def _string_list_size(ctx, args):
    if not 1 <= len(args) <= 2:
        return ERROR
    for a in args:
        if is_special(a):
            return a
    s = args[0]
    delims = args[1] if len(args) == 2 else " ,"
    if not (isinstance(s, str) and isinstance(delims, str)):
        return ERROR
    return len(_split_string_list(s, delims))


def _regexp(ctx, args):
    if not 2 <= len(args) <= 3:
        return ERROR
    for a in args:
        if is_special(a):
            return a
    pattern, target = args[0], args[1]
    options = args[2] if len(args) == 3 else ""
    if not (isinstance(pattern, str) and isinstance(target, str)
            and isinstance(options, str)):
        return ERROR
    flags = 0
    if "i" in options.lower():
        flags |= re.IGNORECASE
    try:
        return re.search(pattern, target, flags) is not None
    except re.error:
        return ERROR


def _if_then_else(ctx, exprs):
    from .ast import _truth

    if len(exprs) != 3:
        return ERROR
    c = _truth(exprs[0].eval(ctx))
    if c is True:
        return exprs[1].eval(ctx)
    if c is False:
        return exprs[2].eval(ctx)
    return c


def _time(ctx, args):
    if args:
        return ERROR
    return int(ctx.now)


def _pow(ctx, args):
    if len(args) != 2:
        return ERROR
    for a in args:
        if is_special(a):
            return a
    a, b = args
    if isinstance(a, bool) or isinstance(b, bool):
        return ERROR
    if not (is_number(a) and is_number(b)):
        return ERROR
    try:
        result = math.pow(a, b)
    except (OverflowError, ValueError):
        return ERROR
    if isinstance(a, int) and isinstance(b, int) and b >= 0:
        return int(result)
    return result


def _abs(ctx, args):
    if len(args) != 1:
        return ERROR
    v = args[0]
    if is_special(v):
        return v
    if isinstance(v, bool) or not is_number(v):
        return ERROR
    return abs(v)


def _unparse(ctx, exprs):
    if len(exprs) != 1:
        return ERROR
    return str(exprs[0])


def _strcmp_impl(a, b):
    return -1 if a < b else (1 if a > b else 0)


def _strcmp(ctx, args):
    if len(args) != 2:
        return ERROR
    for v in args:
        if is_special(v):
            return v
        if not isinstance(v, str):
            return ERROR
    return _strcmp_impl(args[0], args[1])


def _stricmp(ctx, args):
    if len(args) != 2:
        return ERROR
    for v in args:
        if is_special(v):
            return v
        if not isinstance(v, str):
            return ERROR
    return _strcmp_impl(args[0].lower(), args[1].lower())


def _join(ctx, args):
    if len(args) < 1:
        return ERROR
    sep = args[0]
    if is_special(sep):
        return sep
    if not isinstance(sep, str):
        return ERROR
    if len(args) == 2 and isinstance(args[1], list):
        items = args[1]
    else:
        items = args[1:]
    parts = []
    for item in items:
        if is_special(item):
            return item
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, bool):
            parts.append("true" if item else "false")
        elif is_number(item):
            parts.append(str(item))
        else:
            return ERROR
    return sep.join(parts)


def _split(ctx, args):
    if not 1 <= len(args) <= 2:
        return ERROR
    for v in args:
        if is_special(v):
            return v
    s = args[0]
    delims = args[1] if len(args) == 2 else " ,"
    if not (isinstance(s, str) and isinstance(delims, str)):
        return ERROR
    return _split_string_list(s, delims)


def _numeric_list(args):
    """Flatten one list arg or varargs into numbers (None on error)."""
    items = args[0] if len(args) == 1 and isinstance(args[0], list) \
        else args
    out = []
    for v in items:
        if is_special(v):
            return v
        if isinstance(v, bool):
            out.append(int(v))
        elif is_number(v):
            out.append(v)
        else:
            return None
    return out


def _list_reduce(fn, empty=ERROR):
    def inner(ctx, args):
        if not args:
            return ERROR
        values = _numeric_list(args)
        if values is None:
            return ERROR
        if is_special(values):
            return values
        if not values:
            return empty
        return fn(values)
    return inner


def _is_undefined(v: Any) -> bool:
    return v is UNDEFINED


def _is_error(v: Any) -> bool:
    return v is ERROR


BUILTINS: dict[str, tuple[Callable, bool]] = {
    "strcat": (_strcat, False),
    "substr": (_substr, False),
    "size": (_size, False),
    "toupper": (_str_fn(str.upper), False),
    "tolower": (_str_fn(str.lower), False),
    "int": (_to_int, False),
    "real": (_to_real, False),
    "string": (_to_string, False),
    "floor": (_round_fn(math.floor), False),
    "ceiling": (_round_fn(math.ceil), False),
    "round": (_round_fn(lambda v: math.floor(v + 0.5)), False),
    "random": (_random, False),
    "pow": (_pow, False),
    "abs": (_abs, False),
    "isundefined": (_type_check(_is_undefined), False),
    "iserror": (_type_check(_is_error), False),
    "isstring": (_type_check(lambda v: isinstance(v, str)), False),
    "isinteger": (_type_check(
        lambda v: isinstance(v, int) and not isinstance(v, bool)), False),
    "isreal": (_type_check(lambda v: isinstance(v, float)), False),
    "isboolean": (_type_check(lambda v: isinstance(v, bool)), False),
    "islist": (_type_check(lambda v: isinstance(v, list)), False),
    "isclassad": (_type_check(
        lambda v: type(v).__name__ in ("ClassAd", "SealedClassAd")), False),
    "member": (_member, False),
    "stringlistmember": (_string_list_member, False),
    "stringlistsize": (_string_list_size, False),
    "regexp": (_regexp, False),
    "ifthenelse": (_if_then_else, True),
    "time": (_time, False),
    "unparse": (_unparse, True),
    "strcmp": (_strcmp, False),
    "stricmp": (_stricmp, False),
    "join": (_join, False),
    "split": (_split, False),
    "min": (_list_reduce(min), False),
    "max": (_list_reduce(max), False),
    "sum": (_list_reduce(sum), False),
    "avg": (_list_reduce(lambda v: sum(v) / len(v)), False),
}
