"""Lazily evaluated expressions over unread database values.

A transaction that wants to update a value it has not read yet builds an
expression tree instead of a concrete value.  The leaves are either constants
or futures (placeholders for the value of some key, allocated by
read_future).  The tree is handed to the engine, which resolves it at commit
time once the underlying values are known.

Values are dynamically typed: signed 64-bit ints, UTF-8 strings, and bools.
Type errors (adding a string, concatenating an int, ...) surface at
resolution time, not construction time, because the operand types are not
known until the futures are bound.  Int overflow is likewise a resolution
error: silently wrapping a stock counter or a balance would corrupt the very
semantics the conditions are protecting.

Expressions are immutable after construction and share children by
reference, so they can be transferred into a concurrent commit without
copying or locking.  Handle allocation is transaction-local and
single-threaded (one client thread per transaction).
"""

from __future__ import annotations

import operator
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Tuple, Union)

INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1

Value = Union[int, str, bool]


class ResolutionError(Exception):
    """Base for errors raised while resolving an expression; aborts the txn."""


class UnboundHandle(ResolutionError):
    """A future leaf has no binding in the supplied resolved-values map."""


class TypeMismatch(ResolutionError):
    """Operand kinds do not fit the operator."""


class IntOverflow(ResolutionError):
    """Arithmetic left the signed 64-bit range."""


class ArityError(ValueError):
    """compose() called with the wrong number of children for the kind."""


class FutureHandle(NamedTuple):
    """Placeholder for the value of `key`, unique within one transaction.

    A tuple, so that hashing and comparing one (every lookup in a resolved
    values map) run in C rather than in a Python-level method."""

    id: int
    key: str


# Operator kinds and their arities.  "const" and "read" are leaves built via
# const()/read(), not compose().  "str" renders an int in decimal; it exists
# so int counters can feed string keys (order ids and the like).
ARITY = {
    "add": 2,
    "sub": 2,
    "concat": 2,
    "ge": 2,
    "gt": 2,
    "le": 2,
    "lt": 2,
    "eq": 2,
    "and": 2,
    "or": 2,
    "not": 1,
    "str": 1,
}
KINDS = frozenset(ARITY) | {"const", "read"}


_NO_HANDLES: FrozenSet[FutureHandle] = frozenset()


class Expr:
    """One node of an expression tree; compares and hashes structurally.

    Nodes are never modified after construction, so `handles`, the set of
    futures the tree reads, is computed once here from the children's sets
    and every later `keys()` call is a lookup rather than a walk."""

    __slots__ = ("kind", "value", "handle", "children", "handles")

    def __init__(self, kind: str, value: Optional[Value] = None,
                 handle: Optional[FutureHandle] = None,
                 children: Tuple["Expr", ...] = ()):
        self.kind = kind
        self.value = value
        self.handle = handle
        self.children = children
        hs = _NO_HANDLES if handle is None else frozenset((handle,))
        for c in children:
            if c.handles:
                hs = c.handles if not hs else hs | c.handles
        self.handles: FrozenSet[FutureHandle] = hs

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Expr:
            return NotImplemented
        return (self.kind == other.kind and self.value == other.value
                and self.handle == other.handle
                and self.children == other.children)

    def __hash__(self):
        return hash((self.kind, self.value, self.handle, self.children))

    def __repr__(self):
        return to_sexpr(self)


def value_kind(v: Value) -> str:
    # bool must be tested before int: Python bools are ints.
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, str):
        return "str"
    raise TypeMismatch("unsupported value type: %r" % (type(v).__name__,))


def const(v: Value) -> Expr:
    kind = value_kind(v)
    if kind == "int" and not (INT_MIN <= v <= INT_MAX):
        raise IntOverflow("constant out of 64-bit range: %d" % v)
    return Expr("const", value=v)


def read(h: FutureHandle) -> Expr:
    return Expr("read", handle=h)


def compose(kind: str, children: Iterable[Expr]) -> Expr:
    kids = tuple(children)
    if kind not in ARITY:
        raise ArityError("unknown operator kind: %r" % (kind,))
    if len(kids) != ARITY[kind]:
        raise ArityError(
            "%s takes %d children, got %d" % (kind, ARITY[kind], len(kids))
        )
    for k in kids:
        if not isinstance(k, Expr):
            raise TypeError("children must be Expr, got %r" % (type(k).__name__,))
    return Expr(kind, children=kids)


# Convenience constructors; these are the client-facing operation library.
def add(a: Expr, b: Expr) -> Expr:
    return compose("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    return compose("sub", (a, b))


def concat(a: Expr, b: Expr) -> Expr:
    return compose("concat", (a, b))


def ge(a: Expr, b: Expr) -> Expr:
    return compose("ge", (a, b))


def gt(a: Expr, b: Expr) -> Expr:
    return compose("gt", (a, b))


def le(a: Expr, b: Expr) -> Expr:
    return compose("le", (a, b))


def lt(a: Expr, b: Expr) -> Expr:
    return compose("lt", (a, b))


def eq(a: Expr, b: Expr) -> Expr:
    return compose("eq", (a, b))


def and_(a: Expr, b: Expr) -> Expr:
    return compose("and", (a, b))


def or_(a: Expr, b: Expr) -> Expr:
    return compose("or", (a, b))


def not_(a: Expr) -> Expr:
    return compose("not", (a,))


def to_str(a: Expr) -> Expr:
    return compose("str", (a,))


def read_future(key: str, ctx) -> Expr:
    """Create a future for the current value of `key`.  Purely local: no
    storage round-trip happens here; the read is deferred to commit.

    If the transaction already buffered a write to `key`, the buffered
    expression itself is returned (read-your-own-writes) and no handle is
    allocated.
    """
    ctx.require_active()
    buffered = ctx.buffered_write(key)
    if buffered is not None:
        return buffered
    return read(ctx.new_future(key))


def keys(e: Expr) -> FrozenSet[FutureHandle]:
    """The future handles e depends on (its read leaves)."""
    return e.handles


ResolvedValues = Dict[FutureHandle, Value]


def _check_int(v: int) -> int:
    if not (INT_MIN <= v <= INT_MAX):
        raise IntOverflow("result out of 64-bit range: %d" % v)
    return v


# operator kind -> (operand types it accepts, function); the operands of a
# binary operator must also be of one type
_OPS = {
    "add": ((int,), lambda a, b: _check_int(a + b)),
    "sub": ((int,), lambda a, b: _check_int(a - b)),
    "concat": ((str,), operator.add),
    "ge": ((int, str), operator.ge),
    "gt": ((int, str), operator.gt),
    "le": ((int, str), operator.le),
    "lt": ((int, str), operator.lt),
    "eq": ((int, str, bool), operator.eq),
    "and": ((bool,), lambda a, b: a and b),
    "or": ((bool,), lambda a, b: a or b),
    "not": ((bool,), operator.not_),
    "str": ((int,), str),
}
_TYPE_OF_KIND = {"int": int, "str": str, "bool": bool}


def _kind_type(v: Value) -> type:
    """The built-in type v counts as (an int subclass counts as int)."""
    return _TYPE_OF_KIND[value_kind(v)]


def resolve(e: Expr, rv: ResolvedValues) -> Value:
    """Evaluate e bottom-up against the handle bindings in rv.

    Deterministic and pure: equal inputs give equal outputs.  Raises
    UnboundHandle if a read leaf is missing from rv, TypeMismatch on operand
    kind violations, IntOverflow when arithmetic leaves the 64-bit range.
    Every child is evaluated before the operator is applied, so an error in
    any operand surfaces even where the result would not need it.
    """
    k = e.kind
    if k == "const":
        return e.value
    if k == "read":
        try:
            return rv[e.handle]
        except KeyError:
            raise UnboundHandle("no value bound for %r" % (e.handle,)) from None
    types, fn = _OPS[k]
    ch = e.children
    a = resolve(ch[0], rv)
    if len(ch) == 1:
        if a.__class__ in types or _kind_type(a) in types:
            return fn(a)
        raise TypeMismatch("%s needs a %s operand, got %s"
                           % (k, types[0].__name__, value_kind(a)))
    b = resolve(ch[1], rv)
    ta = a.__class__
    if ta is b.__class__ and ta in types:
        return fn(a, b)
    ta, tb = _kind_type(a), _kind_type(b)
    if ta is tb and ta in types:
        return fn(a, b)
    raise TypeMismatch("%s needs two %s operands of one kind, got %s and %s"
                       % (k, " or ".join(t.__name__ for t in types),
                          ta.__name__, tb.__name__))


# ---------------------------------------------------------------------------
# Textual encoding, for logs and test fixtures.
#
# Grammar (whitespace-separated):
#   expr   := "(" "const" atom ")"
#           | "(" "read" handle ")"
#           | "(" op expr... ")"
#   atom   := integer | "true" | "false" | quoted string ("..." with \" \\ \n \t)
#   handle := "h" integer
#   op     := add sub concat ge gt le lt eq and or not str
# Handles are printed as h<id>; decoding takes a name->FutureHandle table so
# the caller controls which transaction's handles the text refers to.
# ---------------------------------------------------------------------------

def _atom_to_text(v: Value) -> str:
    k = value_kind(v)
    if k == "bool":
        return "true" if v else "false"
    if k == "int":
        return str(v)
    out = v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return '"' + out + '"'


def to_sexpr(e: Expr) -> str:
    if e.kind == "const":
        return "(const %s)" % _atom_to_text(e.value)
    if e.kind == "read":
        return "(read h%d)" % e.handle.id
    return "(%s %s)" % (e.kind, " ".join(to_sexpr(c) for c in e.children))


_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _tokenize(text: str) -> List[str]:
    toks: List[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            toks.append(c)
            i += 1
        elif c == '"':
            j = i + 1
            buf = []
            while j < len(text):
                if text[j] == "\\":
                    if j + 1 == len(text):
                        raise ValueError("unterminated string literal")
                    esc = text[j + 1]
                    if esc not in _ESCAPES:
                        raise ValueError("unknown escape \\%s at %d" % (esc, j))
                    buf.append(_ESCAPES[esc])
                    j += 2
                elif text[j] == '"':
                    break
                else:
                    buf.append(text[j])
                    j += 1
            else:
                raise ValueError("unterminated string literal")
            toks.append('"' + "".join(buf))  # leading quote marks a str token
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            toks.append(text[i:j])
            i = j
    return toks


def from_sexpr(text: str, handles: Optional[Dict[str, FutureHandle]] = None) -> Expr:
    """Parse the textual encoding back into an Expr.

    handles maps the printed names ("h1", "h2", ...) to live FutureHandle
    objects; omitting it makes any (read ...) a parse error.
    """
    toks = _tokenize(text)
    pos = 0

    def need() -> str:
        nonlocal pos
        if pos >= len(toks):
            raise ValueError("unexpected end of input")
        t = toks[pos]
        pos += 1
        return t

    def peek() -> str:
        if pos >= len(toks):
            raise ValueError("unexpected end of input")
        return toks[pos]

    def parse() -> Expr:
        nonlocal pos
        if need() != "(":
            raise ValueError("expected ( at token %d" % (pos - 1))
        head = need()
        if head == "const":
            t = need()
            if t == "true":
                node = const(True)
            elif t == "false":
                node = const(False)
            elif t.startswith('"'):
                node = const(t[1:])
            else:
                node = const(int(t))
        elif head == "read":
            name = need()
            if handles is None or name not in handles:
                raise ValueError("unknown handle %r" % name)
            node = read(handles[name])
        else:
            kids = []
            while peek() != ")":
                kids.append(parse())
            pos += 1
            return compose(head, kids)
        if need() != ")":
            raise ValueError("expected ) at token %d" % (pos - 1))
        return node

    e = parse()
    if pos != len(toks):
        raise ValueError("trailing tokens after expression")
    return e
