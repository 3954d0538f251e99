"""Expression tree construction, resolution, and the textual encoding."""

import random

import pytest

from lazykv import futexpr
from lazykv.futexpr import (ArityError, Expr, FutureHandle, IntOverflow,
                            TypeMismatch, UnboundHandle, add, and_, compose,
                            concat, const, eq, from_sexpr, ge, gt, keys, le,
                            lt, not_, or_, read, resolve, sub, to_sexpr,
                            to_str)

H1 = FutureHandle(1, "a")
H2 = FutureHandle(2, "b")


def substitute(e: Expr, rv) -> Expr:
    """Brute-force reference: replace each read leaf with the bound
    constant, keep everything else structurally identical."""
    if e.kind == "const":
        return e
    if e.kind == "read":
        return const(rv[e.handle])
    return compose(e.kind, [substitute(c, rv) for c in e.children])


class TestResolveExamples:
    def test_sub_of_read(self):
        assert resolve(sub(read(H1), const(10)), {H1: 42}) == 32

    def test_ge_of_read(self):
        assert resolve(ge(read(H1), const(10)), {H1: 42}) is True

    def test_unbound_read(self):
        with pytest.raises(UnboundHandle):
            resolve(read(H1), {})


class TestResolveSemantics:
    def test_const_identity(self):
        for v in (0, -3, "x", "", True, False):
            assert resolve(const(v), {}) == v

    def test_arithmetic(self):
        assert resolve(add(const(2), const(3)), {}) == 5
        assert resolve(sub(const(2), const(3)), {}) == -1

    def test_concat_and_str(self):
        e = concat(const("order:"), to_str(const(7)))
        assert resolve(e, {}) == "order:7"

    def test_comparisons(self):
        assert resolve(gt(const(3), const(2)), {}) is True
        assert resolve(le(const(3), const(2)), {}) is False
        assert resolve(lt(const("a"), const("b")), {}) is True
        assert resolve(eq(const("a"), const("a")), {}) is True
        assert resolve(eq(const(True), const(False)), {}) is False

    def test_boolean_ops(self):
        e = or_(and_(const(True), const(False)), not_(const(False)))
        assert resolve(e, {}) is True

    def test_type_errors(self):
        with pytest.raises(TypeMismatch):
            resolve(add(const(1), const("x")), {})
        with pytest.raises(TypeMismatch):
            resolve(concat(const(1), const("x")), {})
        with pytest.raises(TypeMismatch):
            resolve(ge(const(1), const("x")), {})
        with pytest.raises(TypeMismatch):
            resolve(and_(const(1), const(True)), {})
        with pytest.raises(TypeMismatch):
            resolve(to_str(const("already")), {})

    def test_eq_rejects_cross_kind(self):
        with pytest.raises(TypeMismatch):
            resolve(eq(const(1), const("1")), {})

    def test_int_overflow(self):
        big = 2 ** 63 - 1
        assert resolve(add(const(big), const(0)), {}) == big
        with pytest.raises(IntOverflow):
            resolve(add(const(big), const(1)), {})
        with pytest.raises(IntOverflow):
            resolve(sub(const(-(2 ** 63)), const(1)), {})

    def test_determinism(self):
        e = add(sub(read(H1), const(3)), read(H2))
        rv = {H1: 10, H2: 4}
        assert resolve(e, rv) == resolve(e, rv) == 11

    def test_keys(self):
        e = and_(ge(read(H1), const(0)), eq(read(H2), const("x")))
        assert keys(e) == {H1, H2}
        assert keys(const(1)) == set()

    def test_keys_soundness(self):
        # binding every handle in keys(e) precludes UnboundHandle
        e = add(read(H1), read(H2))
        assert resolve(e, {H1: 1, H2: 2}) == 3

    def test_arity_checks(self):
        with pytest.raises(ArityError):
            compose("add", [const(1)])
        with pytest.raises(ArityError):
            compose("not", [const(True), const(False)])
        with pytest.raises(ValueError):
            compose("frobnicate", [const(1), const(2)])

    def test_const_rejects_foreign_kinds(self):
        with pytest.raises(TypeMismatch):
            const(1.5)
        with pytest.raises(TypeMismatch):
            const(None)
        with pytest.raises(IntOverflow):
            const(2 ** 63)


# -- randomized substitution property ---------------------------------------

_INT_OPS = ("add", "sub")
_CMP_OPS = ("ge", "gt", "le", "lt")
_BOOL_OPS = ("and", "or")


def _gen(rng: random.Random, want: str, handles, depth: int) -> Expr:
    """Random expression of value kind `want` over the given handle pool.
    A small slice of draws ignores the wanted kind to exercise the error
    paths; the substitution property must hold for those too."""
    if rng.random() < 0.06:
        want = rng.choice(("int", "str", "bool"))
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.4 and handles:
            return read(rng.choice(handles))
        if want == "int":
            return const(rng.randint(-50, 50))
        if want == "str":
            return const(rng.choice(["", "a", "xy", "order:"])
                         )
        return const(rng.random() < 0.5)
    if want == "int":
        op = rng.choice(_INT_OPS)
        return compose(op, [_gen(rng, "int", handles, depth - 1),
                            _gen(rng, "int", handles, depth - 1)])
    if want == "str":
        if rng.random() < 0.5:
            return compose("str", [_gen(rng, "int", handles, depth - 1)])
        return compose("concat", [_gen(rng, "str", handles, depth - 1),
                                  _gen(rng, "str", handles, depth - 1)])
    roll = rng.random()
    if roll < 0.35:
        k = rng.choice(("int", "str"))
        return compose(rng.choice(_CMP_OPS),
                       [_gen(rng, k, handles, depth - 1),
                        _gen(rng, k, handles, depth - 1)])
    if roll < 0.5:
        k = rng.choice(("int", "str", "bool"))
        return compose("eq", [_gen(rng, k, handles, depth - 1),
                              _gen(rng, k, handles, depth - 1)])
    if roll < 0.85:
        return compose(rng.choice(_BOOL_OPS),
                       [_gen(rng, "bool", handles, depth - 1),
                        _gen(rng, "bool", handles, depth - 1)])
    return compose("not", [_gen(rng, "bool", handles, depth - 1)])


def _random_env(rng: random.Random, handles):
    env = {}
    for h in handles:
        roll = rng.random()
        if roll < 0.5:
            env[h] = rng.randint(-40, 40)
        elif roll < 0.8:
            env[h] = rng.choice(["", "a", "zz"])
        else:
            env[h] = rng.random() < 0.5
    return env


def _outcome(e: Expr, rv):
    try:
        return ("ok", resolve(e, rv))
    except futexpr.ResolutionError as err:
        return ("err", type(err))


def test_substitution_property_1000():
    rng = random.Random(20260822)
    handles = [FutureHandle(i, "k%d" % i) for i in range(4)]
    checked = 0
    for _ in range(1000):
        e = _gen(rng, rng.choice(("int", "str", "bool")), handles, 3)
        rv = _random_env(rng, handles)
        direct = _outcome(e, rv)
        substituted = _outcome(substitute(e, rv), {})
        assert direct == substituted, (to_sexpr(e), rv, direct, substituted)
        checked += 1
    assert checked == 1000


# -- textual encoding --------------------------------------------------------

class TestSexpr:
    def test_round_trip_structure(self):
        rng = random.Random(7)
        handles = [FutureHandle(i, "k%d" % i) for i in range(3)]
        table = {"h%d" % h.id: h for h in handles}
        for _ in range(200):
            e = _gen(rng, rng.choice(("int", "str", "bool")), handles, 3)
            assert from_sexpr(to_sexpr(e), table) == e

    def test_string_escapes(self):
        e = concat(const('say "hi"\n'), const("\\"))
        assert from_sexpr(to_sexpr(e)) == e

    def test_known_text(self):
        e = sub(read(H1), const(10))
        assert to_sexpr(e) == "(sub (read h1) (const 10))"
        assert from_sexpr("(sub (read h1) (const 10))", {"h1": H1}) == e

    def test_bool_atoms(self):
        assert to_sexpr(const(True)) == "(const true)"
        assert from_sexpr("(const false)") == const(False)

    def test_tab_escape(self):
        assert from_sexpr('(const "a\\tb")') == const("a\tb")

    def test_bad_escapes_rejected(self):
        # an unknown escape, and a backslash that ends the input
        for text in ['(const "a\\q")', '(const "a\\']:
            with pytest.raises(ValueError):
                from_sexpr(text)

    def test_unknown_handle_rejected(self):
        with pytest.raises(ValueError):
            from_sexpr("(read h9)", {})

    def test_malformed(self):
        for text in ["(", "(add (const 1))", "(const)", "()", "(read x)"]:
            with pytest.raises(ValueError):
                from_sexpr(text)
