"""Scalar kernel: parsing, normalization, calculus, conjugation, zero tests."""

import cmath
import collections
import gc
import math
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crcgeo import scalars
from crcgeo.parsing import parse, tokenize
from crcgeo.scalars import (
    Add,
    Const,
    DomainEvalError,
    I,
    Mul,
    ParseError,
    Pow,
    QC,
    RealityViolationError,
    UndeclaredIdentifierError,
    Var,
    VariableTable,
    ZERO,
    ZeroTestInconclusiveError,
    certify_zero,
    conjugate,
    differentiate,
    evaluate,
    free_variables,
    is_identically_zero,
    is_zero_expr,
    normalize,
    substitute,
    to_text,
)

BOX = {"t1": (0.02, 0.08), "t2": (0.02, 0.08)}


@pytest.fixture()
def table():
    t = VariableTable()
    t.real("t1", "t2")
    t.positive("u")
    t.unit_modulus("a")
    t.pair("b", "bb")
    t.imaginary("lam")
    return t


def paper_rho(table):
    return parse("((1-12*t1*t2)^(3/2)+18*t1*t2-1)/(108*t2^2)", table)


def test_variable_is_a_frozen_value_of_its_three_fields(table):
    pair = table["b"]
    assert (pair.name, pair.reality, pair.partner) == ("b", scalars.COMPLEX_PAIRED, "bb")
    assert pair == scalars.Variable("b", scalars.COMPLEX_PAIRED, "bb") != table["bb"]
    # set and dict orders, and with them every output, follow this hash
    assert hash(pair) == hash(("b", scalars.COMPLEX_PAIRED, "bb"))
    assert hash(table["t1"]) == hash(("t1", scalars.REAL, None))
    with pytest.raises(AttributeError):
        pair.name = "c"
    assert repr(pair) == "Variable(b:complex_paired)"


# ---------------------------------------------------------------------------
# parsing


def test_parse_normalizes_power_quotient(table):
    e = parse("t2*(t1/t2)^2", table)
    assert normalize(e) == normalize(parse("t1^2/t2", table))


def test_parse_paper_defining_function(table):
    rho = paper_rho(table)
    # sanity value computed directly from the closed form
    t1v = t2v = 0.05
    expected = ((1 - 12 * t1v * t2v) ** 1.5 + 18 * t1v * t2v - 1) / (108 * t2v ** 2)
    assert evaluate(rho, {"t1": t1v, "t2": t2v}) == pytest.approx(expected)


def test_parse_error_carries_offset(table):
    with pytest.raises(ParseError) as err:
        parse("t1 +", table)
    assert err.value.offset == 4


def test_parse_undeclared_identifier(table):
    with pytest.raises(UndeclaredIdentifierError) as err:
        parse("t1 + q7", table)
    assert err.value.name == "q7"


def test_parse_sqrt_sugar_and_imaginary_unit(table):
    assert normalize(parse("sqrt(t1^2)", table)) == normalize(parse("(t1^2)^(1/2)", table))
    assert normalize(parse("i*i", table)) == normalize(parse("-1", table))


def test_parse_decimal_literal_is_exact(table):
    e = parse("0.05", table)
    assert normalize(e) == Const(QC.of(Fraction(1, 20)))


def test_power_is_right_associative(table):
    assert normalize(parse("t1^2^3", table)) == normalize(parse("t1^8", table))


def test_unary_minus_binds_below_power(table):
    assert normalize(parse("-t1^2", table)) == normalize(parse("-(t1^2)", table))


def test_parse_builds_raw_interned_trees(table):
    t1, t2 = Var(table["t1"]), Var(table["t2"])
    minus_one = Const(QC.of(-1))
    cases = {
        "t1-t2": Add((t1, Mul((minus_one, t2)))),
        "t1/t2": Mul((t1, Pow(t2, Fraction(-1)))),
        "-t1^2": Mul((minus_one, Pow(t1, Fraction(2)))),
        "2^-1^2*t1": Mul((Pow(Const(QC.of(2)), Fraction(-1)), t1)),
        "sqrt(t1)": Pow(t1, Fraction(1, 2)),
    }
    for text, tree in cases.items():
        assert parse(text, table) is tree, text


def test_parse_rejects_wedge_and_at_sign(table):
    for text, offset in (("t1 /\\ t2", 3), ("t1 @ t2", 3)):
        with pytest.raises(ParseError) as err:
            parse(text, table)
        assert err.value.offset == offset, text


# each operator's precedence, the node a run of that precedence builds, and
# the operand the operator puts in it
_BINARY = {"+": (1, Add, lambda x: x), "-": (1, Add, operator.neg),
           "*": (2, Mul, lambda x: x), "/": (2, Mul, lambda x: x ** -1)}


def _reference_build(text, table):
    """The grammar over ``tokenize``'s stream by precedence climbing, each
    node built with ``Expr``'s operators, except that a run of one
    precedence is one ``Add`` or ``Mul`` of its operands."""
    tokens = tokenize(text)
    pos = 0

    def take(op=None):
        nonlocal pos
        kind, tok, _ = tokens[pos]
        assert op is None or (kind, tok) == ("op", op), (text, pos)
        pos += 1
        return kind, tok

    def peek():
        kind, tok, _ = tokens[pos]
        return tok if kind == "op" else None

    def binary(min_prec):
        node = unary()
        while peek() in _BINARY and _BINARY[peek()][0] >= min_prec:
            prec, build, _ = _BINARY[peek()]
            run = [node]
            while peek() in _BINARY and _BINARY[peek()][0] == prec:
                run.append(_BINARY[take()[1]][2](binary(prec + 1)))
            node = build(tuple(run))
        return node

    def unary():
        if peek() == "-":
            take()
            return -unary()
        base = primary()
        if peek() != "^":
            return base
        take()
        exp = normalize(unary())
        assert isinstance(exp, Const) and exp.value.b == 0, text
        return base ** exp.value.re

    def primary():
        kind, tok = take()
        if kind == "num":
            return scalars.lift(Fraction(tok))
        if tok == "(":
            inner = binary(1)
            take(")")
            return inner
        if tok == "sqrt":
            take("(")
            inner = binary(1)
            take(")")
            return inner ** Fraction(1, 2)
        return I if tok == "i" else Var(table[tok])

    node = binary(1)
    assert tokens[pos][0] == "end", text
    return node


def _random_tokens(rng, names, depth):
    if depth == 0 or rng.random() < 0.2:
        return [rng.choice(names + ["i", "2", "7", "0", "0.25", ".5", "3.", "12"])]
    shape = rng.choice(("+", "-", "*", "/", "neg", "^", "sqrt", "()"))
    inner = _random_tokens(rng, names, depth - 1)
    if shape == "neg":
        return ["-", *inner]
    if shape == "sqrt":
        return ["sqrt", "(", *inner, ")"]
    if shape == "()":
        return ["(", *inner, ")"]
    if shape == "^":
        exponent = rng.choice((["2"], ["-", "1"], ["(", "1", "/", "2", ")"], ["0.5"],
                               ["-", "(", "3", "/", "2", ")"], ["3", "^", "-", "1"], ["0"]))
        # a base ending in a power would take the exponent as its own
        return [*(["(", *inner, ")"] if "^" in inner else inner), "^", *exponent]
    return [*inner, shape, *_random_tokens(rng, names, depth - 1)]


def test_parse_returns_the_node_the_operators_build(table):
    # texts over the whole grammar with random spacing; each parse is the
    # very interned node the operators build from the same tokens
    rng = random.Random(2808)
    names = ["t1", "t2", "u", "a", "b", "bb", "lam"]
    for _ in range(500):
        tokens = _random_tokens(rng, names, rng.randint(1, 6))
        text = "".join(tok + rng.choice(("", "", " ", "  \t")) for tok in tokens)
        tree = _reference_build(text, table)
        assert parse(text, table) is tree, text


_LONG = "7" * 5000  # past the interpreter's limit on text-to-int digits

PARSE_ERRORS = [
    ("t1 $ 2", ParseError, "unexpected character '$'", 3),
    ("2*t1 + \u2202t1", ParseError, "unexpected character '\u2202'", 7),
    (f"t1 + {_LONG}", ParseError, f"bad numeric literal {_LONG!r}", 5),
    ("(t1 + 2", ParseError, "expected ')'", 7),
    ("sqrt(t1 t2)", ParseError, "expected ')'", 8),
    ("sqrt t1", ParseError, "expected '('", 5),
    ("t1 t2", ParseError, "unexpected trailing input 't2'", 3),
    ("(t1))", ParseError, "unexpected trailing input ')'", 4),
    ("t1 + zz", UndeclaredIdentifierError, "undeclared identifier 'zz'", 5),
    ("t1^t2", ParseError, "exponent must be a rational constant", 3),
    ("t1^ (2*i)", ParseError, "exponent must be a rational constant", 4),
    ("t1 +", ParseError, "expected a number, identifier or '('", 4),
    ("", ParseError, "expected a number, identifier or '('", 0),
    ("t1 * / t2", ParseError, "expected a number, identifier or '('", 5),
]


@pytest.mark.parametrize("text, error, message, offset", PARSE_ERRORS,
                         ids=[f"{e[2][:30]}@{e[3]}" for e in PARSE_ERRORS])
def test_parse_errors_name_their_offset(table, text, error, message, offset):
    with pytest.raises(ParseError) as err:
        parse(text, table)
    assert type(err.value) is error
    assert str(err.value) == f"{message} (offset {offset})"
    assert err.value.offset == offset


# ---------------------------------------------------------------------------
# differentiation


def test_derivative_simple(table):
    e = parse("t1^2/t2", table)
    assert is_zero_expr(differentiate(e, table["t1"]) - parse("2*t1/t2", table))


def test_derivative_chain_rule(table):
    e = parse("(1-12*t1*t2)^(1/2)", table)
    expected = parse("-6*t2*(1-12*t1*t2)^(-1/2)", table)
    assert is_zero_expr(differentiate(e, table["t1"]) - expected)


def test_rho11_closed_form(table):
    rho = paper_rho(table)
    rho11 = differentiate(differentiate(rho, table["t1"]), table["t1"])
    assert certify_zero(rho11 - parse("1/sqrt(1-12*t1*t2)", table))


def test_rho11_evaluation_matches_direct_power(table):
    # oracle: direct evaluation of the closed form at t1 = t2 = 0.05
    rho = paper_rho(table)
    rho11 = differentiate(differentiate(rho, table["t1"]), table["t1"])
    val = evaluate(rho11, {"t1": 0.05, "t2": 0.05})
    assert abs(val - 0.97 ** -0.5) <= 1e-12 * abs(val)


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_tags(table):
    lam, a, b = Var(table["lam"]), Var(table["a"]), Var(table["b"])
    assert is_zero_expr(conjugate(lam) + lam)
    assert is_zero_expr(conjugate(a) - 1 / a)
    assert is_zero_expr(conjugate(I * b) + I * Var(table["bb"]))


def test_conjugate_constants():
    assert conjugate(Const(QC.of(2, 3))) == Const(QC.of(2, -3))


# ---------------------------------------------------------------------------
# evaluation and reality checks


def test_evaluate_division_by_zero(table):
    with pytest.raises(DomainEvalError):
        evaluate(parse("1/t2", table), {"t2": 0})


def test_pole_beside_a_zero_factor_raises_in_either_order(table):
    # evaluation raises for both orders, and so does the normal form
    for text in ("(t1-t1)*(t1-t1)^(-1)", "(t1-t1)^(-1)*(t1-t1)"):
        with pytest.raises(DomainEvalError, match="zero raised to a negative power"):
            normalize(parse(text, table))
        with pytest.raises(DomainEvalError):
            evaluate(parse(text, table), {"t1": 0.5})


def test_evaluate_fractional_power_needs_positive_base(table):
    with pytest.raises(DomainEvalError):
        evaluate(parse("sqrt(t1)", table), {"t1": -1.0})


def test_evaluate_checks_reality_tags(table):
    with pytest.raises(RealityViolationError):
        evaluate(Var(table["t1"]), {"t1": 1 + 1j})
    with pytest.raises(RealityViolationError):
        evaluate(Var(table["u"]), {"u": -2.0})
    with pytest.raises(RealityViolationError):
        evaluate(Var(table["a"]), {"a": 2.0})
    with pytest.raises(RealityViolationError):
        evaluate(Var(table["lam"]), {"lam": 1.0})


def test_evaluate_binds_conjugate_partner(table):
    b = Var(table["b"])
    bb = Var(table["bb"])
    val = evaluate(b * bb, {"b": 0.3 + 0.4j})
    assert val == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_respects_reality(table):
    t1 = table["t1"]
    with pytest.raises(RealityViolationError):
        substitute(Var(t1), {t1: I * Var(table["t2"])})


def test_substitute_refuses_bindings_that_break_a_tag(table):
    t1, a, b, bb, lam = (table[n] for n in ("t1", "a", "b", "bb", "lam"))
    x = Var(t1)
    # bindings that keep the tag pass
    substitute(Var(lam), {lam: I * x})
    substitute(Var(a), {a: Var(a) ** 3})
    substitute(Var(b), {b: x + I, bb: x - I})
    for bindings, broken in (({lam: x}, "anti-self-conjugate"),
                             ({a: 2 * Var(a)}, "modulus one"),
                             ({b: x + I, bb: x + I}, "not conjugate")):
        with pytest.raises(RealityViolationError, match=broken):
            substitute(Var(b) + Var(a) + Var(lam), bindings)


def test_a_refused_substitution_raises_on_every_call(table):
    # an accepted substitution is answered from the generation's memo; a
    # refused one is never stored, so its reality check runs every time
    t1, t2, b, bb = table["t1"], table["t2"], table["b"], table["bb"]
    x, y = Var(t1), Var(t2)
    e = paper_rho(table) * Var(b) + x * Var(bb)
    scalars.clear_caches()
    accepted = to_text(substitute(e, {t1: y, b: x + I}))
    for bindings, broken in (({t1: I * y}, "not self-conjugate"),
                             ({b: x + I, bb: x + I}, "not conjugate")):
        for _ in range(2):
            with pytest.raises(RealityViolationError, match=broken):
                substitute(e, bindings)
    warm = substitute(e, {t1: y, b: x + I})
    assert substitute(e, {t1: y, b: x + I}) is warm
    assert to_text(warm) == accepted
    scalars.clear_caches()
    assert to_text(substitute(e, {t1: y, b: x + I})) == accepted
    with pytest.raises(RealityViolationError, match="not self-conjugate"):
        substitute(e, {t1: I * y})


def test_evaluate_refuses_paired_values_that_are_not_conjugate(table):
    e = Var(table["b"]) * Var(table["bb"])
    assert evaluate(e, {"b": 0.3 + 0.4j, "bb": 0.3 - 0.4j}) == pytest.approx(0.25)
    with pytest.raises(RealityViolationError, match="not conjugate"):
        evaluate(e, {"b": 0.3 + 0.4j, "bb": 0.3 + 0.4j})


def test_substitute_pullback_shape(table):
    # t1 -> z1 + conj(z1) stays self-conjugate, so it is accepted
    zt = VariableTable()
    z1, z1c = zt.pair("z1", "z1c")
    target = Var(z1) + Var(z1c)
    rho11 = parse("1/sqrt(1-12*t1*t2)", table)
    out = substitute(rho11, {table["t1"]: target})
    assert table["t1"] not in free_variables(out)
    assert z1 in free_variables(out)


def test_substitute_is_simultaneous(table):
    t1, t2 = table["t1"], table["t2"]
    e = Var(t1) + Var(t2)
    out = substitute(e, {t1: Var(t2), t2: Var(t1)})
    assert is_zero_expr(out - e)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_unit_modulus_inverse(table):
    a = Var(table["a"])
    assert normalize(a * (1 / a)) == normalize(parse("1", table))


def test_normalize_radical_square(table):
    e = Pow(parse("(1-t1)^(1/2)", table), 2)
    assert normalize(e) == normalize(parse("1-t1", table))


def test_normalize_constant_radicals_cancel(table):
    e = parse("(1/27)^(1/2)*27^(1/2)", table)
    assert normalize(e) == normalize(parse("1", table))


def test_no_factor_of_unknown_sign_leaves_a_radical_with_another():
    # for real x, y < 0 each identity equals 2, as a product of negative
    # factors is positive, so neither may be certified
    t = VariableTable()
    t.real("x", "y")
    t.imaginary("m")
    for text in ("(x*y)^(1/2) + (-x)^(1/2)*(-y)^(1/2)", "(-x^3)^(1/2) + (-x)^(3/2)"):
        e = parse(text, t)
        assert evaluate(e, {"x": -1.0, "y": -1.0}) == pytest.approx(2)
        assert not certify_zero(e)
    # an even power of an imaginary variable is negative: x*m^2 is 1 at
    # x = -1, m = i, where x^(1/2) has no value
    e = parse("(x*m^2)^(1/2)", t)
    assert evaluate(normalize(e), {"x": -1.0, "m": 1j}) == pytest.approx(1)


def test_monge_ampere_residual_certified_zero(table):
    rho = paper_rho(table)
    t1, t2 = table["t1"], table["t2"]
    r1 = differentiate(rho, t1)
    r2 = differentiate(rho, t2)
    r11 = differentiate(r1, t1)
    r12 = differentiate(r1, t2)
    r22 = differentiate(r2, t2)
    assert certify_zero(r11 * r22 - r12 * r12)


def test_monge_ampere_residual_homogeneous_is_structurally_zero(table):
    # oracle: direct differentiation of t1^2/t2 gives the zero expression
    rho = parse("t1^2/t2", table)
    t1, t2 = table["t1"], table["t2"]
    r11 = differentiate(differentiate(rho, t1), t1)
    r12 = differentiate(differentiate(rho, t1), t2)
    r22 = differentiate(differentiate(rho, t2), t2)
    assert is_zero_expr(r11 * r22 - r12 * r12)


# ---------------------------------------------------------------------------
# zero testing


def test_zero_test_binomial_identity(table):
    e = parse("(t1+t2)^2 - t1^2 - 2*t1*t2 - t2^2", table)
    assert is_identically_zero(e, {"t1": (0.1, 1), "t2": (0.1, 1)}, trials=16, seed=0)


def test_zero_test_rejects_nonzero_s(table):
    rho = paper_rho(table)
    t1, t2 = table["t1"], table["t2"]
    r11 = differentiate(differentiate(rho, t1), t1)
    r12 = differentiate(differentiate(rho, t1), t2)
    s = differentiate(r12 / r11, t1)
    assert not is_identically_zero(s, BOX, trials=16, seed=0)


def test_zero_test_deterministic_given_seed(table):
    e = parse("t1*t2 - 1/2", table)
    runs = [is_identically_zero(e, BOX, trials=8, seed=9) for _ in range(3)]
    assert runs == [False, False, False]


def test_zero_test_inconclusive_on_all_singular(table):
    e = parse("1/(t1-t1)", table)
    with pytest.raises((ZeroTestInconclusiveError, DomainEvalError)):
        is_identically_zero(e, BOX, trials=4, seed=0)


# ---------------------------------------------------------------------------
# randomized property suites


def _random_tree(rng, variables, depth):
    choice = rng.random()
    if depth == 0 or choice < 0.25:
        if rng.random() < 0.5:
            return Var(rng.choice(variables))
        return Const(QC.of(rng.randint(1, 5), rng.randint(-2, 2)))
    op = rng.choice(["add", "mul", "pow", "sub", "inv"])
    left = _random_tree(rng, variables, depth - 1)
    if op == "add":
        return left + _random_tree(rng, variables, depth - 1)
    if op == "mul":
        return left * _random_tree(rng, variables, depth - 1)
    if op == "sub":
        return left - _random_tree(rng, variables, depth - 1)
    if op == "inv":
        return 1 / (left * left + 1)
    exp = rng.choice([2, 3, -1, Fraction(1, 2), Fraction(3, 2)])
    if isinstance(exp, Fraction):
        return Pow(left * left + 1, exp)
    return Pow(left, Fraction(exp))


def _sample(rng, variables):
    return {v.name: rng.uniform(0.6, 1.6) for v in variables}


def test_finite_difference_matches_symbolic_derivative():
    # oracle: central finite difference with step 1e-5
    table = VariableTable()
    variables = table.positive("x", "y", "z")
    rng = random.Random(2024)
    checked = 0
    attempts = 0
    step = 1e-5
    while checked < 200 and attempts < 2000:
        attempts += 1
        tree = _random_tree(rng, variables, rng.randint(1, 6))
        var = rng.choice(variables)
        point = _sample(rng, variables)
        try:
            sym = evaluate(differentiate(tree, var), point)
            up = dict(point)
            up[var.name] += step
            down = dict(point)
            down[var.name] -= step
            fd = (evaluate(tree, up) - evaluate(tree, down)) / (2 * step)
        except DomainEvalError:
            continue
        scale = 1.0 + abs(sym) + abs(evaluate(tree, point))
        if scale > 1e6:
            continue
        assert abs(fd - sym) < 1e-5 * scale
        checked += 1
    assert checked == 200


def test_conjugation_is_involutive_antihomomorphism():
    table = VariableTable()
    table.real("x")
    table.positive("y")
    table.imaginary("m")
    table.pair("p", "pc")
    variables = [table["x"], table["y"], table["m"], table["p"]]
    box = {"x": (0.5, 1.5), "y": (0.5, 1.5), "m": (0.5, 1.5), "p": (0.5, 1.5)}
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        e1 = _random_tree(rng, variables, rng.randint(1, 4))
        e2 = _random_tree(rng, variables, rng.randint(1, 4))
        try:
            involution = conjugate(conjugate(e1)) - normalize(e1)
            product_rule = conjugate(e1 * e2) - conjugate(e1) * conjugate(e2)
            sum_rule = conjugate(e1 + e2) - (conjugate(e1) + conjugate(e2))
            product_ok = is_identically_zero(product_rule, box, trials=4, seed=11)
        except DomainEvalError:
            continue  # tree contains a literal division by zero
        assert is_zero_expr(involution)
        assert product_ok
        assert is_zero_expr(sum_rule)
        checked += 1


def test_normalize_idempotent_and_evaluation_preserving():
    # positive variables, then real ones at points of either sign, with
    # half the trees under a fractional power of their product with a
    # variable; where a tree has a value its normal form has the same one
    table = VariableTable()
    positive = table.positive("x", "y")
    signed = table.real("r", "s")
    rng = random.Random(99)
    for variables in (positive, signed):
        for _ in range(60):
            tree = _random_tree(rng, variables, rng.randint(1, 5))
            if variables is signed and rng.random() < 0.5:
                tree = Pow(tree * Var(rng.choice(variables)),
                           rng.choice([Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3)]))
            n = normalize(tree)
            assert normalize(n) == n
            for k in range(16):
                point = _sample(rng, variables)
                if variables is signed:
                    point = {name: rng.choice((-1, 1)) * x for name, x in point.items()}
                try:
                    before = evaluate(tree, point)
                except DomainEvalError:
                    continue
                after = evaluate(n, point)
                assert abs(before - after) <= 1e-9 * (1 + abs(before))


def test_parse_print_round_trip():
    table = VariableTable()
    variables = table.positive("x", "y", "z")
    rng = random.Random(5)
    for _ in range(200):
        tree = _random_tree(rng, variables, rng.randint(1, 5))
        text = to_text(tree)
        assert normalize(parse(text, table)) == normalize(tree)


def test_complex_constant_radicals_print_with_one_pair_of_parentheses(table):
    # qc_text already parenthesizes a value with both parts
    for text, shown in (("(2+2*i)^(1/2)*t1", "t1*(1 + i)^(1/2)*2^(1/2)"),
                        ("(-1-i)^(1/2)*t1", "t1*(-1 - i)^(1/2)"),
                        ("(2*i)^(1/2)*t1", "t1*2^(1/2)*(i)^(1/2)"),
                        ("(-3)^(1/3)*t1", "t1*(-1)^(1/3)*3^(1/3)")):
        e = normalize(parse(text, table))
        assert to_text(e) == shown
        assert normalize(parse(shown, table)) is e


# ---------------------------------------------------------------------------
# exact division behind radical recombination


def _nf_of(text, table):
    return scalars._nf(normalize(parse(text, table)))


def _random_laurent(rng, variables, n_terms):
    terms = [Const(QC.of(rng.randint(-3, 3) or 1, rng.randint(-1, 1)))
             * Mul(tuple(Pow(Var(v), Fraction(rng.randint(-2, 4), 2)) for v in variables))
             for _ in range(n_terms)]
    return scalars._nf(normalize(Add(tuple(terms))))


def _random_var_only(rng, variables, n_terms):
    """A Var-only normal form with negative and fractional exponents and
    Gaussian rational coefficients."""
    terms = [Const(QC.of(Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3)),
                         rng.randint(-1, 1)))
             * Mul(tuple(Pow(Var(v), Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))
                         for v in variables))
             for _ in range(n_terms)]
    return scalars._nf(normalize(Add(tuple(terms))))


def test_exact_quotient_recovers_var_only_factor():
    scalars.clear_caches()
    table = VariableTable()
    variables = table.positive("x", "y", "z")
    # q may carry variables outside b, constant radicals and sum atoms
    extras = [_nf_of(text, table) for text in
              ("1", "2^(1/2)", "(x+y^2)^(-1)", "(x^2+z)^(1/2)*3^(1/3)")]
    rng = random.Random(37)
    recovered = 0
    for _ in range(200):
        b = _random_var_only(rng, variables[:rng.randint(1, 3)], rng.randint(1, 4))
        q = scalars._nf_mul(_random_laurent(rng, variables, rng.randint(1, 4)),
                            rng.choice(extras))
        if not b or not q:
            continue
        assert scalars._exact_quotient(scalars._nf_mul(q, b), b) == q
        recovered += len(b) > 1
    assert recovered > 140


def test_exact_quotients_multiply_back_to_the_dividend(monkeypatch):
    # every division _collapse asks for on the random-tree stream, cold
    pairs = []
    divide = scalars._exact_quotient

    def recording(nf, base):
        pairs.append((dict(nf), dict(base)))
        return divide(nf, base)

    scalars.clear_caches()
    monkeypatch.setattr(scalars, "_exact_quotient", recording)
    table = VariableTable()
    variables = table.positive("x", "y", "z")
    rng = random.Random(2024)
    for _ in range(100):
        tree = _random_tree(rng, variables, rng.randint(1, 5))
        try:
            differentiate(tree, rng.choice(variables))
        except DomainEvalError:
            continue
    monkeypatch.undo()
    # and Var-only multiples of stream dividends, with a term added or not
    for nf, _ in list(pairs):
        b = _random_var_only(rng, variables[:rng.randint(1, 3)], rng.randint(2, 3))
        product = scalars._nf_mul(nf, b)
        pairs.append((product, b))
        product = dict(product)
        scalars._nf_add_into(product, _random_var_only(rng, variables, 1))
        pairs.append((product, b))
    # and multiples over divisors with constant radicals and sum atoms at
    # fractional and negative exponents, where quotient terms fold: q*b, a
    # term added or not, and q*b over b*(1+x)^(-2), whose formal quotient
    # q*(1+x)^2 would expand a sum atom
    x, y = (Var(v) for v in variables[:2])
    shifted = _nf_of("(1+x)^(-2)", table)
    radical_pairs = []
    for _ in range(120):
        b = _radical_form(rng, x, y, rng.randint(2, 3))
        product = scalars._nf_mul(_radical_form(rng, x, y, rng.randint(1, 3)), b)
        radical_pairs.append((product, b))
        radical_pairs.append((product, scalars._nf_mul(b, shifted)))
        product = dict(product)
        scalars._nf_add_into(product, _radical_form(rng, x, y, 1))
        radical_pairs.append((product, b))
    # the paper's divisors 1 - w^(1/2) and 1 - w^(-1/2), w = 1 - 12*t1*t2
    t1, t2 = (Var(v) for v in table.real("t1", "t2"))
    w = 1 - 12 * t1 * t2
    for k in (1, -1):
        b = scalars._nf(normalize(1 - Pow(w, Fraction(k, 2))))
        for _ in range(15):
            dividend = _paper_ladder(rng, t1, t2, w, rng.randint(1, 4))
            radical_pairs.append((dividend, b))
            radical_pairs.append((scalars._nf_mul(dividend, b), b))
    outcomes = collections.Counter()
    for kind, kind_pairs in (("var", pairs), ("radical", radical_pairs)):
        for nf, base in kind_pairs:
            quotient = scalars._exact_quotient(nf, base)
            if quotient is not None:
                assert scalars._nf_mul(quotient, base) == nf
            outcomes[kind, quotient is not None] += 1
    assert outcomes["var", True] > 100 and outcomes["var", False] > 100
    assert outcomes["radical", True] > 40 and outcomes["radical", False] > 200


def test_units_over_const_and_sum_atoms_are_refused():
    scalars.clear_caches()
    table = VariableTable()
    table.positive("x", "y")
    # units: (1 + 2^(1/2)) (2^(1/2) - 1) = 1 and
    # ((x^2+y)^(1/2) + x) ((x^2+y)^(1/2) - x) = y, so each quotient below
    # exists in value; none exists formally, with every atom an indeterminate
    for num, den in (("1", "1+2^(1/2)"), ("y", "(x^2+y)^(1/2)+x"), ("x", "(x^2+y)^(1/2)+x"),
                     ("x*y^2", "x+2^(1/2)*y")):
        assert scalars._exact_quotient(_nf_of(num, table), _nf_of(den, table)) is None
    quotient = scalars._exact_quotient(_nf_of("(y-1)*((x^2+y)^(-1/2)+x)", table),
                                       _nf_of("(x^2+y)^(-1/2)+x", table))
    assert to_text(scalars._rebuild(quotient)) == "-1 + y"
    # the formal quotient (1+y)^(3/2) would expand a sum atom that every
    # divisor monomial holds at a negative power
    assert scalars._exact_quotient(_nf_of("x*(1+y)^(1/2) + (1+y)^(-1/2)", table),
                                   _nf_of("x*(1+y)^(-1) + (1+y)^(-2)", table)) is None


def test_graded_division_over_constant_radicals():
    # a constant radical is an indeterminate r of the formal ring, as x is
    scalars.clear_caches()
    table = VariableTable()
    table.positive("x", "y")
    base = _nf_of("x + 2^(1/2)", table)
    for other in ("x - 1", "x - 3^(1/2)"):
        product = _nf_of(f"(x + 2^(1/2))*({other})", table)
        assert scalars._exact_quotient(product, base) == _nf_of(other, table)
    # and that ring has no relation r^2 = 2, so x^2 - 2 stays undivided
    assert scalars._exact_quotient(_nf_of("x^2 - 2", table), base) is None
    # a quotient term folds the integer part of a constant radical
    assert (scalars._exact_quotient(_nf_of("x + y", table), _nf_of("2^(1/2)*x + 2^(1/2)*y", table))
            == _nf_of("1/2*2^(1/2)", table))


def test_exact_quotient_finds_sparse_quotient_of_wide_dividend():
    # a dividend spanning a million powers of x: the graded division finds
    # the sparse quotient in two steps
    table = VariableTable()
    table.positive("x")
    quotient = scalars._exact_quotient(_nf_of("x^1000001 + x^1000000 + x + 1", table),
                                       _nf_of("x+1", table))
    assert quotient == _nf_of("x^1000000 + 1", table)


def test_paper_binomial_divisions_are_refused():
    # two divisions by 1 - 12*t1*t2 of a cold paper analysis that once ran
    # all 60 long-division steps each, and one of its single monomials over
    # 1 - (1 - 12*t1*t2)^(-1/2)
    table = VariableTable()
    table.real("t1", "t2")
    scalars.clear_caches()
    for text, den in (("1/9*t1*t2^(-3) - 1/3*t1^2*t2^(-2)", "1 - 12*t1*t2"),
                      ("1/3*t1*t2^(-3) - 1/18*t2^(-4)", "1 - 12*t1*t2"),
                      ("t2*(1 - 12*t1*t2)^(-3/4)", "1 - (1 - 12*t1*t2)^(-1/2)")):
        assert scalars._exact_quotient(_nf_of(text, table), _nf_of(den, table)) is None


def test_quotient_memo_returns_fresh_copies():
    scalars.clear_caches()
    table = VariableTable()
    table.positive("x")
    product = _nf_of("x^2-1", table)
    base = _nf_of("x+1", table)
    expected = _nf_of("x-1", table)
    first = scalars._exact_quotient(product, base)
    assert first == expected
    first.clear()
    again = scalars._exact_quotient(product, base)
    assert again == expected
    again[()] = QC.of(7)
    assert scalars._exact_quotient(product, base) == expected
    assert scalars._exact_quotient(_nf_of("x", table), base) is None
    assert scalars._exact_quotient(_nf_of("x", table), base) is None


def test_clear_caches_empties_quotient_memo():
    table = VariableTable()
    table.positive("x")
    scalars._exact_quotient(_nf_of("x^2-1", table), _nf_of("x-1", table))
    assert scalars._QUOT_MEMO
    scalars.clear_caches()
    assert not scalars._QUOT_MEMO


def _items(nf):
    return None if nf is None else [(pows, c.re, c.im) for pows, c in nf.items()]


def _paper_ladder(rng, t1, t2, w, n_terms):
    """A sum of monomials c * t1^a * t2^b * w^(j/2), w = 1-12*t1*t2."""
    terms = [Const(QC.of(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))))
             * Pow(t1, rng.randint(-2, 2)) * Pow(t2, rng.randint(-2, 2))
             * Pow(w, Fraction(rng.randint(-5, 1), 2)) for _ in range(n_terms)]
    return scalars._nf(normalize(Add(tuple(terms))))


def _memo_free_nf_mul(a, b):
    """The product of two normal forms without ``_MUL_MEMO``: every
    monomial product is canonicalized afresh.  Installed as
    ``scalars._nf_mul`` it also makes the expansions inside
    ``_fix_monomial``, so no product reads the memo."""
    acc = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            powmap = dict(pa)
            for atom, e in pb:
                cur = powmap.get(atom)
                powmap[atom] = e if cur is None else cur + e
            scalars._nf_add_into(acc, scalars._fix_monomial(ca * cb, powmap))
    return acc


def _radical_form(rng, x, y, n_terms):
    """A sum of monomials c * x^a * y^b * 2^(j/2) * (1+x)^(k/2) * (x+y)^(l/3)
    with Gaussian rational c: constant radicals, fractional exponents and
    sum atoms whose exponents reach 1 and more in a product."""
    terms = [Const(QC.of(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)),
                         rng.randint(-1, 1)))
             * Pow(x, Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
             * Pow(y, rng.randint(-2, 2))
             * Pow(Const(QC(2)), Fraction(rng.randint(-3, 3), 2))
             * Pow(1 + x, Fraction(rng.randint(-3, 3), 2))
             * Pow(x + y, Fraction(rng.randint(-2, 4), 3)) for _ in range(n_terms)]
    return scalars._nf(normalize(Add(tuple(terms))))


def test_memoized_monomial_products_match_the_memo_free_product(monkeypatch):
    scalars.clear_caches()
    table = VariableTable()
    x, y = (Var(v) for v in table.positive("x", "y"))
    rng = random.Random(2207)
    pairs = []
    for _ in range(40):
        a = _radical_form(rng, x, y, rng.randint(2, 4))
        pairs.append((a, _radical_form(rng, x, y, rng.randint(1, 3))))
        # (p + r)(r - p): the cross terms cancel
        flipped = dict(a)
        first = next(iter(flipped))
        flipped[first] = -flipped[first]
        pairs.append((a, flipped))
    # cold, warm, then cold again after clear_caches()
    got = []
    for rnd in range(3):
        if rnd == 2:
            scalars.clear_caches()
        got.append([_items(scalars._nf_mul(a, b)) for a, b in pairs])
    # some product expanded a sum atom into several terms
    assert any(len(unit) > 1 for unit in scalars._MUL_MEMO.values())
    monkeypatch.setattr(scalars, "_nf_mul", _memo_free_nf_mul)
    expected = [_items(_memo_free_nf_mul(a, b)) for a, b in pairs]
    assert got == [expected] * 3


def test_clear_caches_empties_every_memo():
    # every module-level dict of the kernel but the kind table and the
    # node intern table's own storage is a table clear_caches() empties
    names = {"_NF_MEMO", "_NORM_MEMO", "_CONJ_MEMO", "_DIFF_MEMO", "_FREEVARS_MEMO",
             "_CERT_MEMO", "_QUOT_MEMO", "_MUL_MEMO", "_MONO_MEMO", "_SUBST_MEMO",
             "_TEXT_MEMO", "_EXPS", "_KEPT"}
    dicts = {k for k, v in vars(scalars).items() if type(v) is dict and not k.startswith("__")}
    assert names == dicts - {"KINDS", "_INTERN_REFS"}
    for name in names:
        getattr(scalars, name)[object()] = None
    scalars.clear_caches()
    assert not any(getattr(scalars, name) for name in names)


def _random_laurent_tree(rng, variables, depth):
    """A tree whose normal form holds no sum atom: sums and products of
    positive variables and rational constants, positive integer powers, and
    rational powers of positive monomials only."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return Var(rng.choice(variables))
        return Const(QC.of(Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3)),
                           rng.randint(-1, 1)))
    op = rng.choice(["add", "mul", "pow", "root"])
    left = _random_laurent_tree(rng, variables, depth - 1)
    if op == "add":
        return left + _random_laurent_tree(rng, variables, depth - 1)
    if op == "mul":
        return left * _random_laurent_tree(rng, variables, depth - 1)
    if op == "pow":
        return Pow(left, rng.choice((2, 3)))
    base = Mul((Const(QC.of(rng.randint(1, 6))), Var(rng.choice(variables))))
    return left * Pow(base, Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))


def test_normalize_registers_the_laurent_normal_form_it_rebuilt_from():
    # the registered form equals the one a fresh walk of the result derives
    table = VariableTable()
    variables = table.positive("x", "y", "z")
    rng = random.Random(2401)
    rebuilt, fractional = 0, 0
    for _ in range(300):
        tree = _random_laurent_tree(rng, variables, rng.randint(1, 4))
        scalars.clear_caches()
        result = normalize(tree)
        registered = scalars._NF_MEMO[result]
        assert registered is scalars._nf(tree)
        assert not any(scalars._is_sum_atom(a) for pows in registered for a, _ in pows)
        del scalars._NF_MEMO[result]
        assert scalars._nf(result) == registered, to_text(result)
        rebuilt += result is not tree
        fractional += any(type(e) is scalars._KeyExp for pows in registered for _, e in pows)
    assert rebuilt > 150 and fractional > 50, (rebuilt, fractional)


def test_normalize_does_not_register_a_normal_form_with_a_sum_atom():
    scalars.clear_caches()
    table = VariableTable()
    x, y = (Var(v) for v in table.positive("x", "y"))
    for tree in (Mul((x, Pow(x + y, -1), x)),
                 Pow(x + y, Fraction(3, 2)) + y,
                 Pow(Mul((x - 1, Pow(x * x + 1, -1))), -1)):
        result = normalize(tree)
        assert result is not tree
        assert any(scalars._is_sum_atom(a) for pows in scalars._nf(tree) for a, _ in pows)
        assert result not in scalars._NF_MEMO


def _reference_nf_of_product(e):
    """``_nf`` of a ``Mul`` started from the unit monomial, as a product
    of every factor's normal form."""
    acc = {(): QC.of(1)}
    for f in e.factors:
        acc = scalars._nf_mul(acc, scalars._nf(f))
        if not acc:
            break
    return scalars._collapse(acc)


def test_product_normal_forms_start_from_the_first_factor_exactly():
    # the same terms in the same order as from the unit monomial, sum atoms
    # and radical recombination included
    scalars.clear_caches()
    table = VariableTable()
    variables = table.positive("x", "y", "z")
    rng = random.Random(2402)
    products, with_sum_atoms = 0, 0
    for _ in range(400):
        tree = _random_tree(rng, variables, rng.randint(1, 5))
        seen, stack = set(), [tree]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(getattr(node, "terms", getattr(node, "factors", ())))
            if isinstance(node, Pow):
                stack.append(node.base)
            if not isinstance(node, Mul):
                continue
            try:
                got = scalars._nf(node)
            except DomainEvalError:
                continue
            assert _items(got) == _items(_reference_nf_of_product(node)), node
            products += 1
            with_sum_atoms += any(scalars._is_sum_atom(a) for pows in got for a, _ in pows)
    assert products > 500 and with_sum_atoms > 100, (products, with_sum_atoms)


def _full_product_rule(e, v):
    """The product rule with a term for every factor, ``ZERO`` derivative
    factors included: the reference ``differentiate`` must agree with."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return Const(QC.of(1)) if e.var == v else ZERO
    if isinstance(e, Add):
        return Add(tuple(_full_product_rule(t, v) for t in e.terms))
    if isinstance(e, Mul):
        fs = e.factors
        return Add(tuple(Mul(fs[:i] + (_full_product_rule(fs[i], v),) + fs[i + 1:])
                         for i in range(len(fs))))
    return Mul((Const(QC.of(e.exp)), Pow(e.base, e.exp - 1), _full_product_rule(e.base, v)))


def test_differentiate_equals_the_full_product_rule():
    # differentiate builds no term whose derivative factor is ZERO; on a
    # normal form that drops nothing the full rule would keep
    scalars.clear_caches()
    table = VariableTable()
    variables = table.positive("x", "y", "z")
    rng = random.Random(2603)
    with_sum_atoms = 0
    for _ in range(400):
        n = normalize(_random_tree(rng, variables, rng.randint(1, 5)))
        v = rng.choice(variables)
        assert differentiate(n, v) is normalize(_full_product_rule(n, v)), (n, v)
        with_sum_atoms += any(scalars._is_sum_atom(a) for pows in scalars._nf(n) for a, _ in pows)
    assert with_sum_atoms >= 100, with_sum_atoms


def test_normalize_is_idempotent_across_clear_caches():
    # a sum atom's sign comes from its own leading monomial, not from the
    # atoms it shares with the rest of the product
    scalars.clear_caches()
    table = VariableTable()
    x, z = (Var(v) for v in table.positive("x", "z"))
    one, minus_one = Const(QC.of(1)), Const(QC.of(-1))
    tree = Pow(Mul((Add((z, Mul((minus_one, one)))),
                    Mul((one, Pow(Add((Mul((x, x)), one)), -1))))), -1)
    result = normalize(tree)
    assert to_text(result) == "-x^2*(1 - z)^(-1) - (1 - z)^(-1)"
    scalars.clear_caches()
    assert normalize(result) is result


def _scan_trees(seed, fresh, index=None):
    """Depth-5 trees of the idempotence scan: ``_random_tree`` on positive
    x, y, z, 500 trees per depth.  The continuous stream draws depths 2, 3,
    4 and 5 from one ``random.Random(seed)``; a fresh stream starts a new
    one for each depth.  All 500 trees, or the one at ``index``."""
    variables = VariableTable().positive("x", "y", "z")
    rng = random.Random(seed)
    if not fresh:
        for depth in (2, 3, 4):
            for _ in range(500):
                _random_tree(rng, variables, depth)
    trees = [_random_tree(rng, variables, 5) for _ in range(500 if index is None else index + 1)]
    return trees if index is None else trees[index:]


_RADICAL_SUM = "((-2 + 4*i) + (-2 - 4*i)*y + y^2)"


@pytest.mark.parametrize("source, shown, before", [
    pytest.param("((((-2 + i) + sqrt(10))^2 + 1)^(1/2))^(-2)",
                 "(7/106 + 1/53*i)*(1 + (-16/53 + 3/53*i)*2^(1/2)*5^(1/2))^(-1)",
                 "1/2*((7 - 2*i) + (-2 + i)*2^(1/2)*5^(1/2))^(-1)", id="power"),
    pytest.param(f"{_RADICAL_SUM}^(-1/2)*{_RADICAL_SUM}^(-1/2)",
                 "(-1/10 - 1/5*i)*(1 + (-3/5 + 4/5*i)*y + (-1/10 - 1/5*i)*y^2)^(-1)",
                 f"{_RADICAL_SUM}^(-1)", id="product"),
    pytest.param((2028, False), None, None, id="scan-2028"),
    pytest.param((2036, False), None, None, id="scan-2036"),
    pytest.param((2037, False, 382), None, None, id="2037-382"),
    pytest.param((2042, False, 216), None, None, id="2042-216"),
    pytest.param((2044, False, 62), None, None, id="2044-62"),
    pytest.param((2026, True, 33), None, None, id="2026-fresh-33"),
    pytest.param((2027, True, 352), None, None, id="2027-fresh-352"),
])
def test_an_integer_power_of_a_radical_sum_atom_is_idempotent_across_clear_caches(
        source, shown, before):
    # a sum atom split under a fractional power must be split as a negative
    # power of a sum is when a power or a product gives it an integral
    # exponent; the scans hold trees that were not, and they are checked
    # against their input, not against an earlier output of the kernel
    table = VariableTable()
    table.positive("y")
    trees = [parse(source, table)] if shown else _scan_trees(*source)
    point = {"x": 0.7, "y": 1.3, "z": 1.1}
    valued = 0
    for tree in trees:
        scalars.clear_caches()
        try:
            result = normalize(tree)
        except DomainEvalError:
            if shown:
                raise
            continue
        if shown:
            assert to_text(result) == shown
            # the form the atom gave before it was split again is the same number
            assert certify_zero(parse(before, table) - result)
        scalars.clear_caches()
        assert normalize(result) is result, to_text(tree)
        # where the tree has a value, its normal form has the same one
        try:
            want = evaluate(tree, point)
        except DomainEvalError:
            continue
        assert cmath.isclose(evaluate(result, point), want, rel_tol=1e-9, abs_tol=1e-12)
        valued += 1
    assert len(trees) == 1 or valued > len(trees) // 2, valued


def test_coefficient_power_budget_refuses_only_growing_powers():
    table = VariableTable()
    table.real("t")
    with pytest.raises(scalars.WorkBudgetError):
        QC.of(2).pow_int(20000)
    with pytest.raises(scalars.WorkBudgetError):
        normalize(parse("(2*t)^20000", table))
    # unit coefficients do not grow, however large the exponent
    assert to_text(parse("(-t)^100001", table)) == "-t^100001"
    assert QC.of(-1).pow_int(10**9) == QC.of(1)


def test_integer_powers_of_radical_sums_equal_their_products():
    # the power expands as the product of its copies does, also where the
    # products fold constant radicals and expand sum atoms
    scalars.clear_caches()
    table = VariableTable()
    x, y = (Var(v) for v in table.positive("x", "y"))
    rng = random.Random(3911)
    with_sum_atoms = 0
    for _ in range(12):
        s = scalars._rebuild(_radical_form(rng, x, y, rng.randint(2, 3)))
        atoms = {a for pows in scalars._nf(s) for a, _ in pows}
        with_sum_atoms += any(scalars._is_sum_atom(a) for a in atoms)
        for k in (2, 3, 4):
            assert normalize(Pow(s, k)) is normalize(Mul((s,) * k)), (to_text(s), k)
    assert with_sum_atoms >= 8, with_sum_atoms


_COFACTOR = 10**39 + 3  # a prime past the reach of the trial division


def _no_factor_below_the_trial_bound(n):
    return n > 1 and all(n % q for q in range(2, min(math.isqrt(n), 100_000) + 1))


def test_constant_powers_split_into_prime_radicals():
    rng = random.Random(3912)
    values = [QC(_COFACTOR * 12), QC(3 * 5, 0, 2 * _COFACTOR), QC(-_COFACTOR), QC(2, 2)]
    for _ in range(16):
        num, den = (math.prod(rng.choice((2, 3, 5, 7, 11)) for _ in range(rng.randint(0, 4)))
                    for _ in range(2))
        c = QC.of(Fraction(rng.choice((1, -1)) * num, den), rng.choice((0, 0, 1, -2)))
        values.append(c)
    for c in values:
        for e in (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2),
                  Fraction(7, 3), Fraction(-5, 4), Fraction(2), Fraction(-3)):
            result = normalize(Pow(Const(c), e))
            for pows in scalars._nf(result):
                for atom, ex in pows:
                    assert isinstance(atom, Const) and 0 < ex < 1, (c, e)
                    v = atom.value
                    if v.b or v.a < 0:
                        # what stays of c beside its positive rational content
                        assert v.d == 1 and math.gcd(v.a, v.b) == 1, (c, e)
                    else:
                        assert v.d == 1 and _no_factor_below_the_trial_bound(v.a), (c, e)
            scalars.clear_caches()
            assert normalize(result) is result
            if not c.b and c.a > 0:
                assert evaluate(result, {}) == pytest.approx(
                    float(c.re) ** float(e), rel=1e-12), (c, e)


def test_exact_quotient_finds_two_variable_factor():
    table = VariableTable()
    table.positive("x", "y")
    quotient = scalars._exact_quotient(_nf_of("x^2-y^2", table), _nf_of("x+y", table))
    assert quotient == _nf_of("x-y", table)


# ---------------------------------------------------------------------------
# hash-consed nodes


def test_structurally_equal_constructions_are_one_object():
    table = VariableTable()
    x, y = (Var(v) for v in table.real("x", "y"))
    assert Var(table["x"]) is x
    assert Const(QC.of(3)) is Const(QC.of(Fraction(3))) is scalars.lift(3)
    assert Add((x, y)) is Add((x, y)) is x + y
    assert Add((x, y)) is not Add((y, x))
    assert Mul((x, y)) is Mul((x, y)) is x * y
    assert Pow(x, 2) is Pow(x, Fraction(2)) is x ** 2
    assert Pow(x + y, Fraction(1, 2)) is scalars.sqrt(Add((x, y)))
    assert parse("x*(x+y)^(1/2)", table) is parse("x*(x+y)^(1/2)", table)


def test_live_nodes_stay_interned_across_clear_caches():
    table = VariableTable()
    table.positive("x", "y")
    text = "(x+y)^(1/2)*x - 3*(x^2+y)^(-1) + x*y"
    old = parse(text, table)
    old_text = to_text(old)
    radicand = parse("x+y", table)
    assert radicand._skey == (2, "x + y")
    scalars.clear_caches()
    assert parse(text, table) is old
    assert parse("x+y", table) is radicand
    assert radicand._skey == (2, "x + y")
    assert to_text(old) == old_text
    assert parse("(x+y)^(1/2)*x - 3*(x^2+y)^(-1) + y*x", table) is not old
    for cls in (Const, Var, Add, Mul, Pow):
        assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__


def test_substitute_and_conjugate_leave_no_cyclic_garbage(table):
    e = paper_rho(table) * Var(table["b"]) + Var(table["a"]) * Var(table["lam"])
    binding = {table["t1"]: parse("t2^2 + u", table)}
    enabled = gc.isenabled()
    gc.disable()
    try:
        scalars.clear_caches()
        gc.collect()
        substitute(e, binding)
        conjugate(e)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_dead_nodes_leave_intern_table():
    table = VariableTable()
    x = Var(table.real("probe")[0])  # a name no other test builds nodes from
    one = Const(QC.of(1))
    key = ("A", (x, one))
    node = Add((x, one))
    assert scalars._INTERN[key] is node
    scalars.clear_caches()
    assert scalars._INTERN[key] is node
    del node
    gc.collect()
    assert key not in scalars._INTERN
    assert key not in scalars._INTERN_REFS
    assert Add((x, one)).terms == (x, one)


def test_node_rebuilt_while_its_removal_is_pending_is_registered():
    # a node that dies while the table is iterated leaves its dead weak
    # reference in the table until the iteration ends; a lookup reads it as
    # absent, and the node built in its place is the one registered
    table = VariableTable()
    x = Var(table.real("pending_probe")[0])
    key = ("A", (x, scalars.ONE))
    node = Add((x, scalars.ONE))
    items = iter(scalars._INTERN.items())
    next(items)
    del node
    gc.collect()
    assert scalars._INTERN_REFS[key]() is None
    built = Add((x, scalars.ONE))
    assert scalars._INTERN[key] is built
    items.close()
    assert scalars._INTERN[key] is built
    assert len(scalars._INTERN) == len(scalars._INTERN_REFS)


def test_cached_sort_key_equals_rendered_key():
    table = VariableTable()
    table.positive("x", "y")
    nf = scalars._nf(normalize(parse("(x^2+y)^(1/2)*x + (x+y)^(-1) + 5^(1/3)", table)))
    atoms = {atom for pows in nf for atom, _ in pows}
    sums = [atom for atom in atoms if scalars._is_sum_atom(atom)]
    assert len(sums) == 2
    for atom in sums:
        assert scalars._atom_sort_key(atom) == (2, scalars._render(atom))
        assert atom._skey == (2, scalars._render(atom))
    assert scalars._atom_sort_key(Var(table["x"])) == (0, "x")
    assert scalars._atom_sort_key(Const(QC.of(5))) == (1, "5")


def test_printer_reuses_the_cached_text_of_a_sum_atom(monkeypatch):
    table = VariableTable()
    table.positive("x", "y")
    e = normalize(parse("x*(x+y)^(1/2)", table))
    atom, = (a for pows in scalars._nf(e) for a, _ in pows if scalars._is_sum_atom(a))
    assert scalars._atom_sort_key(atom) == (2, "x + y")
    rendered = []
    render = scalars._render
    monkeypatch.setattr(scalars, "_render", lambda n: rendered.append(n) or render(n))
    assert to_text(e) == "x*(x + y)^(1/2)"
    assert rendered == [e]


def test_const_evaluates_to_its_cached_complex():
    scalars.clear_caches()
    table = VariableTable()
    x = Var(table.real("x")[0])
    third = Const(QC.of(Fraction(1, 3), Fraction(-2, 7)))
    assert third._complex is None
    value = evaluate(third * x + third, {"x": 0.25})
    assert third._complex == complex(float(Fraction(1, 3)), float(Fraction(-2, 7)))
    assert value == third._complex * 0.25 + third._complex
    assert evaluate(third, {}) is third._complex


def test_pow_evaluates_with_its_cached_float_exponent():
    scalars.clear_caches()
    table = VariableTable()
    x = Var(table.real("x")[0])
    root = Pow(x + 2, Fraction(5, 17))  # an exponent no other test builds
    assert root._fexp is None
    value = evaluate(root * x, {"x": 0.25})
    assert type(root._fexp) is float and root._fexp == float(Fraction(5, 17))
    assert value == complex(2.25 ** root._fexp) * 0.25
    scalars.clear_caches()
    assert root._fexp == float(Fraction(5, 17))


def _reference_eval_tree(e, point):
    """The plain tree walk: every path evaluated again, no memo."""
    if isinstance(e, Const):
        return e.value.to_complex()
    if isinstance(e, Var):
        return point[e.var.name]
    if isinstance(e, Add):
        return sum(_reference_eval_tree(t, point) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0 + 0.0j
        for f in e.factors:
            out *= _reference_eval_tree(f, point)
        return out
    base = _reference_eval_tree(e.base, point)
    if e.exp.denominator == 1:
        k = int(e.exp)
        if k < 0 and base == 0:
            raise DomainEvalError("division by zero")
        return base ** k
    if abs(base.imag) > 1e-10 * (1.0 + abs(base)) or base.real <= 0:
        raise DomainEvalError(f"fractional power needs a positive real base, got {base}")
    return complex(base.real ** float(e.exp))


def _reference_eval(e, point):
    try:
        value = _reference_eval_tree(e, point)
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainEvalError(f"value outside the floating-point range ({exc})") from None
    if not cmath.isfinite(value):
        raise DomainEvalError(f"non-finite value {value}")
    return value


def _reference_eval_with_scale(n, point):
    """The value of ``n``, as the tree walk gives it, and the sum of its
    terms' moduli."""
    terms = n.terms if isinstance(n, Add) else (n,)
    scale = 0.0
    for t in terms:
        scale += abs(_reference_eval(t, point))
    if not math.isfinite(scale):
        raise DomainEvalError("non-finite sum of terms")
    return _reference_eval_tree(n, point), scale


def _hex(parts):
    return tuple((z.real.hex(), z.imag.hex()) for z in parts)


def _outcome(fn, *args):
    """The result's floats as hex text, or the error's type and message."""
    try:
        result = fn(*args)
    except DomainEvalError as exc:
        return type(exc), str(exc)
    return _hex(result if isinstance(result, tuple) else (result,))


def test_memoized_evaluation_matches_the_tree_walk_bit_for_bit():
    # the memo may not change one float operation or which error comes
    # first; the points include zeros and negatives, so poles, complex and
    # negative radical bases, overflows and infinities all occur
    table = VariableTable()
    variables = table.real("x", "y", "z")
    x, y = Var(variables[0]), Var(variables[1])
    half = Fraction(1, 2)
    trees = [Pow(x, half), Pow(x - y, -1), Pow(x * y, 3) + x, x * x * x * x,
             Pow(Pow(x, -1) + y, half) * Pow(x, -1)]
    rng = random.Random(1212)
    trees += [_random_tree(rng, variables, rng.randint(1, 5)) for _ in range(2000)]
    messages = collections.Counter()
    for tree in trees:
        n = normalize(tree)
        for _ in range(2):
            point = {v.name: complex(rng.choice([0.0, -1.0, 1e200, rng.uniform(-1.6, 1.6),
                                                 rng.uniform(0.6, 1.6),
                                                 rng.uniform(0.6, 1.6)]))
                     for v in variables}
            got = _outcome(evaluate, tree, point)
            assert got == _outcome(_reference_eval, tree, point)
            scaled = _outcome(scalars._eval_with_scale, n, point)
            assert scaled == _outcome(_reference_eval_with_scale, n, point)
            for outcome in (got, scaled):
                messages[outcome[1].split(" ")[0] if outcome[0] is DomainEvalError
                         else "finite"] += 1
    assert messages["finite"] > 4000
    for first_word in ("division", "fractional", "value", "non-finite"):
        assert messages[first_word] > 20, messages


def test_the_sampler_evaluates_no_point_past_the_last_it_yields(monkeypatch):
    table = VariableTable()
    variables = table.real("x", "y")
    x, y = (Var(v) for v in variables)
    drawn, scored = [], []
    draw, score = scalars.sample_point, scalars._eval_with_scale

    def counted_draw(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    def counted_score(e, point):
        scored.append(point)
        return score(e, point)

    monkeypatch.setattr(scalars, "sample_point", counted_draw)
    monkeypatch.setattr(scalars, "_eval_with_scale", counted_score)
    # a nonzero verdict reads one admissible point, and draws and
    # evaluates only that one
    assert is_identically_zero(x * y + x * x, {"x": (0.5, 1), "y": (0.5, 1)},
                               trials=16, seed=5) is False
    assert len(drawn) == len(scored) == 1
    # about half the points of x^(1/2) on [-1, 1] are inadmissible: each
    # drawn point is evaluated once, and the last one is the last yielded
    e = normalize(Pow(x, Fraction(1, 2)) + y)
    for count in (1, 3, 6):
        drawn.clear()
        scored.clear()
        yielded = [p for p, _, _ in scalars.sample_values(
            e, {"x": (-1, 1), "y": (0, 1)}, count, seed=count)]
        assert len(yielded) == count < len(drawn)
        assert list(map(id, scored)) == list(map(id, drawn))
        assert scored[-1] is yielded[-1]
    # a reader that stops early leaves the rest undrawn
    drawn.clear()
    scored.clear()
    next(scalars.sample_values(normalize(x + y), {"x": (0, 1), "y": (0, 1)}, 16, 3))
    assert len(drawn) == len(scored) == 1


def _reference_sample_point(variables, box, rng):
    """The sampler that resolved each variable's draw at every point: one
    tag-respecting point, unit-modulus intervals as angles."""
    point = {}
    for v in variables:
        if v.name in point:
            continue
        if v.reality == scalars.COMPLEX_PAIRED and v.partner in point:
            point[v.name] = point[v.partner].conjugate()
            continue
        key = v.name if v.name in box else (v.partner if v.partner and v.partner in box else None)
        if key is None:
            raise ZeroTestInconclusiveError(f"no box interval for variable {v.name}")
        lo, hi = box[key]
        if v.reality == scalars.POSITIVE_REAL and lo < 0:
            raise RealityViolationError(f"{v.name} must be positive, got interval [{lo}, {hi}]")
        if v.reality in (scalars.REAL, scalars.POSITIVE_REAL):
            point[v.name] = complex(rng.uniform(lo, hi))
        elif v.reality == scalars.IMAGINARY:
            point[v.name] = complex(0.0, rng.uniform(lo, hi))
        elif v.reality == scalars.UNIT_MODULUS:
            point[v.name] = cmath.exp(1j * rng.uniform(lo, hi))
        else:
            point[v.name] = complex(rng.uniform(lo, hi), rng.uniform(lo, hi))
    return point


def _reference_is_identically_zero(e, box, trials, seed):
    """The point-by-point sampler: draw a point, judge it, draw the next."""
    n = normalize(e)
    if n == ZERO or certify_zero(n):
        return True
    # one monomial of variables to integer powers vanishes on no open set
    factors = n.factors if isinstance(n, Mul) else (n,)
    if not isinstance(n, Add) and all(
            isinstance(f, (Const, Var)) or isinstance(f, Pow) and isinstance(f.base, Var)
            and f.exp.denominator == 1 for f in factors):
        return False
    variables = sorted(free_variables(n), key=lambda v: v.name)
    rng = random.Random(seed)
    successes = attempts = 0
    max_attempts = max(trials * 8, 64)
    while successes < trials and attempts < max_attempts:
        attempts += 1
        point = _reference_sample_point(variables, box, rng)
        try:
            val, scale = _reference_eval_with_scale(n, point)
        except DomainEvalError:
            continue
        if scale == 0:  # every term is 0 there: the point tells nothing
            continue
        successes += 1
        if not abs(val) <= 1e-9 * scale:
            return False
    if successes == 0:
        raise ZeroTestInconclusiveError(
            "all sampled points hit singularities; zero test inconclusive")
    if successes < trials:
        raise ZeroTestInconclusiveError(
            f"only {successes}/{trials} sample points were admissible")
    return True


def _verdict(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_zero_test_matches_the_point_by_point_sampler():
    table = VariableTable()
    variables = table.real("x", "y", "z")
    x, y, z = (Var(v) for v in variables)
    half = Fraction(1, 2)
    # sampled identities on x, y > -1 that certify_zero cannot prove, one
    # of them defined only where x > 0 or y > 0, so that a redraw decides
    # whether a point with x < -1 or y < -1 refutes it, and a negative
    # power whose base underflows to 0 at a quarter of the last box's
    # points and overflows at others, both inadmissible points
    identity = Pow(x * x + 2 * x + 1, half) - (x + 1)
    trees = [identity, Pow((x + y) * (x + y), half) - x - y, identity * Pow(x, half),
             identity * Pow(y, half), identity * Pow(x - y, -1), Pow(x, -100) + y]
    cases = [(tree, seed) for tree in trees for seed in range(20)]
    rng = random.Random(1515)
    cases += [(_random_tree(rng, variables, rng.randint(1, 4)), seed) for seed in range(300)]
    boxes = [{"x": (0.6, 1.6), "y": (0.6, 1.6), "z": (0.6, 1.6)},
             {"x": (-0.5, 1.0), "y": (0.6, 1.6), "z": (-1.6, 1.6)},
             {"x": (-1.6, 1.6), "y": (-1.6, 1.6), "z": (-1.6, 1.6)},
             {"x": (1e-4, 2e-3), "y": (0.6, 1.6), "z": (0.6, 1.6)}]
    verdicts = collections.Counter()
    for tree, seed in cases:
        for box in boxes:
            for trials in (1, 4, 16):
                args = (tree, box, trials, seed)
                got = _verdict(is_identically_zero, *args)
                assert got == _verdict(_reference_is_identically_zero, *args), args
                verdicts[got if isinstance(got, bool) else got[0].__name__] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 3000, verdicts
    assert verdicts["ZeroTestInconclusiveError"] > 200, verdicts
    # the underflow is a domain error, so no ZeroDivisionError escapes
    assert "ZeroDivisionError" not in verdicts, verdicts
    with pytest.raises(DomainEvalError, match=r"^value outside the floating-point range \(0\.0 "):
        evaluate(Pow(x, -100), {"x": 1e-4})


def _draw_kinds(variables, box):
    """How the reference draws each of ``variables``, up to the first with
    no interval."""
    kinds, drawn = [], set()
    for v in variables:
        if v.name in drawn:
            continue
        if v.reality == scalars.COMPLEX_PAIRED and v.partner in drawn:
            kinds.append("conjugate")
        elif v.name not in box and v.partner not in box:
            return kinds + ["missing"]
        else:
            kinds.append({scalars.REAL: "real", scalars.POSITIVE_REAL: "real",
                          scalars.IMAGINARY: "imaginary",
                          scalars.UNIT_MODULUS: "unit"}.get(v.reality, "complex"))
        drawn.add(v.name)
    return kinds


def test_sample_point_matches_the_reference_sampler():
    # seeded variable sets over every tag: pairs with one or both names
    # present and the interval under either name, a name declared twice,
    # and variables with no interval, which raise at the first draw
    rng = random.Random(2828)
    kinds = ("real", "positive", "imaginary", "unit", "pair")
    draw_kinds = collections.Counter()
    for _ in range(400):
        pool = []
        for k in range(rng.randint(1, 5)):
            kind = rng.choice(kinds)
            if kind == "pair":
                pair = scalars.declared(kind, (f"p{k}", f"q{k}"))
                pool += rng.choice((pair, pair[:1], pair[1:]))
            else:
                pool += scalars.declared(kind, (f"v{k}",))
        if rng.random() < 0.1:
            pool.append(scalars.Variable(pool[0].name, scalars.IMAGINARY))
        variables = sorted(pool, key=lambda v: v.name)
        box = {}
        for v in variables:
            if rng.random() < 0.95:
                name = v.partner if v.partner and rng.random() < 0.5 else v.name
                box[name] = tuple(sorted((rng.uniform(-2, 2), rng.uniform(-2, 2))))
        seed = rng.randrange(10**6)
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got = _verdict(scalars.sample_point, variables, box, new)
            assert got == _verdict(_reference_sample_point, variables, box, old)
            # the same draws from the generator, in the same order
            assert new.getstate() == old.getstate()
        if not isinstance(got, dict) and got[0] is RealityViolationError:
            # a positive variable reaching below 0
            draw_kinds["refused"] += 1
            continue
        draw_kinds.update(_draw_kinds(variables, box))
    assert min(draw_kinds[k] for k in ("real", "imaginary", "unit", "complex",
                                       "conjugate", "missing", "refused")) > 20, draw_kinds


def test_a_missing_interval_raises_at_the_first_draw():
    table = VariableTable()
    x, y = (Var(v) for v in table.real("x", "y"))
    e = normalize(x + y)
    # no point drawn, no error
    assert list(scalars.sample_values(e, {"x": (0, 1)}, 0, seed=1)) == []
    with pytest.raises(ZeroTestInconclusiveError, match="^no box interval for variable y$"):
        next(scalars.sample_values(e, {"x": (0, 1)}, 1, seed=1))


def test_a_zero_test_that_reads_no_point_is_not_zero():
    # the kernel cannot certify this identity, so only sampling calls it zero
    table = VariableTable()
    table.positive("p")
    e = parse("(p+2*p^(1/2)+1)^(1/2) - p^(1/2) - 1", table)
    box = {"p": (1, 2)}
    assert not certify_zero(normalize(e))
    assert is_identically_zero(e, box, trials=16) is True
    for trials in (0, -1):
        with pytest.raises(ZeroTestInconclusiveError):
            is_identically_zero(e, box, trials=trials)


def test_shared_dag_visits_each_node_once():
    # e <- e*e + e doubles the paths at every level: 2^40 of them, 81 nodes
    table = VariableTable()
    t1 = Var(table.real("t1")[0])
    e, expected = t1, 1e-6
    for _ in range(40):
        e, expected = e * e + e, expected * expected + expected
    start = time.perf_counter()
    assert free_variables(e) == frozenset({t1.var})
    value = evaluate(e, {"t1": 1e-6})
    assert time.perf_counter() - start < 1.0
    assert value == expected


def test_substitute_and_conjugate_rebuild_each_shared_node_once():
    # e <- e + e doubles the paths at every level: 2^40 of them, 41 nodes
    table = VariableTable()
    t1, t2 = (Var(v) for v in table.real("t1", "t2"))
    z, zb = (Var(v) for v in table.pair("z", "zb"))
    e, w = t1, z
    for _ in range(40):
        e, w = e + e, w + w
    start = time.perf_counter()
    substituted = substitute(e, {t1.var: t2})
    conjugated = conjugate(w)
    assert time.perf_counter() - start < 1.0
    assert substituted == normalize(2 ** 40 * t2)
    assert conjugated == normalize(2 ** 40 * zb)


# ---------------------------------------------------------------------------
# exponent and coefficient representation


def _exponents(nf, seen=None):
    """Every exponent in the pows keys of nf and of its sum atoms' forms."""
    seen = set() if seen is None else seen
    for pows in nf:
        for atom, e in pows:
            yield e
            if scalars._is_sum_atom(atom) and atom not in seen:
                seen.add(atom)
                yield from _exponents(scalars._nf(atom), seen)


def test_pows_keys_store_integral_exponents_as_int():
    # integral exponents are ints; any other is the one interned _KeyExp of
    # its value, hashing as its Fraction does
    scalars.clear_caches()
    table = VariableTable()
    variables = table.positive("x", "y", "z")
    texts = [
        "x", "x*y^2/z", "x^(1/2)*x^(1/2)", "(x+y)^(-1)*(x+y)", "2^(1/2)*2^(3/2)",
        "(x^2+y)^(3/2)", "(2*x^(3/2) + 4*x^(1/2)*y)^(-1)", "(x*y + x^2*y)^(-1/2)",
        "(x^2-1)*(x+1)^(-1)", "x*(x+y)^(-1/2) + y*(x+y)^(-1/2)",
    ]
    trees = [parse(t, table) for t in texts]
    rng = random.Random(12)
    trees += [_random_tree(rng, variables, rng.randint(1, 4)) for _ in range(60)]
    kinds = {int: 0, scalars._KeyExp: 0}
    for tree in trees:
        try:
            nf = scalars._nf(tree)
        except DomainEvalError:
            continue
        for e in _exponents(nf):
            assert type(e) is (int if e.denominator == 1 else scalars._KeyExp), (tree, e)
            if type(e) is scalars._KeyExp:
                assert scalars._key_exp(Fraction(e)) is e
                assert hash(e) == hash(Fraction(e))
            kinds[type(e)] += 1
    quotient = scalars._exact_quotient(_nf_of("x^(5/2) - x^(1/2)", table),
                                       _nf_of("x^(3/2) + x^(1/2)", table))
    assert quotient == _nf_of("x - 1", table)
    assert all(type(e) is int for e in _exponents(quotient))
    assert kinds[int] > 50 and kinds[scalars._KeyExp] > 20
    # nodes and coefficients built from key exponents hold plain Fractions
    scalars.clear_caches()
    half = scalars._key_exp(Fraction(1, 2))
    assert type(Pow(Var(table["x"]), half).exp) is Fraction
    assert type(QC.of(half).re) is Fraction


def test_equal_integer_powers_normalize_to_one_node():
    table = VariableTable()
    x, y = (Var(v) for v in table.real("x", "y"))
    for base in (x, x + y):
        forms = [normalize(base * base), normalize(Pow(base, 2)),
                 normalize(Pow(base, Fraction(4, 2)))]
        assert forms[0] is forms[1] is forms[2]
        assert len({to_text(f) for f in forms}) == 1


def _mul_formula(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _inverse_formula(a):
    n = a[0] * a[0] + a[1] * a[1]
    if n == 0:
        raise DomainEvalError("division by zero constant")
    return (a[0] / n, -a[1] / n)


def _pow_formula(a, k):
    base = a if k >= 0 else _inverse_formula(a)
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = _mul_formula(out, base)
    return out


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=30)
_gaussian = st.one_of(
    st.builds(QC.of, _rationals),
    st.builds(QC.of, _rationals, _rationals),
)


def _bits(z: complex):
    return (z.real.hex(), z.imag.hex())


def _parts(c):
    """(re, im) of a QC after checking its representation: int fields in
    lowest terms, Fraction parts, and a float value rounded as
    ``float(Fraction)`` rounds, bit for bit."""
    assert type(c.a) is type(c.b) is type(c.d) is int
    assert c.d > 0 and math.gcd(c.a, c.b, c.d) == 1
    assert type(c.re) is Fraction and type(c.im) is Fraction
    assert _bits(c.to_complex()) == _bits(complex(float(c.re), float(c.im)))
    return (c.re, c.im)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_gaussian, _gaussian, st.integers(min_value=-5, max_value=5))
def test_qc_fast_paths_match_the_complex_formulas(a, b, k):
    pa, pb = _parts(a), _parts(b)
    assert _parts(a + b) == (pa[0] + pb[0], pa[1] + pb[1])
    assert _parts(a - b) == (pa[0] - pb[0], pa[1] - pb[1])
    assert _parts(a * b) == _mul_formula(pa, pb)
    assert _parts(-a) == (-pa[0], -pa[1])
    assert _parts(a.conjugate()) == (pa[0], -pa[1])
    assert (a == b) == (pa == pb)
    if a == b:
        assert hash(a) == hash(b)
    try:
        expected = _inverse_formula(pa)
    except DomainEvalError:
        with pytest.raises(DomainEvalError):
            a.inverse()
    else:
        assert _parts(a.inverse()) == expected
    try:
        expected = _pow_formula(pa, k)
    except DomainEvalError:
        with pytest.raises(DomainEvalError):
            a.pow_int(k)
    else:
        assert _parts(a.pow_int(k)) == expected


_huge = st.integers(min_value=-10**400, max_value=10**400)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_huge, _huge, st.integers(min_value=1, max_value=10**400))
def test_qc_to_complex_rounds_as_fraction_does(p, q, den):
    """Parts far outside the float range round, overflow and underflow as
    ``float(Fraction)`` does, also when ``d`` shares factors with one part."""
    c = QC.of(Fraction(p, den), Fraction(q, den))
    try:
        expected = _bits(complex(float(c.re), float(c.im)))
    except OverflowError:
        with pytest.raises(OverflowError):
            c.to_complex()
    else:
        assert _bits(c.to_complex()) == expected


def _fraction_power_bits(c):
    """The coefficient size ``pow_int`` estimates, from the parts as
    Fractions in lowest terms (see ``scalars._POWER_BITS_BUDGET``)."""
    log2 = max(n.bit_length() for part in (c.re, c.im)
               for n in (part.numerator, part.denominator)) - 1
    return 2 * log2 + 1 if c.im else log2


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_gaussian, st.booleans())
def test_power_budget_boundary_is_the_fraction_estimate(c, negative):
    bits = _fraction_power_bits(c)
    if bits == 0 or (negative and c.is_zero):
        return  # 0 and units never grow; 0 has no negative power
    edge = scalars._POWER_BITS_BUDGET // bits
    sign = -1 if negative else 1
    c.pow_int(sign * edge)
    with pytest.raises(scalars.WorkBudgetError):
        c.pow_int(sign * (edge + 1))


def test_power_budget_reads_parts_in_lowest_terms():
    # (2 + 3i)/6 has parts 1/3 and 1/2: 2 bits, not the 3 bits of d = 6
    c = QC.of(Fraction(1, 3), Fraction(1, 2))
    assert (c.a, c.b, c.d) == (2, 3, 6)
    assert _fraction_power_bits(c) == 3
    c.pow_int(2000)
    with pytest.raises(scalars.WorkBudgetError):
        c.pow_int(2001)
    with pytest.raises(scalars.WorkBudgetError):
        QC.of(Fraction(3, 2)).pow_int(-6001)
    QC.of(Fraction(3, 2)).pow_int(-6000)
