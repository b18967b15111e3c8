import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from metabelian import cli
from metabelian.assoc import MetAssocElem, from_word
from metabelian.cyclo import CycNum, imag_unit
from metabelian.expr import (
    Bracket,
    Difference,
    ExprSyntaxError,
    Group,
    ImagLit,
    Power,
    Product,
    RationalLit,
    Sum,
    Variable,
    _evaluate,
    _Node,
    _Parser,
    _xy_inverse,
    _xy_matrix,
    eval_assoc,
    parse,
    print_elem,
    to_xy,
)
from metabelian.lie import MetLieElem
from metabelian.poly import ONE, CommPoly, uv
from helpers import (
    eval_with_leaves,
    evaluate_oracle,
    linear_image_oracle,
    random_assoc,
    random_cyc,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_parse_shapes():
    ast = parse("u*v + v*u")
    assert isinstance(ast, Sum)
    assert isinstance(ast.left, Product)
    assert parse("[v,u]") == Bracket(Variable("v"), Variable("u"))
    assert parse("[[v,u],u]") == Bracket(
        Bracket(Variable("v"), Variable("u")), Variable("u")
    )
    assert parse("u^3") == Power(Variable("u"), 3)
    assert parse("2/3") == RationalLit(Fraction(2, 3))
    assert parse("(u)") == Group(Variable("u"))
    assert parse("-u") == Difference(RationalLit(Fraction(0)), Variable("u"))
    # the binary nodes share their fields, but not equality or repr
    u, v = Variable("u"), Variable("v")
    assert parse("u*v") == Product(u, v) != Sum(u, v)
    assert repr(parse("u+v")) == "Sum(left=Variable(name='u'), right=Variable(name='v'))"


_U, _V = Variable("u"), Variable("v")
# every node type, built twice from equal fields, with the repr of each
_NODES = [
    (lambda: Sum(_U, _V), "Sum(left=Variable(name='u'), right=Variable(name='v'))"),
    (lambda: Difference(_U, _V), "Difference(left=Variable(name='u'), right=Variable(name='v'))"),
    (lambda: Product(_U, _V), "Product(left=Variable(name='u'), right=Variable(name='v'))"),
    (lambda: Bracket(_U, _V), "Bracket(left=Variable(name='u'), right=Variable(name='v'))"),
    (lambda: Power(Variable("u"), 3), "Power(base=Variable(name='u'), exponent=3)"),
    (lambda: Variable("x"), "Variable(name='x')"),
    (lambda: RationalLit(Fraction(2, 3)), "RationalLit(value=Fraction(2, 3))"),
    (lambda: ImagLit(), "ImagLit()"),
    (lambda: Group(Variable("v")), "Group(inner=Variable(name='v'))"),
]


def _plain(node):
    """A node as nested plain tuples, which hash recursively in C."""
    return tuple(_plain(f) if isinstance(f, _Node) else f for f in node)


def test_a_node_hashes_as_its_plain_tuple():
    tree = parse("-(u*v - 3/2*[x, y^2])^2 + i*(x + 1)")
    assert hash(tree) == hash(_plain(tree))
    assert {tree: 1}[parse("-(u*v - 3/2*[x, y^2])^2 + i*(x + 1)")] == 1


@pytest.mark.parametrize("make,text", _NODES, ids=[text[: text.index("(")] for _, text in _NODES])
def test_nodes_are_frozen_records_of_their_type(make, text):
    node, twin = make(), make()
    assert node == twin and not node != twin
    assert hash(node) == hash(twin) == hash(_plain(node))
    assert repr(node) == text
    # a node equals a node of its own type only, and never a plain tuple
    for other_make, _ in _NODES:
        other = other_make()
        assert (node == other) is (type(other) is type(node))
        assert (node != other) is (type(other) is not type(node))
    fields = type(node).__match_args__
    values = tuple(getattr(node, name) for name in fields)
    assert node != values and values != node and not node == values
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    assert {node: 1}[twin] == 1


def test_parse_errors_are_positioned():
    cases = {
        "u +": 3,
        "1/0": 2,
        "u v": 2,
        "w": 0,
        "u^": 2,
        "((u)": 4,
        "2*-3": 2,
        "[u v]": 3,
        "u $ v": 2,
        "1/-2": 2,
        "1/u": 2,
    }
    for text, offset in cases.items():
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.offset == offset
        assert err.value.expected
        # the expected set is in grammar words, never a token kind
        assert "'int'" not in str(err.value)


def test_eval_examples():
    e = eval_assoc(parse("x^2 + y^2"))
    half = CycNum.from_rational(4, Fraction(1, 2))
    expect = MetAssocElem(
        CommPoly.term(uv(1, 1), CycNum.one(4)),
        CommPoly.constant(half),
    )
    assert e == expect
    assert eval_assoc(parse("[v,u]")) == MetAssocElem.from_comm(
        CommPoly.constant(CycNum.one(4))
    )
    assert eval_assoc(parse("u^3 + v^3")) == from_word("uuu") + from_word("vvv")
    # scalars commute with everything
    assert eval_assoc(parse("2*u")) == eval_assoc(parse("u*2"))
    assert eval_assoc(parse("i*i")) == eval_assoc(parse("-1"))


def test_eval_is_multiplicative():
    rng = Random(59)
    texts = ["u*v", "v+u", "[v,u]", "x^2", "u^2 - i*v", "1/2*u*v*u"]
    for _ in range(30):
        a, b = rng.choice(texts), rng.choice(texts)
        lhs = eval_assoc(parse(f"({a})*({b})"))
        rhs = eval_assoc(parse(a)) * eval_assoc(parse(b))
        assert lhs == rhs


class _UnsharedParser(_Parser):
    """The parser with every node built afresh: the tree before sharing."""

    def share(self, key, *fields):
        return key[0](*fields)


def _visits(tree) -> list:
    """Every node of a tree, once per place it occurs."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack += (f for f in node if isinstance(f, _Node))
    return out


def test_sharing_changes_no_tree_and_no_value(monkeypatch):
    # the criterion-8 texts in both bases, the benchmark's canon-xy inputs
    # for seeds 0-3, and grammar texts with repeated groups and brackets
    monkeypatch.syspath_prepend(str(BENCH))
    from run import canon_pass

    rng = Random(4242)
    elems = [random_assoc(rng, order=4, max_degree=8, terms=4) for _ in range(20)]
    texts = [print_elem(e, basis) for e in elems for basis in ("uv", "xy")]
    texts += [text for seed in range(4) for text in canon_pass(seed, 0)]
    rng = Random(107)
    texts += [_gen_expr(rng, 6, 0)[0] for _ in range(40)]
    visits = distinct = 0
    for text in texts:
        tree, unshared = parse(text), _UnsharedParser(text).parse()
        assert tree == unshared, text
        nodes = _visits(unshared)
        assert len({id(n) for n in nodes}) == len(nodes)
        assert eval_assoc(tree) == eval_assoc(unshared), text
        factors = [n for n in _visits(tree) if type(n) not in (Sum, Difference, Product)]
        visits += len(factors)
        distinct += len({id(n) for n in factors})
    # most factor occurrences repeat an earlier one of their text
    assert distinct < visits / 2


def test_a_repeated_factor_is_evaluated_once(monkeypatch):
    calls = {"__pow__": 0, "commutator": 0}
    for name in calls:
        original = getattr(MetAssocElem, name)

        def counted(self, other, name=name, original=original):
            calls[name] += 1
            return original(self, other)

        monkeypatch.setattr(MetAssocElem, name, counted)
    powers = parse(" + ".join(f"{k}*x^7*y" for k in range(1, 51)))
    assert powers.left.right.left.right is powers.right.left.right
    value = eval_assoc(powers)
    assert calls == {"__pow__": 1, "commutator": 0}
    assert value == eval_assoc(parse("1275*x^7*y"))
    brackets = parse(" - ".join(["[y,x]*x"] * 50))
    assert brackets.left.right.left is brackets.right.left
    value = eval_assoc(brackets)
    assert calls == {"__pow__": 2, "commutator": 1}
    assert value == eval_assoc(parse("-48*[y,x]*x"))


def _chain(node, ops) -> list:
    """The operands of a left-leaning chain of the node types ``ops``,
    left to right."""
    rights = []
    while type(node) in ops:
        rights.append(node.right)
        node = node.left
    return [node, *reversed(rights)]


def _constant(tree) -> bool:
    return not any(type(n) is Variable for n in _visits(tree))


def test_evaluation_equals_the_element_oracle(monkeypatch):
    # _evaluate keeps constants as scalars, multiplies each product prefix
    # once and sums a chain into one map; the oracle makes every node, a
    # literal too, an element and each chain link one algebra operation
    monkeypatch.syspath_prepend(str(BENCH))
    from run import canon_pass

    rng = Random(4243)
    elems = [random_assoc(rng, order=4, max_degree=8, terms=4) for _ in range(15)]
    texts = [print_elem(e, basis) for e in elems for basis in ("uv", "xy")]
    inputs = [text for seed in range(4) for text in canon_pass(seed, 0)]
    texts += inputs + [print_elem(eval_assoc(parse(t)), "xy") for t in inputs[::10]]
    rng = Random(109)
    texts += [_gen_expr(rng, 6, 0)[0] for _ in range(60)]
    texts += ["(1-i)*(1+i)", "2^10", "[2,3]", "-(1/2)", "0^0", "3 - 3", "[x, 2*i]", "0*x - 1"]
    trees = [parse(text) for text in texts]
    # hand-built trees the parser never makes: a product of sums, a
    # product on the right of a product, and shared nodes in one tree
    x, y, u = Variable("x"), Variable("y"), Variable("u")
    one, two, i = RationalLit(Fraction(1)), RationalLit(Fraction(2)), ImagLit()
    s = Sum(x, two)
    trees += [
        Product(Sum(x, two), Difference(y, i)),
        Sum(Product(Sum(x, y), x), Product(y, Sum(x, one))),
        Product(Product(x, y), Product(y, Product(two, x))),
        Difference(Product(Difference(x, x), y), RationalLit(Fraction(3))),
        Product(Sum(one, two), Product(i, x)),
        Product(Product(s, s), Product(s, y)),
        Sum(Product(Product(x, y), x), Difference(Product(Product(x, y), y), Product(x, y))),
        Bracket(Sum(x, one), Product(two, Power(Sum(y, i), 3))),
        Power(Group(Difference(Product(i, u), Product(x, Sum(one, i)))), 2),
        Product(Difference(one, one), x),
    ]
    x_leaf, y_leaf = (MetAssocElem.letter(name) for name in "uv")
    leaves = {"x": x_leaf, "y": y_leaf, "u": x_leaf + y_leaf, "v": x_leaf.scale(Fraction(1, 3))}
    for tree in trees:
        c, e = _evaluate(tree, leaves, {})
        assert (e is None) >= _constant(tree), tree
        value = MetAssocElem.one().scale(c) if e is None else e.scale(c)
        assert value == evaluate_oracle(tree, leaves, {}), tree
        assert eval_assoc(tree) == eval_with_leaves(tree), tree


def test_a_read_back_multiplies_each_prefix_once(monkeypatch):
    # the constants of a canonical text are scalars, never operands of an
    # algebra product, and terms that share a monomial prefix such as
    # x^3*y*[y,x] share its product
    e = random_assoc(Random(163), order=4, max_degree=8, terms=12)
    xy = to_xy(e)
    tree = parse(print_elem(xy, "xy", "xy"))
    distinct, occurrences = set(), 0
    for term in _chain(tree, (Sum, Difference)):
        factors = [id(f) for f in _chain(term, (Product,)) if not _constant(f)]
        prefixes = [tuple(factors[:k]) for k in range(2, len(factors) + 1)]
        distinct.update(prefixes)
        occurrences += len(prefixes)
    assert len(distinct) < occurrences
    chain_products, original = [], MetAssocElem.__mul__

    def counted(self, other):
        for operand in (self, other):
            assert operand.comm_part.terms or operand.poly_part.terms.keys() - {uv(0, 0)}
        if sys._getframe(1).f_code is _evaluate.__code__:
            chain_products.append(1)
        return original(self, other)

    monkeypatch.setattr(MetAssocElem, "__mul__", counted)
    assert eval_assoc(tree, "xy") == xy
    assert len(chain_products) == len(distinct)


def test_print_examples():
    e = eval_assoc(parse("u*v")) + MetAssocElem.from_comm(
        CommPoly.constant(CycNum.from_rational(4, Fraction(1, 2)))
    )
    assert print_elem(e) == "u*v + 1/2*[v,u]"
    assert print_elem(MetAssocElem.zero()) == "0"
    br = eval_assoc(parse("[v,u]"))
    assert print_elem(br, "xy") == "-2*i*[y,x]"
    assert print_elem(eval_assoc(parse("v*u"))) == "u*v + [v,u]"


@pytest.mark.parametrize("order", [4, 12, 20, 420])
def test_gaussian_coefficients_print_in_lowest_terms(order):
    # at order 420, i reduces to several terms and its constant-free
    # coefficients can be negative, so a + b*i is read with a sign change
    i = imag_unit(order)
    cases = [
        (Fraction(1, 2), 3, "u + (1/2 + 3*i)*v"),
        (Fraction(-2, 3), -1, "u + (-2/3 - i)*v"),
        (0, Fraction(-4, 6), "u - 2/3*i*v"),
        (Fraction(10, 4), 0, "u + 5/2*v"),
        (0, 1, "u + i*v"),
    ]
    for a, b, text in cases:
        c = CycNum.from_rational(order, a) + i * b
        e = MetAssocElem.letter("u") + MetAssocElem.letter("v").scale(c)
        assert print_elem(e) == text, (a, b)


def test_print_lie():
    e = MetLieElem.generator("u") + MetLieElem.from_comm(
        CommPoly.term(uv(2, 1), CycNum.from_rational(4, 3))
    )
    assert print_elem(e) == "u + 3*[v,u] ad(u)^2 ad(v)"
    assert print_elem(e, "xy") == (
        "x + i*y - 6*i*[y,x] ad(x)^3 + 6*[y,x] ad(x)^2 ad(y)"
        " - 6*i*[y,x] ad(x) ad(y)^2 + 6*[y,x] ad(y)^3"
    )
    i = imag_unit(4)
    e = MetLieElem(
        CommPoly.linear(CycNum.from_rational(4, Fraction(-3, 2)), i * -2 + Fraction(1, 2)),
        CommPoly({uv(0, 0): -i, uv(1, 2): i + Fraction(2, 3), uv(3, 0): i * 5}),
    )
    assert print_elem(e) == (
        "-3/2*u + (1/2 - 2*i)*v + 5*i*[v,u] ad(u)^3"
        " + (2/3 + i)*[v,u] ad(u) ad(v)^2 - i*[v,u]"
    )
    assert print_elem(e, "xy") == (
        "(-1 - 2*i)*x + (-2 - 2*i)*y + (12 - 4/3*i)*[y,x] ad(x)^3"
        " + (-4/3 + 28*i)*[y,x] ad(x)^2 ad(y) + (-28 - 4/3*i)*[y,x] ad(x) ad(y)^2"
        " + (-4/3 - 12*i)*[y,x] ad(y)^3 - 2*[y,x]"
    )


def test_to_xy_identity():
    # x^2 + y^2 should become literally x^2 + y^2 in the xy rendering
    e = eval_assoc(parse("x^2 + y^2"))
    assert print_elem(e, "xy") == "x^2 + y^2"


def test_round_trip_uv_and_xy():
    rng = Random(61)
    for _ in range(150):
        e = random_assoc(rng, order=4, max_degree=6, terms=4)
        assert eval_assoc(parse(print_elem(e, "uv"))) == e
    for _ in range(40):
        e = random_assoc(rng, order=4, max_degree=5, terms=3)
        assert eval_assoc(parse(print_elem(e, "xy"))) == e


def test_own_letter_evaluation_matches_leaves():
    # an x, y text is evaluated over its own letters and changes basis
    # once; a text mixing u or v with x or y uses the leaves
    rng = Random(151)
    for _ in range(5):
        e, f = (random_assoc(rng, order=4, max_degree=8) for _ in range(2))
        xy = print_elem(e, "xy")
        assert eval_assoc(parse(xy)) == e == eval_with_leaves(parse(xy))
        assert eval_assoc(parse(xy), "xy") == to_xy(e)
        assert print_elem(eval_assoc(parse(xy), "xy"), "uv", "xy") == print_elem(e)
        mixed = f"-1/3*i*[x,{print_elem(f)}] + u*(x + i*y)^3 - 2/5*y^2"
        expect = eval_with_leaves(parse(mixed))
        assert eval_assoc(parse(mixed)) == expect
        assert eval_assoc(parse(mixed), "xy") == to_xy(expect)
    for text in ("3/4 - 2*i", "i*(x - 1/2*y)^3*[y,x] + 7", "u*v - i*[x,y]*u"):
        expect = eval_with_leaves(parse(text))
        assert eval_assoc(parse(text)) == expect
        assert print_elem(eval_assoc(parse(text), "xy"), "xy", "xy") == print_elem(expect, "xy")


def test_commutator_block_changes_basis_with_no_algebra_product(monkeypatch):
    # [gv, gu] = det(g) [v,u], so a commutator-only element maps both ways
    # by one substitute, with no product or power in the algebra
    rng = Random(157)
    order = 12
    elems = [
        MetAssocElem.from_comm(random_assoc(rng, order, 8, terms=8, coeff=random_cyc).comm_part)
        for _ in range(5)
    ]
    xys = [linear_image_oracle(e, *_xy_matrix(order)) for e in elems]

    def no_product(*args):
        raise AssertionError("an algebra product was taken")

    monkeypatch.setattr(MetAssocElem, "__mul__", no_product)
    monkeypatch.setattr(MetAssocElem, "__pow__", no_product)
    with pytest.raises(AssertionError, match="algebra product"):
        to_xy(MetAssocElem(CommPoly.term(uv(2, 1), ONE)))
    for e, xy in zip(elems, xys):
        assert to_xy(e) == xy
        assert xy.linear_image(*_xy_inverse(order)) == e


def test_unknown_basis_is_rejected():
    e = eval_assoc(parse("u"))
    for call in (
        lambda: eval_assoc(parse("u"), "ab"),
        lambda: print_elem(e, "ab"),
        lambda: print_elem(e, "uv", "ab"),
    ):
        with pytest.raises(ValueError, match="basis must be 'uv' or 'xy', not 'ab'"):
            call()


def test_round_trip_with_gaussian_coefficients():
    i = imag_unit(4)
    e = MetAssocElem(
        CommPoly.term(uv(2, 0), CycNum.from_rational(4, Fraction(-3, 2)) + i),
        CommPoly.term((0, 0, 1, 0, 0, 2), i * Fraction(5, 3)),
    )
    text = print_elem(e)
    assert eval_assoc(parse(text)) == e


def test_fuzz_never_crashes():
    # parsing is total: every input parses or yields a positioned error
    rng = Random(67)
    alphabet = "uvxyi0123456789+-*/^()[], z"
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
        try:
            parse(text)
        except ExprSyntaxError as err:
            assert 0 <= err.offset <= len(text)


def test_unknown_character_is_positioned():
    with pytest.raises(ExprSyntaxError) as err:
        parse("u + é")
    assert err.value.offset == 4


# Grammar-valid random text: each helper is one production of the grammar
# and returns (text, degree), the degree counting letters with '^'
# multiplying, so a tree stays within its degree budget.

def _gen_expr(rng, budget, depth, head_minus=True):
    parts, deg = [], 0
    for k in range(rng.randint(1, 3)):
        text, d = _gen_term(rng, budget, depth)
        if k:
            parts.append(rng.choice((" + ", " - ")))
        elif head_minus and rng.random() < 0.3:
            parts.append("-")
        parts.append(text)
        deg = max(deg, d)
    return "".join(parts), deg


def _gen_term(rng, budget, depth):
    factors, deg = [], 0
    for _ in range(rng.randint(1, 3)):
        text, d = _gen_factor(rng, budget - deg, depth)
        factors.append(text)
        deg += d
    return "*".join(factors), deg


def _gen_factor(rng, budget, depth):
    text, d = _gen_atom(rng, budget, depth)
    if rng.random() < 0.3:
        k = rng.randint(0, 3) if d == 0 else rng.randint(0, budget // d)
        return f"{text}^{k}", d * k
    return text, d


def _gen_atom(rng, budget, depth):
    r = rng.random() if budget else 1.0
    if r < 0.45:
        return rng.choice("uvxy"), 1
    if depth < 3 and r < 0.6:
        left, dl = _gen_expr(rng, budget, depth + 1)
        right, dr = _gen_expr(rng, budget - dl, depth + 1)
        return f"[{left},{right}]", dl + dr
    if depth < 3 and r < 0.75:
        inner, d = _gen_expr(rng, budget, depth + 1)
        return f"({inner})", d
    if r < 0.85:
        return "i", 0
    num = str(rng.randint(0, 9))
    return (num if rng.random() < 0.5 else f"{num}/{rng.randint(1, 9)}"), 0


def test_grammar_round_trip_fuzz(capsys):
    # eval, print in each basis, parse and eval again: the same element.
    # The head of the whole text carries no '-', which argparse would
    # read as an option.
    rng = Random(103)
    for _ in range(60):
        text, deg = _gen_expr(rng, 6, 0, head_minus=False)
        assert deg <= 6
        e = eval_assoc(parse(text))
        assert e.degree() <= 6
        for basis in ("uv", "xy"):
            assert eval_assoc(parse(print_elem(e, basis))) == e
            assert cli.main(["canon", "--basis", basis, text]) == 0
    capsys.readouterr()
