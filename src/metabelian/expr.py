"""Expression language for algebra elements, with printing both ways.

Grammar (whitespace insignificant, '-' also unary at the head of an
expression, including inside parentheses and brackets):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' NAT)?
    atom   := VAR | NUMBER | 'i' | '(' expr ')' | '[' expr ',' expr ']'
    NUMBER := INT ('/' INT)?
    INT    := ASCII digits 0-9, one or more
    VAR    := 'u' | 'v' | 'x' | 'y'

Parentheses and brackets nest at most MAX_NESTING deep; deeper input is
a syntax error.

The language denotes elements over Q(i): rational literals are
field-free and 'i' is the square root of -1 of order 4.  A text that
names neither u nor v is evaluated over its own letters, x in the u slot
and y in the v slot, so it lands in the x, y presentation; only a text
that mixes u or v with x or y uses the leaves x = (u+v)/2 and
y = (u-v)/(2i).  ``eval_assoc`` and ``print_elem`` then change basis at
most once, with one ``linear_image``: u -> x + i*y, v -> x - i*y
towards x, y and its inverse towards u, v, both from ``_xy_matrix``.
``canon --basis xy`` of an x, y text changes basis not at all.  Printing
uses only grammar atoms whenever the coefficients lie in Q(i), which
covers every element the language itself can denote; other cyclotomic
coefficients, which only a caller's rotation brings in, render in the
z(m,k) notation for display only.
"""

from __future__ import annotations

import operator
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .assoc import MetAssocElem, MetElem
from .cyclo import CycNum, _fraction_text, _powers, _signed_part, _signed_sum, imag_unit
from .lie import MetLieElem
from .poly import IU, IU1, IU2, ONE

__all__ = [
    "Bracket",
    "Difference",
    "ExprSyntaxError",
    "Group",
    "ImagLit",
    "Power",
    "Product",
    "RationalLit",
    "Sum",
    "Variable",
    "eval_assoc",
    "parse",
    "print_elem",
    "to_xy",
]


class ExprSyntaxError(ValueError):
    """A positioned parse error with the set of tokens that would fit."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"syntax error at offset {offset}: expected "
            f"{' or '.join(expected)}, found {found}"
        )


# ----------------------------------------------------------------------
# Syntax trees
# ----------------------------------------------------------------------

class _Node(tuple):
    """A frozen syntax-tree node, the tuple of its fields: it equals a node
    of its own type with equal fields and nothing else, and hashes as that
    tuple."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other


class _Binary(_Node, namedtuple("_Binary", "left right")):
    __slots__ = ()


class Sum(_Binary):
    __slots__ = ()


class Difference(_Binary):
    __slots__ = ()


class Product(_Binary):
    __slots__ = ()


class Bracket(_Binary):
    __slots__ = ()


class Power(_Node, namedtuple("Power", "base exponent")):
    __slots__ = ()


class Variable(_Node, namedtuple("Variable", "name")):
    __slots__ = ()


class RationalLit(_Node, namedtuple("RationalLit", "value")):
    __slots__ = ()


class ImagLit(_Node, namedtuple("ImagLit", "")):
    __slots__ = ()


class Group(_Node, namedtuple("Group", "inner")):
    __slots__ = ()


# ----------------------------------------------------------------------
# Lexer and parser (recursive descent, one token of lookahead)
# ----------------------------------------------------------------------

_PUNCT = "+-*^()[],/"
# INT is ASCII 0-9; str.isdigit also takes superscripts and other scripts' digits
_DIGITS = "0123456789"


_Token = namedtuple("_Token", "kind text pos")


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            out.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(
            i, ("a number", "a variable", "an operator"), repr(ch)
        )
    out.append(_Token("eof", "", len(text)))
    return out


_ATOM_EXPECTED = ("a number", "'i'", "'u'", "'v'", "'x'", "'y'", "'('", "'['")

# Each nesting level costs a few interpreter frames in the parser and in
# evaluation; this bound keeps both well inside Python's recursion limit.
MAX_NESTING = 100


def _int_value(tok: _Token) -> int:
    """An INT token's value; ``int`` refuses more digits than
    ``sys.get_int_max_str_digits()``, so such a literal is a syntax error."""
    try:
        return int(tok.text)
    except ValueError:
        expected = f"an integer of at most {sys.get_int_max_str_digits()} digits"
        found = f"a {len(tok.text)}-digit integer"
        raise ExprSyntaxError(tok.pos, (expected,), found) from None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        found = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise ExprSyntaxError(tok.pos, expected, found)

    def expect(self, kind: str) -> _Token:
        if self.peek().kind != kind:
            self.fail((f"'{kind}'",))
        return self.advance()

    def parse(self):
        node = self.expr()
        if self.peek().kind != "eof":
            self.fail(("'+'", "'-'", "'*'", "'^'", "end of input"))
        return node

    def expr(self):
        if self.peek().kind == "-":
            self.advance()
            node = Difference(RationalLit(Fraction(0)), self.term())
        else:
            node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            node = Sum(node, rhs) if op == "+" else Difference(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "*":
            self.advance()
            node = Product(node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            if self.peek().kind != "int":
                self.fail(("a nonnegative integer exponent",))
            node = Power(node, _int_value(self.advance()))
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            num = _int_value(tok)
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.peek()
                den = _int_value(den_tok) if den_tok.kind == "int" else 0
                if not den:
                    self.fail(("a positive integer denominator",))
                self.advance()
                return RationalLit(Fraction(num, den))
            return RationalLit(Fraction(num))
        if tok.kind == "name":
            self.advance()
            if tok.text == "i":
                return ImagLit()
            if tok.text in ("u", "v", "x", "y"):
                return Variable(tok.text)
            raise ExprSyntaxError(
                tok.pos, ("'u'", "'v'", "'x'", "'y'", "'i'"), repr(tok.text)
            )
        if tok.kind in ("(", "["):
            if self.depth == MAX_NESTING:
                self.fail((f"nesting depth at most {MAX_NESTING}",))
            self.depth += 1
            self.advance()
            if tok.kind == "(":
                node = Group(self.expr())
                self.expect(")")
            else:
                left = self.expr()
                self.expect(",")
                node = Bracket(left, self.expr())
                self.expect("]")
            self.depth -= 1
            return node
        self.fail(_ATOM_EXPECTED)


def parse(text: str):
    """Parse an expression; errors carry an offset and the expected set."""
    return _Parser(text).parse()


# ----------------------------------------------------------------------
# The x, y coordinates
# ----------------------------------------------------------------------

def _xy_matrix(order: int) -> tuple[CycNum, CycNum, CycNum, CycNum]:
    """u = x + i*y and v = x - i*y, as the arguments (a, b, c, d) of
    ``linear_image``: u -> a*x + c*y, v -> b*x + d*y, with i taken in
    the field of the given order."""
    i = imag_unit(order)
    return ONE, ONE, i, -i


def _xy_inverse(order: int) -> tuple[CycNum, CycNum, CycNum, CycNum]:
    """The inverse of ``_xy_matrix``: x = (u+v)/2 and y = (u-v)/(2i),
    that is (1/2, -i/2, 1/2, i/2), written out so that nothing divides."""
    half = CycNum(order, {0: Fraction(1, 2)})
    i = imag_unit(order) * Fraction(1, 2)
    return half, -i, half, i


@lru_cache(maxsize=None)
def _xy_letters() -> tuple[MetAssocElem, MetAssocElem]:
    """x and y over u, v: the images of the two letters under
    ``_xy_inverse``, that is (u+v)/2 and (u-v)/(2i)."""
    return tuple(MetAssocElem.letter(name).linear_image(*_xy_inverse(4)) for name in "uv")


def _field_order(e: MetElem) -> int:
    """The order of the first non-rational coefficient, 4 when every
    coefficient is rational."""
    coeffs = chain(e.poly_part.terms.values(), e.comm_part.terms.values())
    return next((c.order for c in coeffs if not c.is_rational()), 4)


def to_xy(e: MetElem) -> MetElem:
    """Rewrite an element over the generators x, y.

    The result is a canonical element of the same algebra whose u, v
    slots carry x, y.  i is taken in the field of the first non-rational
    coefficient, which must contain it, or in Q(i) when every
    coefficient is rational.
    """
    return e.linear_image(*_xy_matrix(_field_order(e)))


def _rewrite(e, written: str, basis: str):
    """An element written over the generators of ``written`` (u, v or
    x, y in its u, v slots), rewritten over those of ``basis``."""
    for name in (written, basis):
        if name not in ("uv", "xy"):
            raise ValueError(f"basis must be 'uv' or 'xy', not {name!r}")
    if written == basis:
        return e
    if basis == "xy":
        return to_xy(e)
    return e.linear_image(*_xy_inverse(_field_order(e)))


# ----------------------------------------------------------------------
# Evaluation into the associative algebra
# ----------------------------------------------------------------------

_CHAIN_OPS = {Sum: operator.add, Difference: operator.sub, Product: operator.mul}


def _letters(node) -> set[str]:
    """The variable names a syntax tree uses."""
    names, stack = set(), [node]
    while stack:
        match stack.pop():
            case Variable(name=name):
                names.add(name)
            case _Binary(left=l, right=r):
                stack += (l, r)
            case Group(inner=inner):
                stack.append(inner)
            case Power(base=b):
                stack.append(b)
    return names


def eval_assoc(node, basis: str = "uv") -> MetAssocElem:
    """Evaluate a syntax tree over Q(i), written over the generators of
    ``basis`` (u, v by default, or x, y in the u, v slots).

    A text that names neither u nor v is evaluated over its own letters,
    x in the u slot and y in the v slot; a text that names u or v is
    evaluated over u, v, with the leaves x = (u+v)/2 and y = (u-v)/(2i)
    where it mixes both.  Either way the basis changes at most once,
    by one ``linear_image``, and not at all when the text is already
    written over ``basis``.
    """
    if _letters(node) & {"u", "v"}:
        x, y = _xy_letters()
        leaves = {"u": MetAssocElem.letter("u"), "v": MetAssocElem.letter("v"), "x": x, "y": y}
        written = "uv"
    else:
        leaves = {"x": MetAssocElem.letter("u"), "y": MetAssocElem.letter("v")}
        written = "xy"
    return _rewrite(_evaluate(node, leaves), written, basis)


def _evaluate(node, leaves: dict[str, MetAssocElem]) -> MetAssocElem:
    """Evaluate a syntax tree with each variable name bound to its leaf."""
    # A flat chain such as u+u+...+u parses into a tree as deep as the
    # chain is long, so its left spine is walked by a loop, not recursion.
    spine = []
    while type(node) in _CHAIN_OPS:
        spine.append(node)
        node = node.left
    match node:
        case RationalLit(value=q):
            value = MetAssocElem.one().scale(q)
        case ImagLit():
            value = MetAssocElem.one().scale(imag_unit(4))
        case Variable(name=name):
            value = leaves[name]
        case Group(inner=inner):
            value = _evaluate(inner, leaves)
        case Power(base=b, exponent=k):
            value = _evaluate(b, leaves) ** k
        case Bracket(left=l, right=r):
            value = _evaluate(l, leaves).commutator(_evaluate(r, leaves))
        case _:
            raise TypeError(f"not an expression node: {node!r}")
    for op in reversed(spine):
        value = _CHAIN_OPS[type(op)](value, _evaluate(op.right, leaves))
    return value


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------

def _scalar_text(c: CycNum) -> tuple[bool, str]:
    """Render a coefficient as (negate, body); body is grammar-parseable
    whenever the value lies in Q(i)."""
    g = c._gaussian()
    if g is not None:
        a, b, den = g
        real = (a < 0, _fraction_text(a, den))
        imag = (b < 0, "i" if abs(b) == den else f"{_fraction_text(b, den)}*i")
        if not b:
            return real
        if not a:
            return imag
        return (False, f"({_signed_sum([real, imag])})")
    return _signed_part(c)


def _term(c: CycNum, mono: str) -> tuple[bool, str]:
    """A coefficient times a monomial's text, as (negate, body)."""
    neg, body = _scalar_text(c)
    if mono:
        body = mono if body == "1" else f"{body}*{mono}"
    return neg, body


def _assoc_word(letters: tuple[str, str], bracket: str, m: tuple[int, ...]) -> str:
    """u^a v^b [v,u] u^c v^d for the commutator monomial u1^a v1^b u2^c v2^d."""
    return "*".join([*_powers(letters, m[IU1:IU2]), bracket, *_powers(letters, m[IU2:])])


def _lie_word(letters: tuple[str, str], bracket: str, m: tuple[int, ...]) -> str:
    """[v,u] ad(u)^a ad(v)^b for the commutator monomial u^a v^b."""
    return " ".join([bracket, *_powers([f"ad({name})" for name in letters], m[IU:IU1])])


# how each algebra writes a monomial of its commutator block
_COMM_WORDS = {MetAssocElem: _assoc_word, MetLieElem: _lie_word}


def print_elem(e, basis: str = "uv", written: str = "uv") -> str:
    """Deterministic canonical rendering over the generators of ``basis``
    of an element written over those of ``written``."""
    comm_word = _COMM_WORDS.get(type(e))
    if comm_word is None:
        raise TypeError(f"cannot print {type(e).__name__}")
    e = _rewrite(e, written, basis)
    letters, bracket = (("u", "v"), "[v,u]") if basis == "uv" else (("x", "y"), "[y,x]")
    poly = (
        _term(c, "*".join(_powers(letters, m[IU:IU1])))
        for m, c in e.poly_part.sorted_terms()
    )
    comm = (_term(c, comm_word(letters, bracket, m)) for m, c in e.comm_part.sorted_terms())
    return _signed_sum(chain(poly, comm))
