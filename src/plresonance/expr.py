"""Parsing and evaluation of the scalar formulas that define problem data.

Nonlinearities f(x, u), boundary terms g(x, u), spatial weights such as
theta(x) or mu(x), and growth functions h(t) all enter as small infix
formulas.  The grammar is deliberately minimal: binary + - * / ^ with
^ binding tightest and right-associative, a unary minus between ^ and
* /, function calls, decimal literals with optional exponent, and the
constant pi.  There is no implicit multiplication.

Each formula is parsed against an explicit set of allowed variables so
that, for example, a spatial weight cannot accidentally reference u.
Evaluation works on scalars and on broadcastable numpy arrays, and any
domain violation (log of a non-positive number, square root of a
negative, division by zero, fractional power of a negative base) raises
``DomainError`` instead of propagating NaN.

Each operator and function is declared once: ``_OPERATORS`` and
``_FUNCTIONS`` give its numpy ufunc, and for a function its argument
count and domain rule.  The parser, the checked tree walk and the
compiler all read these rows.  A parsed formula is compiled once into a
closure of those ufunc calls, the same calls in the same order as the
checked tree walk, so both give the same bits.  ``evaluate`` runs the
closure with floating-point errors raised; only when one is raised, or
an input is not finite, does it re-walk the tree with a domain check at
every node to name the offending sub-expression.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "Expression",
    "parse",
    "evaluate",
    "to_text",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "VariableNotAllowedError",
    "ArityError",
    "UnboundVariableError",
    "DomainError",
    "KNOWN_VARIABLES",
]

KNOWN_VARIABLES = ("x", "y", "u", "t")
CONSTANTS = {"pi": math.pi}

# The ufunc of each binary operator; the walk checks / and ^ (``_power``).
_OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


class _Function(NamedTuple):
    ufunc: np.ufunc
    arity: int = 1
    domain: tuple | None = None  # (test the argument must pass, DomainError message)


# Every function of the grammar, for the parser, the checked walk and the compiler.
_FUNCTIONS = {
    "ln": _Function(np.log, domain=(lambda a: a > 0, "logarithm of a non-positive number")),
    "exp": _Function(np.exp),
    "sin": _Function(np.sin),
    "cos": _Function(np.cos),
    "tanh": _Function(np.tanh),
    "abs": _Function(np.abs),
    "sqrt": _Function(np.sqrt, domain=(lambda a: a >= 0, "square root of a negative number")),
    "atan": _Function(np.arctan),
    "pow": _Function(_OPERATORS["^"], arity=2),  # pow(a, b) is a^b, checked by _power as ^ is
}
UNARY_FUNCTIONS = tuple(name for name, fn in _FUNCTIONS.items() if fn.arity == 1)


class ExprError(ValueError):
    """Base class for every expression-related failure."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ExprError):
    pass


class VariableNotAllowedError(ExprError):
    pass


class ArityError(ExprError):
    pass


class UnboundVariableError(ExprError):
    pass


class DomainError(ExprError):
    """Evaluation hit a point where a sub-expression is undefined."""

    def __init__(self, message: str, subexpression: str, value: float):
        super().__init__(f"{message} in '{subexpression}' (argument value {value!r})")
        self.subexpression = subexpression
        self.value = value


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


Node = Num | Var | Const | Neg | Bin | Call


@dataclass(frozen=True)
class Expression:
    """Immutable parsed formula together with its declared variable slot.

    ``compiled`` is filled at construction (see ``_compile``).
    """

    root: Node
    allowed_variables: frozenset
    free_variables: frozenset
    source: str
    compiled: tuple | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "compiled", _compile(self.root))

    def __reduce__(self):
        # closures do not pickle; the copy compiles its own
        return Expression, (self.root, self.allowed_variables, self.free_variables, self.source)


# --------------------------------------------------------------------------
# Tokenizer


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^(),":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad numeric literal '{text}'", i) from None
            tokens.append(("num", text, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


# --------------------------------------------------------------------------
# Recursive-descent parser


class _Parser:
    def __init__(self, source: str, allowed_vars):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.allowed = frozenset(allowed_vars)

    def _peek(self):
        return self.tokens[self.pos]

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node = self._sum()
        kind, text, pos = self._peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r} after expression", pos)
        return node

    def _sum(self) -> Node:
        node = self._product()
        while self._peek()[0] in ("+", "-"):
            op = self._next()[0]
            node = Bin(op, node, self._product())
        return node

    def _product(self) -> Node:
        node = self._unary()
        while self._peek()[0] in ("*", "/"):
            op = self._next()[0]
            node = Bin(op, node, self._unary())
        return node

    def _unary(self) -> Node:
        if self._peek()[0] == "-":
            self._next()
            return Neg(self._unary())
        return self._power()

    def _power(self) -> Node:
        base = self._atom()
        if self._peek()[0] == "^":
            self._next()
            # exponent may itself carry a unary minus, e.g. u^-2
            return Bin("^", base, self._unary())
        return base

    def _atom(self) -> Node:
        kind, text, pos = self._next()
        if kind == "num":
            return Num(float(text))
        if kind == "(":
            node = self._sum()
            kind, text, pos = self._next()
            if kind != ")":
                raise ExprSyntaxError("expected ')'", pos)
            return node
        if kind == "ident":
            if self._peek()[0] == "(":
                return self._call(text, pos)
            if text in CONSTANTS:
                return Const(text)
            if text in self.allowed:
                return Var(text)
            if text in KNOWN_VARIABLES:
                allowed = ", ".join(sorted(self.allowed)) or "none"
                raise VariableNotAllowedError(
                    f"variable '{text}' is not available here (allowed: {allowed})"
                )
            raise UnknownIdentifierError(f"unknown identifier '{text}'")
        raise ExprSyntaxError(f"expected a value, found {text!r}" if text else "unexpected end of input", pos)

    def _call(self, name: str, pos: int) -> Node:
        if name not in _FUNCTIONS:
            raise UnknownIdentifierError(f"unknown identifier '{name}'")
        self._next()  # consume '('
        args = [self._sum()]
        while self._peek()[0] == ",":
            self._next()
            args.append(self._sum())
        kind, _, cpos = self._next()
        if kind != ")":
            raise ExprSyntaxError("expected ')' closing argument list", cpos)
        want = _FUNCTIONS[name].arity
        if len(args) != want:
            raise ArityError(f"{name} expects {want} argument(s), got {len(args)}")
        return Call(name, tuple(args))


def _children(node: Node) -> tuple:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Bin):
        return (node.left, node.right)
    if isinstance(node, Call):
        return node.args
    return ()


def _free_vars(node: Node) -> set:
    if isinstance(node, Var):
        return {node.name}
    return set().union(*(_free_vars(child) for child in _children(node)))


def _finite_literals(node: Node) -> bool:
    if isinstance(node, Num):
        return math.isfinite(node.value)
    return all(_finite_literals(child) for child in _children(node))


def parse(source: str, allowed_vars) -> Expression:
    """Parse ``source`` into an ``Expression`` over the given variable set."""
    if not isinstance(source, str) or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    root = _Parser(source, allowed_vars).parse()
    return Expression(
        root=root,
        allowed_variables=frozenset(allowed_vars),
        free_variables=frozenset(_free_vars(root)),
        source=source,
    )


# --------------------------------------------------------------------------
# Printer (used for error messages and round-trip checks)

_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5

_BIN_LEVEL = {"+": _LEVEL_ADD, "-": _LEVEL_ADD, "*": _LEVEL_MUL, "/": _LEVEL_MUL, "^": _LEVEL_POW}


def _level(node: Node) -> int:
    if isinstance(node, (Num, Var, Const, Call)):
        return _LEVEL_ATOM
    if isinstance(node, Neg):
        return _LEVEL_NEG
    return _BIN_LEVEL[node.op]


def _wrap(node: Node, min_level: int) -> str:
    text = to_text(node)
    return f"({text})" if _level(node) < min_level else text


def to_text(node) -> str:
    """Render an AST (or Expression) back to parseable source text.

    Parenthesisation is conservative so that re-parsing reproduces the
    exact tree, including association of same-precedence chains.
    """
    if isinstance(node, Expression):
        node = node.root
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_text(a) for a in node.args)})"
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, _LEVEL_NEG)
    if node.op == "^":
        return _wrap(node.left, _LEVEL_ATOM) + "^" + _wrap(node.right, _LEVEL_NEG)
    lvl = _BIN_LEVEL[node.op]
    # right operand of same level is parenthesised to keep the tree shape
    return _wrap(node.left, lvl) + node.op + _wrap(node.right, lvl + 1)


# --------------------------------------------------------------------------
# Evaluation


def _first_offending(mask, values):
    flat_mask = np.broadcast_to(np.asarray(mask), np.shape(mask)).ravel()
    flat_vals = np.broadcast_to(np.asarray(values, dtype=float), np.shape(mask)).ravel()
    return float(flat_vals[int(np.argmax(flat_mask))])


def _check(ok, node, values, message):
    bad = ~np.asarray(ok)
    if np.any(bad):
        raise DomainError(message, to_text(node), _first_offending(bad, values))


def _power(node, base, expo):
    b = np.asarray(base, dtype=float)
    e = np.asarray(expo, dtype=float)
    neg = b < 0
    if np.any(neg):
        frac = e != np.floor(e)
        _check(~(neg & frac), node, b, "negative base raised to a non-integer power")
    _check(~((b == 0) & (e < 0)), node, e, "zero raised to a negative power")
    with np.errstate(over="ignore"):
        return _OPERATORS["^"](b, e)


def _eval(node: Node, bindings: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return bindings[node.name]
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Neg):
        return -np.asarray(_eval(node.operand, bindings), dtype=float)
    if isinstance(node, Bin):
        left = np.asarray(_eval(node.left, bindings), dtype=float)
        right = _eval(node.right, bindings)
        if node.op == "^":
            return _power(node, left, right)
        if node.op == "/":
            right = np.asarray(right, dtype=float)
            _check(right != 0, node, right, "division by zero")
        return _OPERATORS[node.op](left, right)
    fn = _FUNCTIONS[node.name]
    args = [np.asarray(_eval(arg, bindings), dtype=float) for arg in node.args]
    if fn.ufunc is _OPERATORS["^"]:
        return _power(node, *args)
    if fn.domain is not None:
        test, message = fn.domain
        _check(test(*args), node, args[0], message)
    with np.errstate(over="ignore"):
        return fn.ufunc(*args)


def _evaluate_checked(expression: Expression, bindings: dict):
    """Tree walk with a domain check at every node."""
    result = np.asarray(_eval(expression.root, bindings), dtype=float)
    if np.any(np.isnan(result)):
        raise DomainError("evaluation produced NaN", expression.source, math.nan)
    if result.ndim == 0:
        return float(result)
    return result


# --------------------------------------------------------------------------
# Compilation


def _structure_ids(root: Node):
    """``(ids, counts)``: ``ids[id(node)]`` is equal exactly for equal subtrees
    (a node's key is its kind, label and children's ids, built bottom-up in one
    pass; a literal's label is its repr, which tells 0.0 from -0.0), and
    ``counts`` counts the operations (Neg, Bin, Call) by id."""
    table, ids, counts = {}, {}, Counter()

    def visit(node):
        kids = tuple(map(visit, _children(node)))
        if isinstance(node, Num):
            label = repr(float(node.value))
        elif isinstance(node, Bin):
            label = node.op
        else:
            label = getattr(node, "name", None)
        ids[id(node)] = number = table.setdefault((type(node), label, kids), len(table))
        if kids:  # an operation: Neg, Bin or Call
            counts[number] += 1
        return number

    visit(root)
    return ids, counts


def _compile_node(node: Node, slots: dict, ids: dict):
    """Closure for ``node``; ``slots`` maps a variable name, or the structure
    id of a sub-expression met more than once, to its place in ``values``."""
    fn = _compile_op(node, slots, ids)
    slot = slots.get(ids[id(node)])
    if slot is None:
        return fn

    def shared(values):
        out = values[slot]
        if out is None:
            out = values[slot] = fn(values)
        return out

    return shared


def _compile_op(node: Node, slots: dict, ids: dict):
    if isinstance(node, (Num, Const)):
        value = float(node.value) if isinstance(node, Num) else CONSTANTS[node.name]
        return lambda values: value
    if isinstance(node, Var):
        slot = slots[node.name]
        return lambda values: values[slot]
    if isinstance(node, Neg):
        ufunc, args = np.negative, (node.operand,)
    elif isinstance(node, Bin):
        ufunc, args = _OPERATORS[node.op], (node.left, node.right)
    else:
        ufunc, args = _FUNCTIONS[node.name].ufunc, node.args
    if len(args) == 1:
        arg = _compile_node(args[0], slots, ids)
        return lambda values: ufunc(arg(values))
    first, second = (_compile_node(a, slots, ids) for a in args)
    return lambda values: ufunc(first(values), second(values))


def _compile(root: Node):
    """``(names, fn)``: ``fn(values)`` is the tree's value at the float arrays bound to ``names``.

    ``fn`` calls the ufuncs of ``_eval`` in the same order, without its
    checks, and computes a sub-expression that occurs more than once only
    once (keyed by ``_structure_ids``, exact down to the sign of a zero).  None
    when a literal is not finite (``1e999``), since the argument in
    ``_evaluate_compiled`` needs finite literals.
    """
    if not _finite_literals(root):
        return None
    names = tuple(sorted(_free_vars(root)))
    ids, counts = _structure_ids(root)
    repeated = [key for key, k in counts.items() if k > 1]
    slots = {key: i for i, key in enumerate(names + tuple(repeated))}
    fn = _compile_node(root, slots, ids)
    blank = [None] * len(repeated)
    return names, lambda values: fn(values + blank)


@np.errstate(divide="raise", invalid="raise", over="raise", under="ignore")
def _evaluate_compiled(compiled: tuple, bindings: dict):
    """The compiled value, or None where the checked walk must decide.

    With finite inputs and finite literals, every value the checked walk
    rejects (a zero divisor, a function argument outside its domain, a
    negative base to a fractional power, zero to a negative power) raises
    the divide-by-zero or the invalid flag, and no intermediate can become
    inf or NaN without raising a flag or overflowing.  So a run that raises
    nothing returns exactly what ``_evaluate_checked`` returns.  Non-finite
    inputs, overflow (which the walk lets through as inf), and bindings
    that do not convert to float are handed back to the walk.
    """
    names, fn = compiled
    try:
        values = [np.asarray(bindings[name], dtype=float) for name in names]
        if not all(np.isfinite(v).all() for v in values):
            return None
        result = np.asarray(fn(values), dtype=float)
    except (FloatingPointError, KeyError, TypeError, ValueError):
        return None
    return float(result) if result.ndim == 0 else result


def evaluate(expression: Expression, bindings=None):
    """Evaluate an expression; scalars in, float out; arrays broadcast.

    All free variables must be bound.  Domain violations raise
    ``DomainError`` carrying the offending sub-expression and argument.
    The compiled closure gives the value; the checked tree walk runs only
    when the closure cannot vouch for its result.
    """
    b = bindings if isinstance(bindings, dict) else dict(bindings or {})
    missing = expression.free_variables.difference(b)
    if missing:
        raise UnboundVariableError(f"unbound variable '{min(missing)}'")
    if expression.compiled is not None:
        result = _evaluate_compiled(expression.compiled, b)
        if result is not None:
            return result
    return _evaluate_checked(expression, b)
