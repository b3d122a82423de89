"""Formulas, antecedent structures, sequents, and their ASCII syntax.

The logic has two binary composition modes (the blank surface mode and the
continuation mode ``c``) and three unary modes (the blank value mode, the
unquotation mode ``u`` and the polarity mode ``p``).  Formulas are built from
atoms, the unit, products, directional slashes, diamonds and box-downs, each
indexed by a mode.  Antecedents of sequents are binary trees over formula
leaves, with structural counterparts of product and diamond; structure and
formula are deliberately kept isomorphic so that rewriting can treat them
uniformly.

Concrete syntax (EBNF)::

    formula := slash ;
    slash   := prod (("/" | "/c" | "\\" | "\\c") prod)* ;
                 -- "/" chains are left-associative, "\\" chains
                 -- right-associative; mixing the two directions at one
                 -- level requires parentheses
    prod    := unary (("*" | "*c") unary)* ;          -- left-associative
    unary   := ("<>" | "<u>" | "<p>" | "[]" | "[u]" | "[p]") unary
             | atom | "1" | "(" formula ")" ;
    atom    := identifier | "s0" | "s+" | "s-" .

``<>``/``[]`` are the value-mode diamond and box-down, ``<u>``, ``<p>``,
``[u]``, ``[p]`` the u- and p-mode ones.  ``s0``, ``s+`` and ``s-`` abbreviate
the three clause types ``<u>s``, ``<u>[p]<p>s`` and ``[p]<p><u>s``.

The same grammar doubles as structure syntax: ``*`` builds structural nodes,
``<>`` builds structural diamonds, ``1`` is the structural unit, and an
identifier is either a lexicon word (when a lexicon is supplied) or an atomic
formula leaf.  A parenthesised slash expression denotes a single formula leaf.

Equality on formulas is structural.  Equality on structures and sequents
ignores word labels on leaves, which are display-only; this is what makes
sequents usable as memoization keys.
"""

from __future__ import annotations

from typing import Iterator, Optional

# ---------------------------------------------------------------------------
# Modes

VALUE = ""   # unary: pure value (plain diamond / box-down)
UMODE = "u"  # unary: unquotation
PMODE = "p"  # unary: polarity
UNARY_MODES = (VALUE, UMODE, PMODE)

DEFAULT = ""  # binary: surface composition
CMODE = "c"   # binary: subexpression-in-context composition
BINARY_MODES = (DEFAULT, CMODE)


class SyntaxErrorWithPos(ValueError):
    """Malformed formula or structure text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at column {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# Formulas

class Formula:
    """A logical type.  Immutable; compared and hashed structurally.

    Every node carries a canonical ``key`` string computed at construction;
    two formulas are equal iff their keys are equal.  ``has_cmode`` says
    whether the formula contains a c-mode connective.
    """

    __slots__ = ("key", "_hash", "has_cmode")

    def _finish(self, key: str, has_cmode: bool = False) -> None:
        self.key = key
        self._hash = hash(key)
        self.has_cmode = has_cmode

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Formula) and self.key == other.key)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return print_formula(self)

    def __repr__(self) -> str:
        return f"<Formula {print_formula(self)}>"


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ValueError("empty atom name")
        self.name = name
        self._finish("a" + name)


class Unit(Formula):
    """The nullary connective 1, a right identity for the c mode.

    It is never a lexical type; it enters antecedents only through the Root
    postulate.
    """

    __slots__ = ()

    def __init__(self):
        self._finish("1")


class Product(Formula):
    __slots__ = ("mode", "left", "right")

    def __init__(self, mode: str, left: Formula, right: Formula):
        if mode not in BINARY_MODES:
            raise ValueError(f"bad binary mode {mode!r}")
        self.mode = mode
        self.left = left
        self.right = right
        self._finish(f"*{mode}({left.key},{right.key})",
                     mode == CMODE or left.has_cmode or right.has_cmode)


class Over(Formula):
    """``result /mode argument``: seeks its argument to the right."""

    __slots__ = ("mode", "result", "argument")

    def __init__(self, mode: str, result: Formula, argument: Formula):
        if mode not in BINARY_MODES:
            raise ValueError(f"bad binary mode {mode!r}")
        self.mode = mode
        self.result = result
        self.argument = argument
        self._finish(f"/{mode}({result.key},{argument.key})",
                     mode == CMODE or result.has_cmode or argument.has_cmode)


class Under(Formula):
    """``argument \\mode result``: seeks its argument to the left."""

    __slots__ = ("mode", "argument", "result")

    def __init__(self, mode: str, argument: Formula, result: Formula):
        if mode not in BINARY_MODES:
            raise ValueError(f"bad binary mode {mode!r}")
        self.mode = mode
        self.argument = argument
        self.result = result
        self._finish(f"\\{mode}({argument.key},{result.key})",
                     mode == CMODE or argument.has_cmode or result.has_cmode)


class Dia(Formula):
    __slots__ = ("mode", "body")

    def __init__(self, mode: str, body: Formula):
        if mode not in UNARY_MODES:
            raise ValueError(f"bad unary mode {mode!r}")
        self.mode = mode
        self.body = body
        self._finish(f"<{mode}>{body.key}", body.has_cmode)


class BoxDown(Formula):
    __slots__ = ("mode", "body")

    def __init__(self, mode: str, body: Formula):
        if mode not in UNARY_MODES:
            raise ValueError(f"bad unary mode {mode!r}")
        self.mode = mode
        self.body = body
        self._finish(f"[{mode}]{body.key}", body.has_cmode)


UNIT = Unit()

NP = Atom("np")
S = Atom("s")
PP = Atom("pp")

# The three clause types: neutral, positive, negative.
S0 = Dia(UMODE, S)
SPLUS = Dia(UMODE, BoxDown(PMODE, Dia(PMODE, S)))
SMINUS = BoxDown(PMODE, Dia(PMODE, Dia(UMODE, S)))

ABBREVIATIONS = {"s0": S0, "s+": SPLUS, "s-": SMINUS}
_ABBREV_BY_KEY = {f.key: name for name, f in ABBREVIATIONS.items()}


# ---------------------------------------------------------------------------
# Structures

class Structure:
    """An antecedent tree.

    ``key`` erases word labels, so structural equality (and anything keyed on
    it, such as memo tables) is insensitive to which words decorate the
    leaves.  ``wkey`` additionally records the labels; it shares the ``key``
    string wherever no labels occur.

    Four flags say what the tree contains, so that no caller needs to read
    the key format: ``has_cmode_node`` (a c-mode node), ``has_unit`` (the
    unit leaf), ``has_value_diamond`` (a value-mode structural diamond) and
    ``has_cmode_formula`` (a leaf formula with a c-mode connective).
    """

    __slots__ = ("key", "wkey", "_hash", "has_cmode_node", "has_unit",
                 "has_value_diamond", "has_cmode_formula")

    def _finish(self, key: str, wkey: Optional[str], cmode_node: bool,
                unit: bool, value_diamond: bool, cmode_formula: bool) -> None:
        self.key = key
        self.wkey = key if wkey is None else wkey
        self._hash = hash(key)
        self.has_cmode_node = cmode_node
        self.has_unit = unit
        self.has_value_diamond = value_diamond
        self.has_cmode_formula = cmode_formula

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Structure) and self.key == other.key)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return print_structure(self)

    def __repr__(self) -> str:
        return f"<Structure {print_structure(self)}>"


class FLeaf(Structure):
    """A formula leaf, optionally labelled with the word (and its surface
    position) it came from.  Labels are display metadata only."""

    __slots__ = ("formula", "word", "pos")

    def __init__(self, formula: Formula, word: Optional[str] = None,
                 pos: Optional[int] = None):
        self.formula = formula
        self.word = word
        self.pos = pos
        key = "F" + formula.key
        wkey = None if word is None and pos is None \
            else f"F[{word}@{pos}]{formula.key}"
        self._finish(key, wkey, False, False, False, formula.has_cmode)


class UnitLeaf(Structure):
    __slots__ = ()

    def __init__(self):
        self._finish("!", None, False, True, False, False)


class Bin(Structure):
    __slots__ = ("mode", "left", "right")

    def __init__(self, mode: str, left: Structure, right: Structure):
        if mode not in BINARY_MODES:
            raise ValueError(f"bad binary mode {mode!r}")
        self.mode = mode
        self.left = left
        self.right = right
        key = f"B{mode}({left.key},{right.key})"
        wkey = None if left.wkey is left.key and right.wkey is right.key \
            else f"B{mode}({left.wkey},{right.wkey})"
        self._finish(key, wkey,
                     mode == CMODE or left.has_cmode_node
                     or right.has_cmode_node,
                     left.has_unit or right.has_unit,
                     left.has_value_diamond or right.has_value_diamond,
                     left.has_cmode_formula or right.has_cmode_formula)


class Un(Structure):
    __slots__ = ("mode", "body")

    def __init__(self, mode: str, body: Structure):
        if mode not in UNARY_MODES:
            raise ValueError(f"bad unary mode {mode!r}")
        self.mode = mode
        self.body = body
        key = f"U{mode}({body.key})"
        wkey = None if body.wkey is body.key else f"U{mode}({body.wkey})"
        self._finish(key, wkey, body.has_cmode_node, body.has_unit,
                     mode == VALUE or body.has_value_diamond,
                     body.has_cmode_formula)


UNIT_LEAF = UnitLeaf()


def leaves(st: Structure) -> Iterator[Structure]:
    """All FLeaf/UnitLeaf nodes, left to right."""
    if isinstance(st, (FLeaf, UnitLeaf)):
        yield st
    elif isinstance(st, Bin):
        yield from leaves(st.left)
        yield from leaves(st.right)
    elif isinstance(st, Un):
        yield from leaves(st.body)


def formula_leaf_count(st: Structure) -> int:
    return sum(1 for leaf in leaves(st) if isinstance(leaf, FLeaf))


# ---------------------------------------------------------------------------
# Sequents

class Sequent:
    __slots__ = ("antecedent", "succedent", "key", "full_key", "_hash")

    def __init__(self, antecedent: Structure, succedent: Formula):
        self.antecedent = antecedent
        self.succedent = succedent
        self.key = antecedent.key + "|-" + succedent.key
        self.full_key = (self.key if antecedent.wkey is antecedent.key
                         else antecedent.wkey + "|-" + succedent.key)
        self._hash = hash(self.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequent) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{print_structure(self.antecedent)} |- {print_formula(self.succedent)}"

    def __repr__(self) -> str:
        return f"<Sequent {self}>"


# ---------------------------------------------------------------------------
# Lexer

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_'")
_IDENT_CHARS = _IDENT_START | set("0123456789")

# token kinds
_T_IDENT = "ident"
_T_ONE = "one"
_T_SLASH = "slash"   # text "/", "/c", "\", "\c"
_T_STAR = "star"     # text "*", "*c"
_T_DIA = "dia"       # payload: mode
_T_BOX = "box"       # payload: mode
_T_LPAR = "("
_T_RPAR = ")"
_T_EOF = "eof"


def _lex(text: str):
    """Tokenize to a list of (kind, payload, position)."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            toks.append((_T_LPAR, "(", i))
            i += 1
        elif ch == ")":
            toks.append((_T_RPAR, ")", i))
            i += 1
        elif ch == "1":
            toks.append((_T_ONE, "1", i))
            i += 1
        elif ch in "/\\*":
            # a mode suffix "c" attaches when not itself starting an identifier
            if i + 1 < n and text[i + 1] == "c" and (
                    i + 2 >= n or text[i + 2] not in _IDENT_CHARS):
                toks.append((_T_SLASH if ch != "*" else _T_STAR, ch + "c", i))
                i += 2
            else:
                toks.append((_T_SLASH if ch != "*" else _T_STAR, ch, i))
                i += 1
        elif ch == "<":
            for mode in UNARY_MODES:
                if text.startswith("<" + mode + ">", i):
                    toks.append((_T_DIA, mode, i))
                    i += 2 + len(mode)
                    break
            else:
                raise SyntaxErrorWithPos("expected '<>', '<u>' or '<p>'", i)
        elif ch == "[":
            for mode in UNARY_MODES:
                if text.startswith("[" + mode + "]", i):
                    toks.append((_T_BOX, mode, i))
                    i += 2 + len(mode)
                    break
            else:
                raise SyntaxErrorWithPos("expected '[]', '[u]' or '[p]'", i)
        elif ch in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            name = text[i:j]
            # the clause-type abbreviations s+ and s- carry a sign character
            if name == "s" and j < n and text[j] in "+-":
                name = text[i:j + 1]
                j += 1
            toks.append((_T_IDENT, name, i))
            i = j
        else:
            raise SyntaxErrorWithPos(f"unexpected character {ch!r}", i)
    toks.append((_T_EOF, "", n))
    return toks


def _slash_mode(text: str) -> str:
    return CMODE if text.endswith("c") else DEFAULT


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str, lexicon=None):
        self.text = text
        self.toks = _lex(text)
        self.i = 0
        self.lexicon = lexicon
        self.leaf_counter = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise SyntaxErrorWithPos(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        f = self._f_slash()
        tok = self.peek()
        if tok[0] != _T_EOF:
            raise SyntaxErrorWithPos(f"unexpected {tok[1]!r}", tok[2])
        return f

    def _f_slash(self) -> Formula:
        items = [self._f_prod()]
        ops = []
        while self.peek()[0] == _T_SLASH:
            tok = self.next()
            ops.append(tok)
            items.append(self._f_prod())
        if not ops:
            return items[0]
        directions = {tok[1][0] for tok in ops}
        if len(directions) > 1:
            raise SyntaxErrorWithPos(
                "mixing '/' and '\\' at one level requires parentheses", ops[1][2])
        if "/" in directions:
            acc = items[0]
            for tok, item in zip(ops, items[1:]):
                acc = Over(_slash_mode(tok[1]), acc, item)
            return acc
        acc = items[-1]
        for tok, item in zip(reversed(ops), reversed(items[:-1])):
            acc = Under(_slash_mode(tok[1]), item, acc)
        return acc

    def _f_prod(self) -> Formula:
        acc = self._f_unary()
        while self.peek()[0] == _T_STAR:
            tok = self.next()
            acc = Product(_slash_mode(tok[1]), acc, self._f_unary())
        return acc

    def _f_unary(self) -> Formula:
        kind, payload, pos = self.next()
        if kind == _T_DIA:
            return Dia(payload, self._f_unary())
        if kind == _T_BOX:
            return BoxDown(payload, self._f_unary())
        if kind == _T_ONE:
            return UNIT
        if kind == _T_LPAR:
            f = self._f_slash()
            self.expect(_T_RPAR)
            return f
        if kind == _T_IDENT:
            return ABBREVIATIONS.get(payload) or Atom(payload)
        raise SyntaxErrorWithPos(f"unexpected {payload!r}", pos)

    # -- structures --------------------------------------------------------

    def structure(self) -> Structure:
        st = self._s_expr()
        tok = self.peek()
        if tok[0] != _T_EOF:
            raise SyntaxErrorWithPos(f"unexpected {tok[1]!r}", tok[2])
        return st

    def _s_expr(self) -> Structure:
        # A slash at this level means the whole expression is a formula leaf.
        start = self.i
        st = self._s_prod()
        if self.peek()[0] == _T_SLASH:
            self.i = start
            return self._leaf(self._f_slash())
        return st

    def _s_prod(self) -> Structure:
        acc = self._s_unary()
        while self.peek()[0] == _T_STAR:
            tok = self.next()
            acc = Bin(_slash_mode(tok[1]), acc, self._s_unary())
        return acc

    def _s_unary(self) -> Structure:
        kind, payload, pos = self.next()
        if kind == _T_DIA:
            return Un(payload, self._s_unary())
        if kind == _T_BOX:
            # box-down has no structural form: parse a formula leaf
            self.i -= 1
            return self._leaf(self._f_unary())
        if kind == _T_ONE:
            return UNIT_LEAF
        if kind == _T_LPAR:
            st = self._s_expr()
            self.expect(_T_RPAR)
            return st
        if kind == _T_IDENT:
            if self.lexicon is not None:
                word = payload if payload in self.lexicon else payload.replace("_", " ")
                if word in self.lexicon:
                    types = self.lexicon.lookup(word)
                    return self._leaf(types[0], word=word)
            return self._leaf(ABBREVIATIONS.get(payload) or Atom(payload))
        raise SyntaxErrorWithPos(f"unexpected {payload!r}", pos)

    def _leaf(self, formula: Formula, word: Optional[str] = None) -> FLeaf:
        leaf = FLeaf(formula, word=word, pos=self.leaf_counter)
        self.leaf_counter += 1
        return leaf


def parse_formula(text: str) -> Formula:
    """Parse the ASCII syntax into a Formula.

    Unknown identifiers are accepted as fresh atoms; malformed input raises
    SyntaxErrorWithPos with the offending column.
    """
    return _Parser(text).formula()


def parse_structure(text: str, lexicon=None) -> Structure:
    """Parse the ASCII syntax into an antecedent Structure.

    With a lexicon, identifiers naming lexical entries become word-labelled
    formula leaves (underscores may stand in for spaces in multiword entries);
    other identifiers are atomic formula leaves.  Leaves are numbered left to
    right so that scope readings extracted from hand-entered sequents carry
    positions.
    """
    return _Parser(text, lexicon=lexicon).structure()


def parse_sequent(text: str, lexicon=None) -> Sequent:
    """Parse ``antecedent |- succedent``."""
    if "|-" not in text:
        raise SyntaxErrorWithPos("expected '|-' between antecedent and succedent",
                                 len(text))
    left, right = text.split("|-", 1)
    return Sequent(parse_structure(left, lexicon=lexicon), parse_formula(right))


# ---------------------------------------------------------------------------
# Printing

_LVL_SLASH = 0
_LVL_PROD = 1
_LVL_UNARY = 2
_LVL_ATOM = 3


def _wrap(s: str, own: int, required: int) -> str:
    return "(" + s + ")" if own < required else s


def _pf(f: Formula, required: int) -> str:
    abbrev = _ABBREV_BY_KEY.get(f.key)
    if abbrev is not None:
        return abbrev
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Unit):
        return "1"
    if isinstance(f, Dia):
        return _wrap("<%s>%s" % (f.mode, _pf(f.body, _LVL_UNARY)), _LVL_UNARY, required)
    if isinstance(f, BoxDown):
        return _wrap("[%s]%s" % (f.mode, _pf(f.body, _LVL_UNARY)), _LVL_UNARY, required)
    if isinstance(f, Product):
        s = "%s *%s %s" % (_pf(f.left, _LVL_PROD), f.mode, _pf(f.right, _LVL_UNARY))
        return _wrap(s, _LVL_PROD, required)
    if isinstance(f, Over):
        left = _pf(f.result, _LVL_SLASH if isinstance(f.result, Over) else _LVL_PROD)
        right = _pf(f.argument, _LVL_PROD)
        return _wrap("%s /%s %s" % (left, f.mode, right), _LVL_SLASH, required)
    if isinstance(f, Under):
        left = _pf(f.argument, _LVL_PROD)
        right = _pf(f.result, _LVL_SLASH if isinstance(f.result, Under) else _LVL_PROD)
        return _wrap("%s \\%s %s" % (left, f.mode, right), _LVL_SLASH, required)
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    """Render a formula; reparsing the output yields an equal formula.

    The clause types print as their abbreviations ``s0``, ``s+``, ``s-``.
    """
    return _pf(f, _LVL_SLASH)


def _ps(st: Structure, required: int) -> str:
    if isinstance(st, FLeaf):
        if st.word is not None:
            return st.word.replace(" ", "_")
        return _pf(st.formula, _LVL_UNARY)
    if isinstance(st, UnitLeaf):
        return "1"
    if isinstance(st, Un):
        return _wrap("<%s>%s" % (st.mode, _ps(st.body, _LVL_UNARY)),
                     _LVL_UNARY, required)
    if isinstance(st, Bin):
        s = "%s *%s %s" % (_ps(st.left, _LVL_PROD), st.mode,
                           _ps(st.right, _LVL_UNARY))
        return _wrap(s, _LVL_PROD, required)
    raise TypeError(f"not a structure: {st!r}")


def print_structure(st: Structure) -> str:
    """Render a structure, showing word labels where present."""
    return _ps(st, _LVL_SLASH)
