"""Formulas, antecedent structures and their sites, sequents, and their
ASCII syntax.

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
the three clause types ``<u>s``, ``<u>[p]<p>s`` and ``[p]<p><u>s``.  Text
nested more than ``MAX_DEPTH`` levels deep is a syntax error.

The same grammar doubles as structure syntax: structure text is parsed as a
formula and read off its tree.  ``*`` and ``*c`` build structural nodes,
``<>``, ``<u>`` and ``<p>`` structural diamonds, ``1`` the structural unit,
and an identifier naming a lexicon word (when a lexicon is supplied) that
word's leaf.  Anything else is a single formula leaf: a slash expression, a
box-down (``[]``, ``[u]`` or ``[p]``), the abbreviations ``s0``, ``s+`` and
``s-``, and any other identifier.  So ``s0`` is a leaf while ``<u>s`` is a
structural diamond over the leaf ``s``.  The lexicon is consulted before the
abbreviations, so a word spelled ``s0`` reads as the word.  Structure text
adds one form, ``"{" formula "}"``: the braced formula is one unworded leaf
whatever its shape, so ``{np * np}``, ``{<>np}`` and ``{1}`` are leaves.
Braces stand only where a structure can, never inside a slash, a box-down
or other braces, and formula text has none.

Equality on formulas is structural.  Equality on structures and sequents is
structural too and includes the word and position labels on leaves, which
readings are read off; the prover's tables and the validator compare them.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterator, Optional, Tuple

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
    two formulas are equal iff their keys are equal, and a formula hashes
    as its key, as structures and sequents do.  ``has_cmode`` says
    whether the formula contains a c-mode connective.
    """

    __slots__ = ("key", "has_cmode")

    def _finish(self, key: str, has_cmode: bool = False) -> None:
        self.key = key
        self.has_cmode = has_cmode

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Formula) and self.key == other.key)

    def __hash__(self) -> int:
        return hash(self.key)

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

    ``key`` is a canonical string that records the tree, its formulas and
    the word and position labels on its leaves; two structures are equal
    iff their keys are equal, and a structure hashes as its key, a string
    that caches its own hash, so a tree that is never hashed pays nothing.

    Four flags say what the tree contains, so that no caller needs to read
    the key format: ``has_cmode_node`` (a c-mode node), ``has_unit`` (the
    unit leaf), ``has_open_cmode_formula`` (a leaf formula with a c-mode
    connective at an open site, outside every unary node: a scope-taker
    that no quote or other structural diamond freezes) and
    ``has_open_quote`` (a value diamond at an open site: the tree is one, or
    a binary node outside every unary node has one as a child).

    One slot is filled lazily, and only by the prover's skeleton check
    (``prover._reductions``): ``skeleton_reductions``, the frozenset of
    skeletons the tree reduces to, or None where the check abstains.  It is
    unset until that check first reads a goal's antecedent, and then set on
    each formula leaf and surface-mode node the check reaches, so trees that
    share a subtree reduce it once.  It lives and dies with the tree, and
    it is outside ``key``, equality and hashing.
    """

    __slots__ = ("key", "has_cmode_node", "has_unit",
                 "has_open_cmode_formula", "has_open_quote",
                 "skeleton_reductions")

    def _finish(self, key: str, cmode_node: bool, unit: bool,
                open_cmode_formula: bool, open_quote: bool) -> None:
        self.key = key
        self.has_cmode_node = cmode_node
        self.has_unit = unit
        self.has_open_cmode_formula = open_cmode_formula
        self.has_open_quote = open_quote

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Structure) and self.key == other.key)

    def __hash__(self) -> int:
        return hash(self.key)

    def __str__(self) -> str:
        return print_structure(self)

    def __repr__(self) -> str:
        return f"<Structure {print_structure(self)}>"


class FLeaf(Structure):
    """A formula leaf, optionally labelled with the word (and its surface
    position) it came from.  The labels are part of the leaf's identity:
    scope readings are read off them."""

    __slots__ = ("formula", "word", "pos")

    def __init__(self, formula: Formula, word: Optional[str] = None,
                 pos: Optional[int] = None):
        self.formula = formula
        self.word = word
        self.pos = pos
        key = "F" + formula.key if word is None and pos is None \
            else f"F[{word}@{pos}]{formula.key}"
        self._finish(key, False, False, formula.has_cmode, False)


class UnitLeaf(Structure):
    __slots__ = ()

    def __init__(self):
        self._finish("!", False, True, False, False)


class Bin(Structure):
    __slots__ = ("mode", "left", "right")

    def __init__(self, mode: str, left: Structure, right: Structure):
        if mode not in BINARY_MODES:
            raise ValueError(f"bad binary mode {mode!r}")
        self.mode = mode
        self.left = left
        self.right = right
        self._finish(f"B{mode}({left.key},{right.key})",
                     mode == CMODE or left.has_cmode_node
                     or right.has_cmode_node,
                     left.has_unit or right.has_unit,
                     left.has_open_cmode_formula
                     or right.has_open_cmode_formula,
                     left.has_open_quote or right.has_open_quote)


class Un(Structure):
    __slots__ = ("mode", "body")

    def __init__(self, mode: str, body: Structure):
        if mode not in UNARY_MODES:
            raise ValueError(f"bad unary mode {mode!r}")
        self.mode = mode
        self.body = body
        # no site lies in the body (the move walk stops at a unary node),
        # so only the node itself can be an open quote
        self._finish(f"U{mode}({body.key})", body.has_cmode_node,
                     body.has_unit, False, mode == VALUE)


UNIT_LEAF = UnitLeaf()


# ---------------------------------------------------------------------------
# Sites

# A site names a subtree by the path to it from the root: step 0 or 1 at a
# binary node takes its left or right child, step 0 at a unary node its
# body.  No other step names anything.
Site = Tuple[int, ...]


def subtree(st: Structure, site: Site) -> Structure:
    """The subtree of ``st`` at ``site``; IndexError if ``site`` names
    none."""
    for step in site:
        if isinstance(st, Bin) and (step == 0 or step == 1):
            st = st.right if step else st.left
        elif isinstance(st, Un) and step == 0:
            st = st.body
        else:
            raise IndexError(f"step {step!r} at {st!r} names no subtree")
    return st


def replace(st: Structure, site: Site, new: Structure) -> Structure:
    """``st`` with ``new`` at ``site``; IndexError if ``site`` names no
    subtree."""
    if not site:
        return new
    step, rest = site[0], site[1:]
    if isinstance(st, Bin):
        if step == 0:
            return Bin(st.mode, replace(st.left, rest, new), st.right)
        if step == 1:
            return Bin(st.mode, st.left, replace(st.right, rest, new))
    elif isinstance(st, Un) and step == 0:
        return Un(st.mode, replace(st.body, rest, new))
    raise IndexError(f"step {step!r} at {st!r} names no subtree")


# ---------------------------------------------------------------------------
# Sequents

class Sequent:
    """An antecedent and a succedent, compared and hashed by ``key``."""

    __slots__ = ("antecedent", "succedent", "key")

    def __init__(self, antecedent: Structure, succedent: Formula):
        self.antecedent = antecedent
        self.succedent = succedent
        self.key = antecedent.key + "|-" + succedent.key

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Sequent) and self.key == other.key)

    def __hash__(self) -> int:
        return hash(self.key)

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
_T_LBRACE = "{"
_T_RBRACE = "}"
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
        elif ch in "{}":
            toks.append((_T_LBRACE if ch == "{" else _T_RBRACE, ch, i))
            i += 1
        else:
            raise SyntaxErrorWithPos(f"unexpected character {ch!r}", i)
    toks.append((_T_EOF, "", n))
    return toks


def _slash_mode(text: str) -> str:
    return CMODE if text.endswith("c") else DEFAULT


# ---------------------------------------------------------------------------
# Parser

# The deepest nesting the parser accepts.  A parenthesis, a unary prefix and
# each link of an operator chain is one level.  The code that walks a tree
# (printing, the skeleton check, the prover) recurses on its depth, so a
# deeper tree would exhaust the interpreter's stack.
MAX_DEPTH = 100


class _Leaf(Formula):
    """A braced formula in structure text: one formula leaf, whatever its
    shape.  It lives only in the tree ``_read_structure`` reads."""

    __slots__ = ("formula",)

    def __init__(self, formula: Formula):
        self.formula = formula
        self._finish("{" + formula.key + "}", formula.has_cmode)


class _Parser:
    """A recursive-descent parser.  Each ``_f_*`` method returns what it
    parsed with its nesting depth (see ``MAX_DEPTH``); ``opened`` counts
    the parentheses and prefixes around the next token, so the parser's
    own recursion stops at the limit too.  Braces are read only in
    structure text (``structure``); ``leaves`` holds the column of each
    braced leaf read so far."""

    def __init__(self, text: str, structure: bool = False):
        self.toks = _lex(text)
        self.i = 0
        self.opened = 0
        self.structure = structure
        self.leaves = []

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

    @staticmethod
    def _check(depth: int, pos: int) -> int:
        """``depth``, unless it passes ``MAX_DEPTH`` at column ``pos``."""
        if depth > MAX_DEPTH:
            raise SyntaxErrorWithPos(
                f"nested more than {MAX_DEPTH} levels deep", pos)
        return depth

    def _no_leaf_since(self, start: int) -> None:
        """Raise at the first braced leaf read after the first ``start``:
        the text parsed since is part of a formula, where no leaf stands."""
        if len(self.leaves) > start:
            raise SyntaxErrorWithPos("a braced leaf cannot stand inside a "
                                     "formula", self.leaves[start])

    def _nested(self, pos: int, parse: Callable[[], tuple]) -> tuple:
        """``parse()`` one level down, for the prefix or parenthesis at
        ``pos``."""
        self.opened = self._check(self.opened + 1, pos)
        node, depth = parse()
        self.opened -= 1
        return node, self._check(depth + 1, pos)

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        f, _depth = self._f_slash()
        tok = self.peek()
        if tok[0] != _T_EOF:
            raise SyntaxErrorWithPos(f"unexpected {tok[1]!r}", tok[2])
        return f

    def _f_slash(self) -> Tuple[Formula, int]:
        start = len(self.leaves)
        items = [self._f_prod()]
        ops = []
        while self.peek()[0] == _T_SLASH:
            tok = self.next()
            ops.append(tok)
            items.append(self._f_prod())
        if not ops:
            return items[0]
        self._no_leaf_since(start)
        directions = {tok[1][0] for tok in ops}
        if len(directions) > 1:
            raise SyntaxErrorWithPos(
                "mixing '/' and '\\' at one level requires parentheses", ops[1][2])
        if "/" in directions:
            acc, depth = items[0]
            for tok, (item, item_depth) in zip(ops, items[1:]):
                depth = self._check(max(depth, item_depth) + 1, tok[2])
                acc = Over(_slash_mode(tok[1]), acc, item)
            return acc, depth
        acc, depth = items[-1]
        for tok, (item, item_depth) in zip(reversed(ops),
                                           reversed(items[:-1])):
            depth = self._check(max(depth, item_depth) + 1, tok[2])
            acc = Under(_slash_mode(tok[1]), item, acc)
        return acc, depth

    def _f_prod(self) -> Tuple[Formula, int]:
        acc, depth = self._f_unary()
        while self.peek()[0] == _T_STAR:
            tok = self.next()
            right, right_depth = self._f_unary()
            depth = self._check(max(depth, right_depth) + 1, tok[2])
            acc = Product(_slash_mode(tok[1]), acc, right)
        return acc, depth

    def _f_unary(self) -> Tuple[Formula, int]:
        kind, payload, pos = self.next()
        if kind == _T_DIA:
            body, depth = self._nested(pos, self._f_unary)
            return Dia(payload, body), depth
        if kind == _T_BOX:
            start = len(self.leaves)
            body, depth = self._nested(pos, self._f_unary)
            self._no_leaf_since(start)
            return BoxDown(payload, body), depth
        if kind == _T_LBRACE and self.structure:
            start = len(self.leaves)
            body, depth = self._nested(pos, self._f_slash)
            self.expect(_T_RBRACE)
            self._no_leaf_since(start)
            self.leaves.append(pos)
            return _Leaf(body), depth
        if kind == _T_ONE:
            return UNIT, 0
        if kind == _T_LPAR:
            parsed = self._nested(pos, self._f_slash)
            self.expect(_T_RPAR)
            return parsed
        if kind == _T_IDENT:
            return ABBREVIATIONS.get(payload) or Atom(payload), 0
        raise SyntaxErrorWithPos(f"unexpected {payload!r}", pos)


def parse_formula(text: str) -> Formula:
    """Parse the ASCII syntax into a Formula.

    Unknown identifiers are accepted as fresh atoms; malformed input raises
    SyntaxErrorWithPos with the offending column.
    """
    return _Parser(text).formula()


def _read_structure(f: Formula, lexicon, positions: Iterator[int]) -> Structure:
    """The structure that structure text reads as, from its formula tree
    ``f``; ``positions`` numbers the leaves left to right."""
    # The clause-type abbreviations are leaves, but a diamond written out,
    # like ``<u>s``, is structural.  ``_f_unary`` hands out this module's own
    # abbreviation objects, so identity tells the two apart.  A lexicon word
    # spelled like an abbreviation reads as the word, so the abbreviation's
    # name is looked up first.
    abbreviation = any(f is a for a in ABBREVIATIONS.values())
    if isinstance(f, _Leaf):
        return FLeaf(f.formula, pos=next(positions))
    if isinstance(f, Product):
        return Bin(f.mode, _read_structure(f.left, lexicon, positions),
                   _read_structure(f.right, lexicon, positions))
    if isinstance(f, Dia) and not abbreviation:
        return Un(f.mode, _read_structure(f.body, lexicon, positions))
    if isinstance(f, Unit):
        return UNIT_LEAF
    if lexicon is not None and (abbreviation or isinstance(f, Atom)):
        name = _ABBREV_BY_KEY[f.key] if abbreviation else f.name
        word = name if name in lexicon else name.replace("_", " ")
        if word in lexicon:
            return FLeaf(lexicon.lookup(word)[0], word=word, pos=next(positions))
    return FLeaf(f, pos=next(positions))


def parse_structure(text: str, lexicon=None) -> Structure:
    """Parse the ASCII syntax into an antecedent Structure.

    The text is parsed as a formula and read as a structure: a product is a
    structural node of its mode, a diamond a structural diamond and ``1``
    the structural unit.  With a lexicon, an identifier naming a lexical
    entry is that word's leaf with its first type (underscores may stand in
    for spaces in multiword entries); the lexicon is consulted first, so a
    word spelled ``s0`` reads as the word.  Anything else -- a slash, a
    box-down, a clause-type abbreviation, any other identifier, a braced
    formula -- is one formula leaf, so ``s0`` is a leaf where ``<u>s`` is a
    structural diamond over the leaf ``s``, and ``{<u>s}`` is a leaf again.
    Leaves are numbered left to right so that scope readings extracted from
    hand-entered sequents carry positions.
    """
    return _read_structure(_Parser(text, structure=True).formula(), lexicon,
                           count())


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
        f = st.formula
        # the formulas whose text reads back as structure
        if isinstance(f, (Product, Unit)) or (
                isinstance(f, Dia) and f.key not in _ABBREV_BY_KEY):
            return "{%s}" % print_formula(f)
        return _pf(f, _LVL_UNARY)
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
    """Render a structure, showing word labels where present.

    An unworded leaf whose type is a product, the unit or a diamond other
    than a clause-type abbreviation prints in braces (``{np *c s}``,
    ``{1}``, ``{<>np}``), since without them it would read back as a
    structural node, the unit leaf or a structural diamond.

    ``parse_structure`` reads the text back to the same structure, up to
    the leaves' positions, except for one kind of leaf: an unworded leaf
    that prints as an identifier a lexicon word spells (``FLeaf(S0)``
    prints ``s0``) reads back as that word under such a lexicon.  Telling
    the two apart would need the lexicon at print time.
    """
    return _ps(st, _LVL_SLASH)
