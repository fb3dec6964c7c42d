"""Syntax trees and parsing for regular expressions, weighted rational
series, rewrite rules, and rule files.

Grammar (see README for the full EBNF)::

    file      := "alphabet" ":" name+ ";"  rule* ;
    rule      := regex "->" series ("/" regex? "_" regex?)? ";"
    regex     := union of concats of postfixed atoms
    atom      := name | "(" regex ")" | "[" name+ "]" | "[^" name+ "]" | "0"
    series    := like regex, plus "<" number ">" factor weight prefixes

"0" is the epsilon atom. "#" starts a comment. A "+" immediately following
an atom (no whitespace) is the postfix one-or-more operator; with
whitespace before it, "+" is union. A weight prefix applies to the whole
following factor including its postfix operator.

Syntax trees, rules and rule sets are immutable values (``fsm.Value``),
equal and hashed by class and fields.

The lexer has one token tail; its branches only pick kind, value and width.
"""

from . import fsm
from .errors import (NegativeWeightError, PhiNullableError, PsiEmptyError,
                     RuleSyntaxError, UnknownSymbolError, WeightOverflowError)


# ---------------------------------------------------------------------------
# Syntax trees
# ---------------------------------------------------------------------------

class Sym(fsm.Value):
    __slots__ = ("name",)


class Eps(fsm.Value):
    __slots__ = ()


class Cat(fsm.Value):
    __slots__ = ("parts",)


class Alt(fsm.Value):
    __slots__ = ("parts",)


class Star(fsm.Value):
    __slots__ = ("child",)


class Plus(fsm.Value):
    __slots__ = ("child",)


class Opt(fsm.Value):
    __slots__ = ("child",)


class Cls(fsm.Value):
    __slots__ = ("names",)  # sorted, distinct


class Weighted(fsm.Value):
    __slots__ = ("weight", "child")


class Rule(fsm.Value):
    __slots__ = ("phi", "psi", "lam", "rho")


class RuleSet(fsm.Value):
    __slots__ = ("alphabet", "rules")


_POSTFIX = {"STAR": Star, "PLUSPOST": Plus, "QMARK": Opt}
_POSTFIX_CHAR = {Star: "*", Plus: "+", Opt: "?"}
_CLOSURE = {Star: fsm.aut_star, Plus: fsm.aut_plus, Opt: fsm.aut_opt}


def nullable(ast):
    """Does the expression accept the empty string?"""
    if isinstance(ast, (Eps, Star, Opt)):
        return True
    if isinstance(ast, (Sym, Cls)):
        return False
    if isinstance(ast, Cat):
        return all(nullable(p) for p in ast.parts)
    if isinstance(ast, Alt):
        return any(nullable(p) for p in ast.parts)
    if isinstance(ast, (Plus, Weighted)):
        return nullable(ast.child)
    raise TypeError(f"not an AST node: {ast!r}")


def empty_language(ast):
    """Does the expression denote the empty language?"""
    if isinstance(ast, (Eps, Sym, Star, Opt)):
        return False
    if isinstance(ast, Cls):
        return not ast.names
    if isinstance(ast, Cat):
        return any(empty_language(p) for p in ast.parts)
    if isinstance(ast, Alt):
        return all(empty_language(p) for p in ast.parts)
    if isinstance(ast, (Plus, Weighted)):
        return empty_language(ast.child)
    raise TypeError(f"not an AST node: {ast!r}")


def leaf_names(ast):
    """The symbol names of each Sym and Cls leaf, one tuple per leaf."""
    if isinstance(ast, Sym):
        yield (ast.name,)
    elif isinstance(ast, Cls):
        yield ast.names
    elif isinstance(ast, (Cat, Alt)):
        for p in ast.parts:
            yield from leaf_names(p)
    elif isinstance(ast, (Star, Plus, Opt, Weighted)):
        yield from leaf_names(ast.child)


def rename(ast, new_name):
    """The expression, or each of a Rule's four, with every symbol name n
    replaced by new_name[n]."""
    if isinstance(ast, Rule):
        return Rule(*(rename(x, new_name)
                      for x in (ast.phi, ast.psi, ast.lam, ast.rho)))
    if isinstance(ast, Sym):
        return Sym(new_name[ast.name])
    if isinstance(ast, Cls):
        return Cls(tuple(sorted({new_name[n] for n in ast.names})))
    if isinstance(ast, (Cat, Alt)):
        return type(ast)(tuple(rename(p, new_name) for p in ast.parts))
    if isinstance(ast, (Star, Plus, Opt)):
        return type(ast)(rename(ast.child, new_name))
    if isinstance(ast, Weighted):
        return Weighted(ast.weight, rename(ast.child, new_name))
    return ast


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_CHAR_TOKENS = {";": "SEMI", ":": "COLON", "/": "SLASH", "*": "STAR",
                "?": "QMARK", "(": "LPAREN", ")": "RPAREN", "]": "RBRACK",
                "_": "USCORE", "0": "ZERO"}
_ATOM_END = {"NAME", "ZERO", "RPAREN", "RBRACK"}


class _Tok:
    __slots__ = ("kind", "value", "line", "col", "end")

    def __init__(self, kind, value, line, col, end):
        self.kind, self.value, self.line, self.col = kind, value, line, col
        self.end = end  # offset just past the token's text


def _lex(text):
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)

    def err(msg):
        raise RuleSyntaxError(msg, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        value, width = ch, 1
        if ch == "-":
            if not text.startswith(">", i + 1):
                err("stray '-' (expected '->')")
            kind, value, width = "ARROW", "->", 2
        elif ch == "+":  # postfix right after an atom, union otherwise
            kind = ("PLUSPOST" if toks and toks[-1].kind in _ATOM_END
                    and toks[-1].end == i else "PLUSUNION")
        elif ch == "[":
            kind, value, width = (("LBRACKNEG", "[^", 2)
                                  if text.startswith("^", i + 1)
                                  else ("LBRACK", ch, 1))
        elif ch == "<":
            if text.startswith("-", i + 1):
                raise NegativeWeightError(
                    f"negative weight at line {line}, col {col}")
            j = k = i + 1
            while k < n and (text[k].isdigit() or text[k] in ".eE"
                             or text[k] in "+-" and text[k - 1] in "eE"):
                k += 1
            if k == j or text[k:k + 1] != ">":
                err("expected '<number>' weight")
            literal = text[j:k]
            try:
                value = float(literal)
            except ValueError:
                err(f"bad weight literal {literal!r}")
            if value == fsm.INF:
                err(f"weight {literal!r} is too large")
            kind, width = "WEIGHT", k + 1 - i
        elif ch == "0" and (text[i + 1:i + 2].isalnum()
                            or text.startswith("_", i + 1)):
            err("names may not start with a digit")
        elif ch in _CHAR_TOKENS:
            kind = _CHAR_TOKENS[ch]
        elif ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind, value, width = "NAME", text[i:j], j - i
        else:
            err(f"unexpected character {ch!r}")
        toks.append(_Tok(kind, value, line, col, i + width))
        i += width
        col += width
    toks.append(_Tok("EOF", None, line, col, i))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_ATOM_START = {"NAME", "ZERO", "LPAREN", "LBRACK", "LBRACKNEG"}


# Deepest nesting of parentheses and weight prefixes in one expression.
# The parser and the tree walkers (compile_regex, nullable, rename, pretty)
# recurse once or more per level, so this keeps them within Python's
# recursion limit.
MAX_NESTING = 50


class _Parser:
    def __init__(self, toks, alphabet=None):
        self.toks = toks
        self.pos = 0
        self.alphabet = alphabet
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        t = self.toks[self.pos]
        if kind is not None and t.kind != kind:
            raise RuleSyntaxError(f"expected {kind}, found {t.kind}",
                                  t.line, t.col)
        self.pos += 1
        return t

    def err(self, msg):
        t = self.peek()
        raise RuleSyntaxError(msg, t.line, t.col)

    def nest(self, tok, parse, *args):
        """parse(*args) one level deeper than `tok`, which opens it."""
        if self.depth == MAX_NESTING:
            raise RuleSyntaxError(
                f"expression nested more than {MAX_NESTING} levels deep",
                tok.line, tok.col)
        self.depth += 1
        node = parse(*args)
        self.depth -= 1
        return node

    def resolve(self, name, tok):
        if name not in self.alphabet._ids:
            raise UnknownSymbolError(
                f"undeclared symbol {name!r} at line {tok.line}, "
                f"col {tok.col}")
        return name

    # expression := union of concats; series=True admits weight prefixes
    def expr(self, series):
        parts = [self.concat(series)]
        while self.peek().kind == "PLUSUNION":
            self.take()
            parts.append(self.concat(series))
        return parts[0] if len(parts) == 1 else Alt(tuple(parts))

    def concat(self, series):
        parts = [self.factor(series)]
        while self.peek().kind in _ATOM_START or (
                series and self.peek().kind == "WEIGHT"):
            parts.append(self.factor(series))
        return parts[0] if len(parts) == 1 else Cat(tuple(parts))

    def factor(self, series):
        t = self.peek()
        if t.kind == "WEIGHT":
            if not series:
                self.err("weights are only allowed in the rewrite target")
            self.take()
            return Weighted(t.value, self.nest(t, self.factor, series))
        node = self.atom(series)
        postfix = _POSTFIX.get(self.peek().kind)
        if postfix:
            self.take()
            return postfix(node)
        return node

    def atom(self, series):
        t = self.peek()
        if t.kind == "NAME":
            self.take()
            return Sym(self.resolve(t.value, t))
        if t.kind == "ZERO":
            self.take()
            return Eps()
        if t.kind == "LPAREN":
            self.take()
            node = self.nest(t, self.expr, series)
            self.take("RPAREN")
            return node
        if t.kind in ("LBRACK", "LBRACKNEG"):
            neg = t.kind == "LBRACKNEG"
            self.take()
            names = []
            while self.peek().kind == "NAME":
                tok = self.take()
                names.append(self.resolve(tok.value, tok))
            if not names:
                self.err("empty symbol class")
            self.take("RBRACK")
            if neg:
                names = [s for s in self.alphabet.symbols
                         if s not in set(names)]
            return Cls(tuple(sorted(set(names))))
        self.err(f"expected an atom, found {t.kind}")


def parse_regex(text, alphabet):
    p = _Parser(_lex(text), alphabet)
    node = p.expr(series=False)
    p.take("EOF")
    return node


def parse_series(text, alphabet):
    p = _Parser(_lex(text), alphabet)
    node = p.expr(series=True)
    p.take("EOF")
    return node


def parse_rule_file(text):
    """Parse a full rule file into a RuleSet. Context fields default to
    epsilon; phi must not be nullable and psi must denote a non-empty
    language."""
    toks = _lex(text)
    p = _Parser(toks)
    kw = p.take("NAME")
    if kw.value != "alphabet":
        raise RuleSyntaxError("rule files start with 'alphabet:'",
                              kw.line, kw.col)
    p.take("COLON")
    names = []
    while p.peek().kind == "NAME":
        names.append(p.take().value)
    if not names:
        p.err("alphabet declaration lists at least one symbol")
    p.take("SEMI")
    try:
        alphabet = fsm.Alphabet(names)
    except ValueError as e:
        raise RuleSyntaxError(str(e), kw.line, kw.col) from None
    p.alphabet = alphabet

    rules = []
    while p.peek().kind != "EOF":
        start = p.peek()
        phi = p.expr(series=False)
        p.take("ARROW")
        psi = p.expr(series=True)
        lam = rho = Eps()
        if p.peek().kind == "SLASH":
            p.take()
            if p.peek().kind != "USCORE":
                lam = p.expr(series=False)
            p.take("USCORE")
            if p.peek().kind != "SEMI":
                rho = p.expr(series=False)
        p.take("SEMI")
        if nullable(phi):
            raise PhiNullableError(
                f"rule at line {start.line}: phi accepts the empty string")
        if empty_language(psi):
            raise PsiEmptyError(
                f"rule at line {start.line}: psi denotes the empty language")
        rules.append(Rule(phi=phi, psi=psi, lam=lam, rho=rho))
    return RuleSet(alphabet=alphabet, rules=tuple(rules))


# ---------------------------------------------------------------------------
# Pretty printing (canonical form; parse . pretty is a fixpoint)
# ---------------------------------------------------------------------------

def _fmt_weight(w):
    return f"{w!r}" if w != int(w) else f"{int(w)}"


def pretty(ast, alphabet=None):
    """Canonical re-parseable form. An empty class (the empty language,
    which the grammar can only spell as a negated class covering the whole
    alphabet) needs the alphabet to print."""
    if isinstance(ast, Sym):
        return ast.name
    if isinstance(ast, Eps):
        return "0"
    if isinstance(ast, Cls):
        if not ast.names:
            if alphabet is None:
                raise ValueError(
                    "printing an empty class requires the alphabet")
            return "[^ " + " ".join(alphabet.symbols) + "]"
        return "[" + " ".join(ast.names) + "]"
    if isinstance(ast, Cat):
        return " ".join(_pp_tight(p, alphabet) for p in ast.parts)
    if isinstance(ast, Alt):
        return " + ".join(
            "(" + pretty(p, alphabet) + ")" if isinstance(p, Alt)
            else pretty(p, alphabet) for p in ast.parts)
    if isinstance(ast, (Star, Plus, Opt)):
        return _pp_atom(ast.child, alphabet) + _POSTFIX_CHAR[type(ast)]
    if isinstance(ast, Weighted):
        return (f"<{_fmt_weight(ast.weight)}> "
                + _pp_tight(ast.child, alphabet))
    raise TypeError(f"not an AST node: {ast!r}")


def _pp_tight(ast, alphabet=None):
    # grouping that must survive a reparse gets explicit parentheses:
    # unions and nested concatenations inside a concatenation, and
    # multi-factor bodies under a weight prefix
    if isinstance(ast, (Alt, Cat)):
        return "(" + pretty(ast, alphabet) + ")"
    return pretty(ast, alphabet)


def _pp_atom(ast, alphabet=None):
    if isinstance(ast, (Sym, Eps, Cls)):
        return pretty(ast, alphabet)
    return "(" + pretty(ast, alphabet) + ")"


def pretty_rule(rule, alphabet=None):
    ctx = ""
    if not (isinstance(rule.lam, Eps) and isinstance(rule.rho, Eps)):
        left = "" if isinstance(rule.lam, Eps) \
            else pretty(rule.lam, alphabet) + " "
        right = "" if isinstance(rule.rho, Eps) \
            else " " + pretty(rule.rho, alphabet)
        ctx = f" / {left}_{right}"
    return (f"{pretty(rule.phi, alphabet)} -> "
            f"{pretty(rule.psi, alphabet)}{ctx} ;")


# ---------------------------------------------------------------------------
# Compilation to machines
# ---------------------------------------------------------------------------

def compile_regex(ast, alphabet):
    """Thompson-style construction; the result may contain epsilon arcs.
    The language equals the denotation of the tree."""
    if isinstance(ast, Sym):
        return fsm.aut_label(alphabet.id_of(ast.name))
    if isinstance(ast, Eps):
        return fsm.aut_epsilon()
    if isinstance(ast, Cls):
        return fsm.aut_class([alphabet.id_of(n) for n in ast.names])
    if isinstance(ast, Cat):
        return fsm.aut_concat([compile_regex(p, alphabet)
                               for p in ast.parts])
    if isinstance(ast, Alt):
        return fsm.aut_union([compile_regex(p, alphabet)
                              for p in ast.parts])
    if isinstance(ast, (Star, Plus, Opt)):
        return _CLOSURE[type(ast)](compile_regex(ast.child, alphabet))
    if isinstance(ast, Weighted):
        return fsm.aut_weighted(ast.weight,
                                compile_regex(ast.child, alphabet))
    raise TypeError(f"not an AST node: {ast!r}")


def series_to_wfsa(ast, alphabet):
    """Weighted acceptor whose min-plus value on each accepted string equals
    the series; unaccepted strings have value +inf. It is `compile_regex`
    under the series' own name, kept because the benchmark's stage trace
    wraps it by that name."""
    return compile_regex(ast, alphabet)


def evaluate_series(wfsa, ids):
    """Min over accepting paths of the summed weights (tropical value);
    INF when no path accepts `ids`. A sum past the float range raises
    E_WEIGHT_OVERFLOW: read as INF, it would drop the string silently."""
    a = fsm.remove_epsilon(wfsa)
    cur = {a.initial: 0.0}
    for sym in ids:
        nxt = {}
        for q, w in cur.items():
            for _, _, aw, d in a.in_index(q).get(sym, ()):
                nw = w + aw
                if nw < nxt.get(d, fsm.INF):
                    nxt[d] = nw
                elif nw == fsm.INF:
                    raise WeightOverflowError("a path weight is past the "
                                              "float range")
        cur = nxt
    ends = [w + a.finals[q] for q, w in cur.items() if q in a.finals]
    if fsm.INF in ends:
        raise WeightOverflowError("a path weight is past the float range")
    return min(ends, default=fsm.INF)
