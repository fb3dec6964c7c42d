"""Seeded input generators. Everything here is text or lists of symbol
names: the program under test sees only generated rule-file text, FST text
and input strings.

Shapes are stratified (fixed context-length multisets, fixed counts of
weighted rules and classes per file) and the seed draws the symbols,
weights and orders. That keeps the work per file alike across seeds, so a
run's medians move with the program rather than with the draw.
"""

import math

SIGMA194 = tuple(f"s{i:03d}" for i in range(194))
SIGMA5 = ("a", "b", "c", "d", "e")


class GenRule:
    """One generated rule: atoms are ("sym", name), ("cls", names) or
    ("neg", names); psi is a list of (weight or None, name) alternatives.
    """

    __slots__ = ("lam", "phi", "rho", "psi")

    def __init__(self, lam, phi, rho, psi):
        self.lam, self.phi, self.rho, self.psi = lam, phi, rho, psi

    @property
    def weighted(self):
        return self.psi[0][0] is not None

    def text(self):
        psi = " + ".join(name if w is None else f"<{w!r}> {name}"
                         for w, name in self.psi)
        lam = " ".join(_atom_text(a) for a in self.lam)
        rho = " ".join(_atom_text(a) for a in self.rho)
        return f"{_atom_text(self.phi)} -> {psi} / {lam} _ {rho} ;"

    def instance(self, rng, fill):
        """Symbols of one string the rule's phi and contexts match."""
        return [_member(rng, a, fill) for a in self.lam + [self.phi] + self.rho]


def _atom_text(atom):
    kind, v = atom
    if kind == "sym":
        return v
    return ("[^ " if kind == "neg" else "[") + " ".join(v) + "]"


def _member(rng, atom, fill):
    kind, v = atom
    if kind == "sym":
        return v
    if kind == "cls":
        return rng.choice(v)
    return rng.choice([s for s in fill if s not in v])


def _weighted_pair(rng, symbols):
    # a 2-way alternative with full-precision -log p costs
    p = rng.uniform(0.05, 0.95)
    x, y = rng.sample(symbols, 2)
    return [(-math.log(p), x), (-math.log1p(-p), y)]


def _atom(rng, symbols, p_cls, cls_sizes):
    if rng.random() < p_cls:
        return ("cls", tuple(sorted(rng.sample(symbols, rng.choice(cls_sizes)))))
    return ("sym", rng.choice(symbols))


class RuleFile:
    __slots__ = ("alphabet", "active", "rules")

    def __init__(self, alphabet, active, rules):
        self.alphabet, self.active, self.rules = alphabet, active, rules

    def text(self):
        return ("alphabet: " + " ".join(self.alphabet) + " ;\n"
                + "\n".join(r.text() for r in self.rules) + "\n")


def phonology_file(rng):
    """8 rules over the 194-label alphabet, built from 40 active symbols.
    phi is a symbol (6 rules) or a 2-3 symbol class (2 rules); psi is a
    symbol (5 rules) or a weighted 2-way alternative (3 rules); left and
    right contexts each take the lengths 0,0,1,1,2,2,3,3 in a seeded order,
    a context atom is a class with probability 1/4, and one rule with a
    context has one atom replaced by a negated class."""
    n_rules = 8
    active = rng.sample(SIGMA194, 40)
    lam_lens = [0, 0, 1, 1, 2, 2, 3, 3]
    rho_lens = list(lam_lens)
    rng.shuffle(lam_lens)
    rng.shuffle(rho_lens)
    weighted = set(rng.sample(range(n_rules), 3))
    cls_phi = set(rng.sample(range(n_rules), 2))
    with_ctx = [i for i in range(n_rules) if lam_lens[i] + rho_lens[i]]
    neg_rule = rng.choice(with_ctx)
    rules = []
    for i in range(n_rules):
        phi = _atom(rng, active, 1.0 if i in cls_phi else 0.0, (2, 3))
        psi = (_weighted_pair(rng, active) if i in weighted
               else [(None, rng.choice(active))])
        lam = [_atom(rng, active, 0.25, (2, 3)) for _ in range(lam_lens[i])]
        rho = [_atom(rng, active, 0.25, (2, 3)) for _ in range(rho_lens[i])]
        if i == neg_rule:
            side = lam if lam else rho
            side[rng.randrange(len(side))] = (
                "neg", tuple(sorted(rng.sample(active, rng.randint(1, 3)))))
        rules.append(GenRule(lam, phi, rho, psi))
    return RuleFile(SIGMA194, active, rules)


def small_file(rng):
    """3 rules over a 5-symbol alphabet, one per template in a seeded
    order: a weighted 2-way alternative for a symbol between a one-symbol
    left and right context; a symbol rewritten after a symbol and a
    2-symbol class; a 2-symbol class rewritten before two symbols. Fixed
    templates keep the verification cost per file alike across seeds."""
    def sym():
        return ("sym", rng.choice(SIGMA5))

    def cls():
        return ("cls", tuple(sorted(rng.sample(SIGMA5, 2))))

    def target():
        return [(None, rng.choice(SIGMA5))]

    rules = [GenRule([sym()], sym(), [sym()], _weighted_pair(rng, SIGMA5)),
             GenRule([sym(), cls()], sym(), [], target()),
             GenRule([], cls(), [sym(), sym()], target())]
    rng.shuffle(rules)
    return RuleFile(SIGMA5, SIGMA5, rules)


def planted_string(rng, rule_file, length, n_weighted=None):
    """A string of `length` symbols with planted rule matches (so rules
    fire) in a filler drawn 85% from the active symbols and 15% from the
    whole alphabet. By default 1-3 matches of any rule are planted; with
    n_weighted, that many matches of weighted rules plus 0-2 of unweighted
    ones, which steers the string's output fan-out."""
    if n_weighted is None:
        plants = [rng.choice(rule_file.rules) for _ in range(rng.randint(1, 3))]
    else:
        weighted = [r for r in rule_file.rules if r.weighted]
        plain = [r for r in rule_file.rules if not r.weighted]
        plants = ([rng.choice(weighted) for _ in range(n_weighted)]
                  + [rng.choice(plain) for _ in range(rng.randint(0, 2))])
        rng.shuffle(plants)
    fill = rule_file.active
    out = []
    for rule in plants:
        out += rule.instance(rng, fill)
    while len(out) < length:
        src = fill if rng.random() < 0.85 else rule_file.alphabet
        out.insert(rng.randrange(len(out) + 1), rng.choice(src))
    return out[:length]


def growth_text(alphabet, a, b, c, family, k):
    """The paper's growth rule a -> b with a c^k left or right context."""
    ctx = " ".join([c] * k)
    where = f" / {ctx} _" if family == "left" else f" / _ {ctx}"
    return (f"alphabet: {' '.join(alphabet)} ;\n"
            f"{a} -> {b}{where if k else ''} ;\n")


def growth_inputs(rng, a, b, c, other, k):
    """Strings that sit on both sides of a c^k context match."""
    ctx = [c] * k
    outs = [ctx + [a], [a] + ctx, ctx[:-1] + [a] + ctx[:-1]]
    mix = [rng.choice((a, b, c, c, other)) for _ in range(k + 4)]
    return [s for s in outs + [mix] if s]
