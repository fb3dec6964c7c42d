"""Line-oriented FST text format (one machine per file, UTF-8).

    WFST v1 <weighted|unweighted> <acceptor|transducer>
    states <n>                 # states are 0..n-1
    sym <id> <name>            # full symbol table incl. reserved names
    init <state>
    final <state> <weight>
    arc <src> <dst> <in> <out> <weight>   # acceptors omit <out>

The symbol table is ``Alphabet.name_of`` over ids 0..n+3: <eps>, the n
user symbols, then <rb>, <lb1>, <lb2>. The writer prints that list and
the reader refuses, with E_FORMAT, a table that differs from it. Arc
labels are symbol-table ids, 0..n+3: the reader and the writer refuse
any other label with E_FORMAT, so every machine read can be written
back. Weights are written as ``repr(float)``, the shortest text that
reads back as the same float, so a write/read round trip is lossless;
the reader accepts any float syntax and rejects weights that are not
finite and non-negative. The ``states`` line keeps states that no other
line mentions; a file without it has 1 + the highest state mentioned.
The machine constructor refuses an initial, final or arc state outside
the ``states`` line's range, and the reader reports that as E_FORMAT. A
machine has at most ``MAX_STATES`` states: readers of a file allocate
per-state tables, so a larger count is refused by the reader and by the
writer alike.
"""

from .errors import FormatError
from .fsm import (RESERVED_NAMES, Alphabet, Automaton, Transducer,
                  id_transducer)

_HEADER = "WFST v1"

# far above the largest machine rwc builds (about 1k states)
MAX_STATES = 1_000_000


def _check_size(num_states):
    if num_states > MAX_STATES:
        raise FormatError(f"states {num_states} is more than the limit of "
                          f"{MAX_STATES}")


def _check_labels(arcs, top):
    """Raise E_FORMAT on the first arc label outside 0..top."""
    bad = next((l for a in arcs for l in a[1:-2] if not 0 <= l <= top), None)
    if bad is not None:
        raise FormatError(f"label {bad} has no name in the symbol table")


def format_machine(m, alphabet):
    """Serialize an Automaton or Transducer to the text format."""
    _check_size(m.num_states)
    kind = "acceptor" if m.tapes == 1 else "transducer"
    wtag = "weighted" if m.weighted else "unweighted"
    lines = [f"{_HEADER} {wtag} {kind}", f"states {m.num_states}"]
    lines += [f"sym {i} {alphabet.name_of(i)}"
              for i in range(alphabet.num_labels)]
    lines.append(f"init {m.initial}")
    lines += [f"final {q} {float(m.finals[q])!r}" for q in sorted(m.finals)]
    # one pass; an arc with an unnamed label is left out and then reported
    top = alphabet.num_labels - 1
    if m.tapes == 1:
        arcs = [f"arc {s} {d} {l} {float(w)!r}"
                for s, l, w, d in m.arcs if 0 <= l <= top]
    else:
        arcs = [f"arc {s} {d} {i} {o} {float(w)!r}"
                for s, i, o, w, d in m.arcs if 0 <= i <= top and 0 <= o <= top]
    if len(arcs) < len(m.arcs):
        _check_labels(m.arcs, top)
    lines += arcs
    return "\n".join(lines) + "\n"


def write_machine(path, m, alphabet):
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_machine(m, alphabet))


def parse_machine(text):
    """Parse the text format; returns (machine, alphabet)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty FST file")
    head = lines[0].split()
    if len(head) != 4 or " ".join(head[:2]) != _HEADER:
        raise FormatError(f"bad header: {lines[0]!r}")
    weighted = head[2] == "weighted"
    if head[2] not in ("weighted", "unweighted"):
        raise FormatError(f"bad weight tag {head[2]!r}")
    if head[3] not in ("acceptor", "transducer"):
        raise FormatError(f"bad kind {head[3]!r}")
    is_acceptor = head[3] == "acceptor"

    syms = {}
    num_states = None
    initial = None
    finals = {}
    arcs = []
    n_fields = {"states": 2, "sym": 3, "init": 2, "final": 3,
                "arc": 5 if is_acceptor else 6}
    for ln in lines[1:]:
        parts = ln.split()
        tag = parts[0]
        if tag not in n_fields:
            raise FormatError(f"unknown line tag {tag!r}")
        if len(parts) != n_fields[tag]:
            raise FormatError(f"malformed line {ln!r}: expected "
                              f"{n_fields[tag]} fields")
        try:
            if tag == "states":
                num_states = int(parts[1])
            elif tag == "sym":
                syms[int(parts[1])] = parts[2]
            elif tag == "init":
                initial = int(parts[1])
            elif tag == "final":
                finals[int(parts[1])] = float(parts[2])
            else:
                s, d, *labs = map(int, parts[1:-1])
                arcs.append((s, *labs, float(parts[-1]), d))
        except ValueError as e:
            raise FormatError(f"malformed line {ln!r}: {e}") from None
    if initial is None:
        raise FormatError("missing init line")
    try:
        alphabet = Alphabet(syms[i] for i in sorted(syms)
                            if syms[i] not in RESERVED_NAMES)
    except ValueError as e:
        raise FormatError(str(e)) from None
    if syms != {i: alphabet.name_of(i) for i in range(alphabet.num_labels)}:
        raise FormatError("symbol table ids are not contiguous "
                          "(eps, users, rb, lb1, lb2)")
    _check_labels(arcs, alphabet.num_labels - 1)
    if num_states is None:
        num_states = 1 + max([initial, *finals,
                              *(x for a in arcs for x in (a[0], a[-1]))])
    _check_size(num_states)
    try:
        m = (Automaton if is_acceptor else Transducer)(
            num_states, initial, finals, arcs, weighted)
    except ValueError as e:
        raise FormatError(str(e)) from None
    return m, alphabet


def read_machine(path):
    with open(path, encoding="utf-8") as f:
        return parse_machine(f.read())


def read_transducer(path):
    """`read_machine`, with an acceptor read as its identity transducer."""
    m, alphabet = read_machine(path)
    if isinstance(m, Automaton):
        m = id_transducer(m)
    return m, alphabet
