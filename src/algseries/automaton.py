"""Deterministic finite automata with output (DFAO).

A DFAO reads the base-q digits of an index least-significant-digit first
(n = 0 reads the empty word) and emits the output of the final state; this
is the one digit convention used across the toolkit.  ``arity`` 1 gives the
classic digit automaton; ``arity`` 2 reads digit *pairs* (r, s), encoded as
the symbol r + q*s, and indexes coefficients of bivariate series.  Outputs
are raw values of the automaton's field, so automata compose with the series
modules directly.

Every automaton this toolkit synthesizes has outputs constant along its
0-transitions (outputs are constant terms of kernel elements, which the
digit-0 section preserves), so padding an index with leading zeros cannot
change the result and the kernel identity u_{qn+r} = (run from the r-image
of the initial state)(n) holds for every n including 0.  On any other
automaton it fails at n = 0 only, and annihilate adds the constant series
as one more coordinate of its kernel rows (annihilator._kernel_rows).

``close`` is the one keyed breadth-first closure of the package: it
numbers the states of every automaton the package builds, the Cartier
closures of cartier.rational_kernel and roots.cartier_closure, and the
blocks of DFAO.minimize.

Persistence is a JSON document, rendering is Graphviz DOT; both are
deterministic byte-for-byte for a given automaton.
"""

import json

from .algebra.fields import GF, QQ, field_order, is_prime
from .algebra.series import TruncSeries1
from .errors import AlgSeriesError, SchemaError, StateBudgetExceeded
from .exprparse import parse_modulus


class DFAO:
    """Immutable automaton: transitions[state][symbol] -> state."""

    __slots__ = ("q", "arity", "field", "initial", "transitions", "outputs",
                 "labels")

    def __init__(self, q, field, initial, transitions, outputs, labels=None,
                 arity=1):
        if q < 2:
            raise AlgSeriesError("digit base must be >= 2")
        nsym = q ** arity
        transitions = tuple(tuple(row) for row in transitions)
        nstates = len(transitions)
        for row in transitions:
            if len(row) != nsym or any(not 0 <= t < nstates for t in row):
                raise AlgSeriesError("transition table is not total")
        if len(outputs) != nstates:
            raise AlgSeriesError("one output per state required")
        if not 0 <= initial < nstates:
            raise AlgSeriesError("initial state out of range")
        self.q = q
        self.arity = arity
        self.field = field
        self.initial = initial
        self.transitions = transitions
        self.outputs = tuple(outputs)
        self.labels = tuple(labels) if labels is not None else None

    @property
    def n_states(self):
        return len(self.transitions)

    def _digits(self, n):
        digits = []
        while n:
            n, r = divmod(n, self.q)
            digits.append(r)
        return digits

    def run_raw(self, n):
        """Raw output value at index n (int, or an (m, n) pair if arity 2)."""
        state = self.initial
        delta = self.transitions
        if self.arity == 1:
            for d in self._digits(n):
                state = delta[state][d]
        else:
            m, n = n
            dm, dn = self._digits(m), self._digits(n)
            if len(dm) < len(dn):
                dm += [0] * (len(dn) - len(dm))
            else:
                dn += [0] * (len(dm) - len(dn))
            for r, s in zip(dm, dn):
                state = delta[state][r + self.q * s]
        return self.outputs[state]

    def generate(self, count):
        """TruncSeries1 with c_n = run_raw(n) for 0 <= n <= count (arity 1).

        Level by level: level k lists the states after exactly k digits,
        leading zeros included, for the indices below q^k, so level k + 1
        is delta[t][d] at d*q^k + r for the state t of r on level k.  An n
        with q^k <= n < q^(k+1) has k + 1 digits and ends on level k + 1.
        """
        if self.arity != 1:
            raise AlgSeriesError("generate needs a one-dimensional automaton")
        delta, outputs = self.transitions, self.outputs
        level = [self.initial]
        values = [outputs[self.initial]]
        while len(values) <= count:
            level = [delta[t][d] for d in range(self.q) for t in level]
            values += [outputs[t] for t in level[len(values):count + 1]]
        return TruncSeries1(self.field, values, count)

    def minimize(self):
        """Moore partition refinement; outputs form the initial partition.

        The refinement runs over all states: the successors of a state
        reachable from the initial state are reachable too, so unreachable
        states cannot split its block.  ``close`` then numbers the blocks
        reachable from the initial state in breadth-first order (digits
        ascending), each kept as its first-reached state, so equal automata
        minimize to byte-identical objects.
        """
        delta = self.transitions
        by_output = {}
        block = [by_output.setdefault(v, len(by_output)) for v in self.outputs]
        nblocks = len(by_output)
        while True:
            signatures = {}
            refined = [signatures.setdefault((b, *map(block.__getitem__, row)),
                                             len(signatures))
                       for b, row in zip(block, delta)]
            if len(signatures) == nblocks:
                break
            block, nblocks = refined, len(signatures)
        reps, transitions = close(self.initial, delta.__getitem__, len(delta),
                                  "minimized automaton", key=block.__getitem__)
        labels = None if self.labels is None else [self.labels[s] for s in reps]
        return DFAO(self.q, self.field, 0, transitions,
                    [self.outputs[s] for s in reps], labels, self.arity)

    def __eq__(self, other):
        """Structural equality; labels are cosmetic and not compared."""
        return (isinstance(other, DFAO) and other.q == self.q
                and other.arity == self.arity and other.field == self.field
                and other.initial == self.initial
                and other.transitions == self.transitions
                and other.outputs == self.outputs)

    def __hash__(self):
        return hash((self.q, self.arity, self.field, self.initial,
                     self.transitions, self.outputs))

    def __repr__(self):
        return (f"DFAO(q={self.q}, arity={self.arity}, "
                f"states={self.n_states}, field={self.field!r})")


def close(start, images, budget, what, key=None):
    """Keyed breadth-first closure of ``start``: (states, transitions).

    ``images(state)`` lists a state's images by ascending digit.  States
    are equal when they compare equal, or, given ``key``, when their
    ``key(state)`` values do.  States are numbered in discovery order, each
    kept as it was first reached, and more than ``budget`` of them raise
    StateBudgetExceeded.
    """
    states = [start]
    index = {start if key is None else key(start): 0}
    transitions = []
    for state in states:  # the list grows while it is walked
        row = []
        for image in images(state):
            target = index.setdefault(image if key is None else key(image),
                                      len(states))
            if target == len(states):
                if target >= budget:
                    raise StateBudgetExceeded(f"{what} exceeds {budget} states")
                states.append(image)
            row.append(target)
        transitions.append(row)
    return states, transitions


def _symbol_text(q, arity, symbol):
    if arity == 1:
        return str(symbol)
    return f"({symbol % q},{symbol // q})"


def export_dot(automaton):
    """Graphviz DOT text; deterministic byte-for-byte."""
    lines = ["digraph dfao {", "  rankdir=LR;"]
    for s in range(automaton.n_states):
        out = automaton.field.fmt(automaton.outputs[s])
        shape = "doublecircle" if s == automaton.initial else "circle"
        lines.append(f'  n{s} [label="{s}:{out}", shape={shape}];')
    nsym = automaton.q ** automaton.arity
    for s in range(automaton.n_states):
        grouped = {}
        for a in range(nsym):
            grouped.setdefault(automaton.transitions[s][a], []).append(a)
        for target in sorted(grouped, key=lambda t: grouped[t][0]):
            label = ",".join(_symbol_text(automaton.q, automaton.arity, a)
                             for a in grouped[target])
            lines.append(f'  n{s} -> n{target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _field_to_json(field):
    if field.kind == "prime":
        return {"kind": "prime", "p": field.char}
    if field.kind == "extension":
        return {"kind": "extension", "p": field.char, "k": field.degree,
                "modulus": field.modulus_text()}
    return {"kind": "rationals"}


def _check_prime(p, path):
    """SchemaError at ``path``.p unless p is prime: GF alone would also take
    a prime power such as 4 and build an extension field."""
    try:
        prime = is_prime(p)
    except AlgSeriesError as exc:  # too large to certify
        raise SchemaError(path + ".p", str(exc)) from exc
    if not prime:
        raise SchemaError(path + ".p", f"{p} is not prime")


def _field_from_json(obj, path):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(path, "field descriptor object required")
    kind = obj["kind"]
    if kind == "rationals":
        return QQ
    if kind == "prime":
        if not isinstance(obj.get("p"), int):
            raise SchemaError(path + ".p", "prime characteristic required")
        _check_prime(obj["p"], path)
        return GF(obj["p"])
    if kind == "extension":
        p, k, modulus = obj.get("p"), obj.get("k"), obj.get("modulus")
        if not isinstance(p, int) or not isinstance(k, int):
            raise SchemaError(path, "extension needs integer p and k")
        if modulus is not None and not isinstance(modulus, str):
            raise SchemaError(path + ".modulus", "modulus must be a string")
        _check_prime(p, path)
        if k < 2:  # F_p is the prime kind: this would not round-trip
            raise SchemaError(path + ".k", "an extension needs k >= 2")
        try:
            q = field_order(p, k)
            if modulus is not None:
                modulus = parse_modulus(modulus, p, k)
            return GF(q, modulus=modulus)
        except AlgSeriesError as exc:
            raise SchemaError(path, str(exc)) from exc
    raise SchemaError(path + ".kind", f"unknown field kind {kind!r}")


def to_json(automaton):
    """Lossless JSON document for an automaton."""
    doc = {
        "q": automaton.q,
        "arity": automaton.arity,
        "digit_order": "lsd",
        "field": _field_to_json(automaton.field),
        "initial": automaton.initial,
        "transitions": [list(row) for row in automaton.transitions],
        "outputs": [automaton.field.to_literal(v) for v in automaton.outputs],
    }
    if automaton.labels is not None:
        doc["labels"] = list(automaton.labels)
    return json.dumps(doc, indent=2) + "\n"


def from_json(text):
    """Parse an automaton document; SchemaError carries the JSON path."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and ints past the digit limit
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("$", "top-level object required")
    for key in ("q", "initial", "transitions", "outputs", "field"):
        if key not in doc:
            raise SchemaError(f"$.{key}", "missing required key")
    if not isinstance(doc["q"], int) or doc["q"] < 2:
        raise SchemaError("$.q", "integer digit base >= 2 required")
    arity = doc.get("arity", 1)
    if arity not in (1, 2):
        raise SchemaError("$.arity", "arity must be 1 or 2")
    if doc.get("digit_order", "lsd") != "lsd":
        raise SchemaError("$.digit_order", "only digit_order 'lsd' is supported")
    field = _field_from_json(doc["field"], "$.field")
    transitions = doc["transitions"]
    if not isinstance(transitions, list) or not transitions:
        raise SchemaError("$.transitions", "nonempty list required")
    nstates = len(transitions)
    nsym = doc["q"] ** arity
    for i, row in enumerate(transitions):
        if not isinstance(row, list) or len(row) != nsym:
            raise SchemaError(f"$.transitions[{i}]",
                              f"row of {nsym} target states required")
        for j, t in enumerate(row):
            if not isinstance(t, int) or not 0 <= t < nstates:
                raise SchemaError(f"$.transitions[{i}][{j}]",
                                  "target state index out of range")
    outputs_doc = doc["outputs"]
    if not isinstance(outputs_doc, list) or len(outputs_doc) != nstates:
        raise SchemaError("$.outputs", f"list of {nstates} literals required")
    outputs = []
    for i, lit in enumerate(outputs_doc):
        try:
            outputs.append(field.from_literal(lit))
        except (AlgSeriesError, ValueError) as exc:
            # ValueError: an int literal past the digit limit
            raise SchemaError(f"$.outputs[{i}]", str(exc)) from exc
    if not isinstance(doc["initial"], int) or not 0 <= doc["initial"] < nstates:
        raise SchemaError("$.initial", "initial state index out of range")
    labels = doc.get("labels")
    if labels is not None:
        if (not isinstance(labels, list) or len(labels) != nstates
                or not all(isinstance(x, str) for x in labels)):
            raise SchemaError("$.labels", f"list of {nstates} strings required")
    return DFAO(doc["q"], field, doc["initial"], transitions, outputs,
                labels, arity)
