import copy
import json
import os
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algseries import DFAO, GF, QQ, export_dot, from_json, to_json
from algseries.automaton import close
from algseries.errors import AlgSeriesError, SchemaError, StateBudgetExceeded

from conftest import F2, F4

F7 = GF(7)
DATA = os.path.join(os.path.dirname(__file__), "data")


def tm_automaton():
    return DFAO(2, F2, 0, [(0, 1), (1, 0)], [0, 1])


def random_dfao(field, rng, max_states=6, zero_stable=False):
    q = field.order
    n = rng.randint(1, max_states)
    transitions = [[rng.randrange(n) for _ in range(q)] for _ in range(n)]
    outputs = [rng.randrange(q) for _ in range(n)]
    if zero_stable:
        # kernel-shaped automata have outputs constant along 0-transitions
        # (outputs are constant terms and Lambda_0 preserves them)
        for s in range(n):
            path, cur = [], s
            while cur not in path:
                path.append(cur)
                cur = transitions[cur][0]
            for v in path:
                outputs[v] = outputs[cur]
    return DFAO(q, field, rng.randrange(n), transitions, outputs)


class TestRun:
    def test_thue_morse_values(self):
        tm = tm_automaton()
        assert tm.run_raw(0) == 0   # empty word -> initial output
        assert tm.run_raw(1) == 1
        assert tm.run_raw(3) == 0   # digits 1,1: i -> a -> i
        assert tm.generate(7).coeffs == (0, 1, 1, 0, 1, 0, 0, 1)

    def test_complement_outputs(self):
        neg = DFAO(2, F2, 0, [(0, 1), (1, 0)], [1, 0])
        assert neg.generate(7).coeffs == (1, 0, 0, 1, 0, 1, 1, 0)

    def test_constant_automaton(self):
        const = DFAO(3, GF(3), 0, [(0, 0, 0)], [2])
        assert all(const.run_raw(n) == 2 for n in range(20))

    def test_generate_matches_run(self, rng):
        a = random_dfao(F4, rng)
        series = a.generate(40)
        for n in range(41):
            assert series.coeffs[n] == a.run_raw(n)

    @given(st.data())
    def test_generate_matches_run_any_base(self, data):
        # generate builds all states level by level; run_raw reads the
        # digits of one n at a time
        q = data.draw(st.integers(2, 9))
        n = data.draw(st.integers(1, 6))
        state = st.integers(0, n - 1)
        a = DFAO(q, F7, data.draw(state),
                 data.draw(st.lists(st.lists(state, min_size=q, max_size=q),
                                    min_size=n, max_size=n)),
                 data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
        count = data.draw(st.integers(0, 300))
        assert a.generate(count).coeffs == \
            tuple(a.run_raw(k) for k in range(count + 1))

    def test_kernel_identity(self, rng):
        # run(a, q*n + r) == run(a started at delta(initial, r), n)
        for field in (F2, GF(3)):
            for _ in range(8):
                a = random_dfao(field, rng, zero_stable=True)
                q = a.q
                for r in range(q):
                    sub = DFAO(a.q, a.field, a.transitions[a.initial][r],
                               a.transitions, a.outputs)
                    for n in range(0, 201, 7):
                        assert a.run_raw(q * n + r) == sub.run_raw(n)


class TestMinimize:
    def test_duplicate_thue_morse(self):
        # two disjoint copies of the TM automaton, initial in the first copy
        dup = DFAO(2, F2, 0,
                   [(0, 1), (1, 0), (2, 3), (3, 2)],
                   [0, 1, 0, 1])
        m = dup.minimize()
        assert m.n_states == 2
        assert m == tm_automaton()

    def test_already_minimal_is_isomorphic(self):
        tm = tm_automaton()
        assert tm.minimize() == tm

    def test_all_equal_outputs_collapse(self):
        a = DFAO(2, F2, 0, [(1, 1), (0, 1)], [1, 1])
        m = a.minimize()
        assert m.n_states == 1
        assert m.generate(10).coeffs == (1,) * 11

    def test_unreachable_states_dropped(self):
        a = DFAO(2, F2, 0, [(0, 0), (1, 1)], [1, 0])
        assert a.minimize().n_states == 1

    def test_keeps_label_of_first_reached_state(self):
        # states 1 and 2 are equivalent; digit 0 reaches 1 first
        a = DFAO(2, F2, 0, [(1, 2), (1, 1), (2, 2)], [0, 1, 1],
                 labels=["s", "first", "second"])
        m = a.minimize()
        assert m.transitions == ((1, 1), (1, 1))
        assert m.labels == ("s", "first")

    def test_dead_states_do_not_matter(self, rng):
        # minimize equals the minimization of the reachable part, also when
        # unreachable states have outputs and transitions of their own
        for field in (F2, GF(3)):
            for _ in range(30):
                live, dead = rng.randint(1, 6), rng.randint(1, 6)
                n, q = live + dead, field.order
                order = list(range(n))
                rng.shuffle(order)  # order[i] is the number of state i
                rows = [[rng.randrange(live if s < live else n)
                         for _ in range(q)] for s in range(n)]
                outputs = [rng.randrange(q) for _ in range(n)]
                transitions, outs = [None] * n, [None] * n
                for s in range(n):
                    transitions[order[s]] = [order[t] for t in rows[s]]
                    outs[order[s]] = outputs[s]
                a = DFAO(q, field, order[0], transitions, outs,
                         labels=[str(s) for s in range(n)])
                reach = sorted(_reachable(a))
                number = {s: i for i, s in enumerate(reach)}
                part = DFAO(q, field, number[a.initial],
                            [[number[t] for t in a.transitions[s]]
                             for s in reach],
                            [a.outputs[s] for s in reach],
                            labels=[a.labels[s] for s in reach])
                m = a.minimize()
                assert m == part.minimize()
                assert m.labels == part.minimize().labels

    def test_idempotent_and_sequence_preserving(self, rng):
        for _ in range(12):
            a = random_dfao(F2, rng)
            m = a.minimize()
            assert m.generate(128) == a.generate(128)
            assert m.minimize() == m

    def test_minimality_against_brute_force(self, rng):
        # no smaller automaton can generate the same sequence: check by
        # distinguishing all state pairs of the minimized machine
        for _ in range(8):
            a = random_dfao(F2, rng).minimize()
            n = a.n_states
            for s in range(n):
                for t in range(s + 1, n):
                    assert _distinguishable(a, s, t)


def _reachable(a):
    seen, todo = {a.initial}, [a.initial]
    while todo:
        for t in a.transitions[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


class TestClose:
    def test_key_merges_states_and_keeps_the_first(self):
        states, transitions = close(0, lambda n: [n + 1, n + 2], 10, "mod 3",
                                    key=lambda n: n % 3)
        assert states == [0, 1, 2]
        assert transitions == [[1, 2], [2, 0], [0, 1]]

    def test_budget(self):
        def images(n):
            return [(n + 1) % 6]

        states, _ = close(0, images, 6, "cycle")
        assert len(states) == 6
        with pytest.raises(StateBudgetExceeded,
                           match=r"^cycle exceeds 5 states$"):
            close(0, images, 5, "cycle")


def _distinguishable(a, s, t, depth=12):
    pairs = {(s, t)}
    for _ in range(depth):
        nxt = set()
        for x, y in pairs:
            if a.outputs[x] != a.outputs[y]:
                return True
            for d in range(a.q):
                nxt.add((a.transitions[x][d], a.transitions[y][d]))
        pairs = nxt
    return any(a.outputs[x] != a.outputs[y] for x, y in pairs)


class TestDot:
    def test_thue_morse_golden(self):
        dot = export_dot(tm_automaton())
        assert 'n0 [label="0:0", shape=doublecircle];' in dot
        assert 'n0 -> n0 [label="0"];' in dot
        assert 'n0 -> n1 [label="1"];' in dot
        assert 'n1 -> n0 [label="1"];' in dot

    def test_single_state_merged_digits(self):
        a = DFAO(3, GF(3), 0, [(0, 0, 0)], [1])
        dot = export_dot(a)
        assert 'n0 -> n0 [label="0,1,2"];' in dot

    def test_deterministic(self, rng):
        a = random_dfao(F2, rng)
        assert export_dot(a) == export_dot(a)
        assert export_dot(a) == export_dot(
            DFAO(a.q, a.field, a.initial, a.transitions, a.outputs))


class TestJson:
    def test_roundtrip_thue_morse(self):
        tm = tm_automaton()
        back = from_json(to_json(tm))
        assert back == tm

    def test_roundtrip_fields(self, rng):
        for field in (F2, GF(5), F4):
            a = random_dfao(field, rng)
            assert from_json(to_json(a)) == a

    def test_roundtrip_rational_outputs(self):
        a = DFAO(2, QQ, 0, [(0, 0)], [QQ.from_literal("3/4")])
        assert from_json(to_json(a)) == a

    def test_missing_outputs_path(self):
        doc = json.loads(to_json(tm_automaton()))
        del doc["outputs"]
        with pytest.raises(SchemaError) as err:
            from_json(json.dumps(doc))
        assert err.value.path == "$.outputs"

    def test_malformed_json(self):
        with pytest.raises(SchemaError) as err:
            from_json("{nope")
        assert err.value.path == "$"

    def test_bad_transition_entry(self):
        doc = json.loads(to_json(tm_automaton()))
        doc["transitions"][1][0] = 99
        with pytest.raises(SchemaError) as err:
            from_json(json.dumps(doc))
        assert err.value.path == "$.transitions[1][0]"

    def test_five_state_golden_file(self):
        with open(os.path.join(DATA, "five_state_branch0.json")) as handle:
            text = handle.read()
        a = from_json(text)
        assert a.n_states == 5
        assert a.generate(7).coeffs == (0, 0, 1, 1, 0, 0, 1, 1)
        assert to_json(a) == text  # byte-stable reserialization

    @pytest.mark.parametrize("field", [
        {"kind": "extension", "p": 2, "k": 40},
        {"kind": "extension", "p": 3, "k": 200, "modulus": "t^200+2*t+1"},
        {"kind": "extension", "p": 3, "k": 30000000}])
    def test_extension_over_table_cap(self, field):
        # rejected before any modulus search or irreducibility test, and
        # before p^k is formed
        doc = json.loads(to_json(tm_automaton()))
        doc["field"] = field
        start = time.perf_counter()
        with pytest.raises(AlgSeriesError, match="exceeds table cap 1024"):
            from_json(json.dumps(doc))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("field, output, path", [
        ({"kind": "rationals"}, "1/0", "$.outputs[0]"),
        ({"kind": "rationals"}, "1e999999999", "$.outputs[0]"),
        ({"kind": "rationals"}, 0.5, "$.outputs[0]"),
        ({"kind": "prime", "p": 2}, "1" * 5000, "$.outputs[0]"),
        ({"kind": "prime", "p": 6}, "1", "$.field.p"),
        ({"kind": "extension", "p": 2, "k": 2, "modulus": "t^2+1"}, [1],
         "$.field"),
        ({"kind": "prime", "p": 4}, "1", "$.field.p"),
        ({"kind": "extension", "p": 4, "k": 2}, [1], "$.field.p"),
        ({"kind": "extension", "p": 2, "k": 2, "modulus": "t^20000000"}, [1],
         "$.field"),
        ({"kind": "extension", "p": 5, "k": 1}, [1], "$.field.k"),
    ])
    def test_bad_field_or_literal_path(self, field, output, path):
        doc = json.loads(to_json(tm_automaton()))
        doc["field"], doc["outputs"] = field, [output, output]
        start = time.perf_counter()
        with pytest.raises(SchemaError) as err:
            from_json(json.dumps(doc))
        assert err.value.path == path
        assert time.perf_counter() - start < 1.0

    def test_integer_past_digit_limit(self):
        # json.loads raises a ValueError that is no JSONDecodeError
        text = to_json(tm_automaton()).replace('"initial": 0',
                                               '"initial": ' + "7" * 5000)
        with pytest.raises(SchemaError) as err:
            from_json(text)
        assert err.value.path == "$"

    def test_arity2_roundtrip(self):
        a = DFAO(2, F2, 0, [(0, 1, 1, 0), (1, 1, 0, 0)], [0, 1], arity=2)
        back = from_json(to_json(a))
        assert back == a
        assert back.run_raw((2, 1)) == a.run_raw((2, 1))


# One valid document each over F_p, F_{p^k} and Q.
VALID_DOCS = [json.loads(to_json(a)) for a in (
    tm_automaton(),
    DFAO(2, F4, 1, [(0, 1), (1, 1)], [2, 3], labels=["a", "b"]),
    DFAO(2, QQ, 0, [(0, 1, 1, 0), (1, 1, 0, 0)], [Fraction(3, 4), -2],
         arity=2))]

json_leaves = (
    st.none() | st.booleans() | st.integers(-2, 40) | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=12)
    | st.sampled_from(["1/0", "-3/4", "1e999999999", "t^2+t+1", "lsd",
                       "prime", "extension", "rationals"]))
json_values = st.recursive(
    json_leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=8)


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("doc, path", [
    pytest.param(doc, path, id="/".join(map(str, (doc["field"]["kind"],) + path)))
    for doc in VALID_DOCS for path in _paths(doc)])
@settings(max_examples=15)
@given(value=json_values)
def test_one_node_replaced_loads_or_schema_error(doc, path, value):
    text = json.dumps(_replaced(doc, path, value))
    start = time.perf_counter()
    try:
        automaton = from_json(text)
    except SchemaError:
        pass
    else:
        assert isinstance(automaton, DFAO)
    assert time.perf_counter() - start < 1.0


# Values of every JSON type but bool and int, none of which a node of a
# valid document accepts in place of a value of another type (bools and
# ints are left out: JSON true is an int to Python, and an int can be a
# valid literal where a string stood).
WRONG_TYPE = [None, 0.5, -2.5, "?", [["?"]], {"?": 1}]


def _json_path(path):
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                         for key in path)


@pytest.mark.parametrize("doc, path", [
    pytest.param(doc, path, id="/".join(map(str, (doc["field"]["kind"],) + path)))
    for doc in VALID_DOCS for path in _paths(doc)])
@given(data=st.data())
def test_one_node_wrong_type_error_path(doc, path, data):
    # the error names the replaced node, or its parent when the parent's
    # check owns it (a label, an extension field's p or k, a coefficient
    # of an extension literal)
    node = doc
    for key in path:
        node = node[key]
    optional = path in (("labels",), ("field", "modulus"))
    value = data.draw(st.sampled_from(
        [v for v in WRONG_TYPE if type(v) is not type(node)
         and not (v is None and optional)]))
    with pytest.raises(SchemaError) as err:
        from_json(json.dumps(_replaced(doc, path, value)))
    assert err.value.path in (_json_path(path), _json_path(path[:-1]))
