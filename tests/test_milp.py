import math
import re
import tracemalloc

import numpy as np
import pytest

from risplan import milp
from risplan.milp import (BINARY, CONTINUOUS, MilpModel, ModelError, export_lp,
                          read_lp)
from risplan.planner import build_baseline_model, build_ris_model
from risplan.radio import RadioConfig, build_link_tables
from risplan.scenario import PlanningConfig, generate
from risplan.solver import solve


def small_model():
    m = MilpModel(name="toy")
    x = m.add_variable(("x",), BINARY)
    y = m.add_variable(("y",), BINARY)
    u = m.add_variable(("u",), CONTINUOUS, 0.0, 2.5)
    m.set_objective_coeff(x, 3.0)
    m.set_objective_coeff(y, 2.0)
    m.set_objective_coeff(u, 1.0)
    m.add_constraint("pick_one", {x: 1.0, y: 1.0}, "<=", 1.0)
    m.add_constraint("cap", {u: 1.0, x: -2.5}, "<=", 0.0)
    return m


class TestModelConstruction:
    def test_duplicate_key_rejected(self):
        m = MilpModel()
        m.add_variable(("a",), BINARY)
        with pytest.raises(ModelError, match="duplicate variable key"):
            m.add_variable(("a",), BINARY, name="other")

    def test_duplicate_name_rejected(self):
        m = MilpModel()
        m.add_variable(("a",), BINARY, name="v")
        with pytest.raises(ModelError, match="duplicate variable name"):
            m.add_variable(("b",), BINARY, name="v")

    def test_binary_bounds_forced(self):
        m = MilpModel()
        vid = m.add_variable(("a",), BINARY, lower=-5.0, upper=9.0)
        assert m.variables[vid].lower == 0.0
        assert m.variables[vid].upper == 1.0

    def test_unknown_sense(self):
        m = MilpModel()
        vid = m.add_variable(("a",), BINARY)
        with pytest.raises(ModelError, match="sense"):
            m.add_constraint("c", {vid: 1.0}, "<", 1.0)

    def test_unknown_variable_in_constraint(self):
        m = MilpModel()
        with pytest.raises(ModelError, match="unknown variable"):
            m.add_constraint("c", {3: 1.0}, "<=", 1.0)

    def test_index_map_total_and_bidirectional(self):
        m = small_model()
        for vid in range(m.num_variables):
            assert m.var_id(m.key_of(vid)) == vid
            assert m.id_of_name(m.name_of(vid)) == vid

    def test_objective_sense_validation(self):
        with pytest.raises(ModelError):
            MilpModel(sense="mid")


class TestColumnarStore:
    """Block appends: checked in full before anything is stored, rows kept
    in variable id order with repeated entries summed."""

    @pytest.mark.parametrize("block, message", [
        (dict(indices=[0, 3], data=[1.0, 1.0]), "unknown variable 3"),
        (dict(indices=[0, -1], data=[1.0, 1.0]), "unknown variable -1"),
        (dict(senses=["<=", "<"]), "unknown constraint sense '<'"),
        (dict(senses=["<=", ">=", "="]), "3 constraint senses"),
        (dict(rhs=[1.0, 2.0, 3.0]), "3 rhs values"),
        (dict(data=[1.0]), "ragged"),
        (dict(indptr=[0, 1]), "ragged"),
        (dict(indptr=[0, 2, 1]), "ragged"),
        # Ids are stored as int32 only after this check, so none wraps.
        (dict(indices=[0, 2**31], data=[1.0, 1.0]), "unknown variable 2147483648"),
        (dict(indices=[2**32 + 1, 1], data=[1.0, 1.0]), "unknown variable 4294967297"),
        (dict(indices=[0, -2**31 - 1], data=[1.0, 1.0]), "unknown variable -2147483649"),
        (dict(data=[1.0, math.nan]), "'b' has the non-finite coefficient nan"),
        (dict(data=[-math.inf, 1.0]), "'a' has the non-finite coefficient -inf"),
        (dict(rhs=[1.0, math.nan]), "'b' has the non-finite rhs nan"),
        (dict(rhs=math.inf), "'a' has the non-finite rhs inf"),
        (dict(rhs=[0.0, -math.inf]), "'b' has the non-finite rhs -inf"),
    ])
    def test_bad_block_adds_no_row(self, block, message):
        m = small_model()
        before = (m.num_constraints, m.num_nonzeros, [tuple(c) for c in m.constraints])
        args = dict(names=["a", "b"], senses="<=", rhs=1.0, indptr=[0, 1, 2],
                    indices=[0, 1], data=[1.0, 2.0])
        with pytest.raises(ModelError, match=message):
            m.add_rows(**{**args, **block})
        assert (m.num_constraints, m.num_nonzeros, [tuple(c) for c in m.constraints]) == before
        assert export_lp(m) == export_lp(small_model())

    def test_bad_variable_block_adds_nothing(self):
        m = small_model()
        with pytest.raises(ModelError, match="duplicate variable key"):
            m.add_variables([("p",), ("q",), ("p",)], ["p", "q", "r"], BINARY)
        with pytest.raises(ModelError, match="duplicate variable name 'x'"):
            m.add_variables([("p",)], ["x"], BINARY)
        with pytest.raises(ModelError, match="unknown variable kind"):
            m.add_variables([("p",), ("q",)], ["p", "q"], [BINARY, "integer"])
        with pytest.raises(ModelError, match="empty bounds"):
            m.add_variables([("p",), ("q",)], ["p", "q"], CONTINUOUS, [0.0, 2.0], 1.0)
        assert m.num_variables == 3 and not m.has_var(("p",))
        assert export_lp(m) == export_lp(small_model())

    @pytest.mark.parametrize("lower, upper", [
        (math.nan, 1.0), (0.0, math.nan), (math.inf, math.inf), (-math.inf, -math.inf),
    ])
    def test_bounds_that_admit_no_value_rejected(self, lower, upper):
        m = small_model()
        with pytest.raises(ModelError, match=r"empty bounds .* for \('q',\)"):
            m.add_variables([("p",), ("q",)], ["p", "q"], CONTINUOUS, [0.0, lower],
                            [1.0, upper])
        assert m.num_variables == 3 and not m.has_var(("p",))
        assert export_lp(m) == export_lp(small_model())

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_non_finite_objective_coefficient_rejected(self, coeff):
        m = small_model()
        with pytest.raises(ModelError, match="non-finite objective coefficient"):
            m.set_objective_coeff(0, coeff)
        assert export_lp(m) == export_lp(small_model())

    @pytest.mark.parametrize("text, message", [
        ("Maximize\n obj: 1 x\nSubject To\n c: 1 x <= inf\nEnd\n", "'c' has the non-finite rhs"),
        ("Maximize\n obj: 1 x\nSubject To\n c: 1e400 x <= 1\nEnd\n",
         "'c' has the non-finite coefficient inf"),
        ("Maximize\n obj: 1e400 x\nSubject To\n c: 1 x <= 1\nEnd\n",
         "non-finite objective coefficient"),
        ("Maximize\n obj: 1 x\nSubject To\n c: 1 x <= 1\nBounds\n 0 <= x <= nan\nEnd\n",
         r"empty bounds \[0.0, nan\] for 'x'"),
        ("Maximize\n obj: 1 x\nSubject To\n c: 1 x <= 1\nBounds\n x >= inf\nEnd\n",
         "empty bounds"),
    ])
    def test_read_lp_rejects_non_finite_values(self, text, message):
        with pytest.raises(ModelError, match=message):
            read_lp(text)

    def test_block_ids_and_bounds(self):
        m = small_model()
        ids = m.add_variables([("p", 0), ("p", 1)], ["p0", "p1"], [CONTINUOUS, BINARY],
                              -1.0, [4.0, 9.0])
        assert ids.tolist() == [3, 4]
        assert [tuple(m.variables[i]) for i in ids] == [
            ("p0", CONTINUOUS, -1.0, 4.0), ("p1", BINARY, 0.0, 1.0)]

    def test_repeated_entries_summed_and_sorted(self):
        m = small_model()
        m.add_rows(["r"], "<=", 3.0, [0, 4], [2, 0, 2, 1], [1.5, 1.0, 2.0, -1.0])
        assert m.constraints[-1].coeffs == {0: 1.0, 1: -1.0, 2: 3.5}
        indptr, indices, data = m.csr()
        assert indices[indptr[-2]:].tolist() == [0, 1, 2]
        assert m.num_nonzeros == 4 + 3

    def test_explicit_zero_stored_not_written(self):
        m = small_model()
        m.add_constraint("zero", {0: 0.0, 2: 1.0}, "<=", 1.0)
        m.add_constraint("only_zero", {1: 0.0}, ">=", -1.0)
        indptr, _, data = m.csr()
        assert data[indptr[-3]:].tolist() == [0.0, 1.0, 0.0]
        lines = export_lp(m).splitlines()
        assert " zero: 1 u <= 1" in lines and " only_zero: 0 x >= -1" in lines

    def test_views_read_only(self):
        m = small_model()
        row = m.constraints_named("pick")[0]
        assert (row.name, row.coeffs, row.sense, row.rhs) == ("pick_one", {0: 1.0, 1: 1.0},
                                                               "<=", 1.0)
        with pytest.raises(AttributeError):
            row.rhs = 5.0
        with pytest.raises(AttributeError):
            m.variables[0].upper = 5.0
        with pytest.raises(TypeError):
            m.constraints[0] = row
        with pytest.raises(TypeError):
            row.coeffs[0] = 7.0
        assert m.constraints[0].coeffs == {0: 1.0, 1: 1.0}

    def test_views_are_sequences(self):
        m = small_model()
        assert len(m.variables) == 3 and m.variables and m.constraints
        assert [v.name for v in m.variables] == ["x", "y", "u"]
        assert m.variables[-1].name == "u" and m.constraints[-1].name == "cap"
        with pytest.raises(IndexError):
            m.constraints[2]
        assert not MilpModel().constraints
        assert np.array_equal(m.row_bounds()[0], [-math.inf, -math.inf])


class TestIdStore:
    """Variable ids are stored as int32 once they are checked against the
    variable count (see TestColumnarStore for the ids it rejects)."""

    def test_csr_indices_int32(self):
        m = small_model()
        indptr, indices, data = m.csr()
        assert indices.dtype == np.int32 and indptr.dtype == np.int64
        assert data.dtype == np.float64
        m.add_rows(["r"], "<=", 1.0, [0, 2], np.array([2, 0], np.int64), [1.0, 2.0])
        assert m.csr()[1].dtype == np.int32 and m.csr()[1][-2:].tolist() == [0, 2]

    def test_empty_model_csr(self):
        indptr, indices, data = MilpModel().csr()
        assert indptr.tolist() == [0] and indices.dtype == np.int32 and len(data) == 0


class TestNameKeyedVariables:
    """add_variables(None, names, ...) gives each variable the key (name,)
    without storing it."""

    def test_keys_and_lookups(self):
        m = MilpModel()
        ids = m.add_variables(None, ["s", "t"], [BINARY, CONTINUOUS], 0.0, [1.0, 4.0])
        x = m.add_variable(("x", 1, 2), BINARY)
        assert ids.tolist() == [0, 1] and x == 2
        assert m.keys() == [("s",), ("t",), ("x", 1, 2)]
        assert [m.key_of(i) for i in range(3)] == m.keys()
        assert m.var_id(("s",)) == 0 and m.var_id(("t",)) == 1 and m.var_id(("x", 1, 2)) == 2
        assert m.has_var(("s",)) and m.has_var(("x", 1, 2))
        assert m.names() == ["s", "t", "x_1_2"]
        assert [tuple(v) for v in m.variables][:2] == [("s", BINARY, 0.0, 1.0),
                                                       ("t", CONTINUOUS, 0.0, 4.0)]
        # Only (name,) names a name-keyed variable: not the name, and not
        # the name of an explicitly keyed one.
        for other in ("s", ("s", 0), ("x_1_2",), (), ("u",)):
            assert not m.has_var(other)
        for other in ("s", ("s", 0), ("x_1_2",), ("u",)):
            with pytest.raises(ModelError, match="unknown variable key"):
                m.var_id(other)

    def test_not_stored(self):
        m = MilpModel()
        m.add_variables(None, ["s", "t"], CONTINUOUS)
        assert m._key_to_id == {} and m._id_to_key == [None, None]

    def test_duplicate_after_explicit_key(self):
        m = MilpModel()
        m.add_variable(("s",), BINARY, name="other")
        with pytest.raises(ModelError, match=r"duplicate variable key \('s',\)"):
            m.add_variables(None, ["t", "s"], CONTINUOUS)
        assert m.keys() == [("s",)] and not m.has_var(("t",))

    def test_duplicate_before_explicit_key(self):
        m = MilpModel()
        m.add_variables(None, ["s"], CONTINUOUS)
        with pytest.raises(ModelError, match=r"duplicate variable key \('s',\)"):
            m.add_variable(("s",), BINARY, name="other")
        with pytest.raises(ModelError, match=r"duplicate variable key \('s',\)"):
            m.add_variables([("p",), ("s",)], ["p", "q"], BINARY)
        assert m.keys() == [("s",)] and m.names() == ["s"] and not m.has_var(("p",))

    def test_duplicate_names_and_empty_bounds(self):
        m = MilpModel()
        m.add_variables(None, ["s"], CONTINUOUS)
        with pytest.raises(ModelError, match="duplicate variable name 's'"):
            m.add_variables(None, ["s"], CONTINUOUS)
        with pytest.raises(ModelError, match="duplicate variable name 't'"):
            m.add_variables(None, ["t", "t"], CONTINUOUS)
        with pytest.raises(ModelError, match="duplicate variable name 's'"):
            m.add_variable(("p",), CONTINUOUS, name="s")
        with pytest.raises(ModelError, match="empty bounds .* for \\('u',\\)"):
            m.add_variables(None, ["u"], CONTINUOUS, 2.0, 1.0)
        assert m.keys() == [("s",)]

    def test_read_lp_keys_are_names(self):
        scenario = generate(190.0, 253.0, 12, 8, seed=0)
        model = build_ris_model(scenario, build_link_tables(scenario, RadioConfig()),
                                PlanningConfig())
        back = read_lp(export_lp(model))
        assert back.keys() == [(name,) for name in back.names()]
        assert sorted(back.names()) == sorted(model.names())
        assert back._key_to_id == {} and set(back._id_to_key) == {None}
        for var_id in (0, back.num_variables // 2, back.num_variables - 1):
            key = back.key_of(var_id)
            assert key == (back.name_of(var_id),) and back.var_id(key) == var_id


class TestRowViews:
    """A row view's coefficients are a read-only mapping over the model's
    CSR arrays and the row's place in them, not a copy of them."""

    def test_mapping_equals_dict_in_id_order(self):
        m = small_model()
        m.add_rows(["r"], "<=", 3.0, [0, 3], [2, 0, 1], [1.5, 0.0, -1.0])
        coeffs = m.constraints[-1].coeffs
        assert coeffs == {0: 0.0, 1: -1.0, 2: 1.5} and {2: 1.5, 1: -1.0, 0: 0.0} == coeffs
        assert coeffs != {1: -1.0, 2: 1.5}      # the explicit zero is kept
        assert list(coeffs) == [0, 1, 2] and list(coeffs.values()) == [0.0, -1.0, 1.5]
        assert list(coeffs.items()) == [(0, 0.0), (1, -1.0), (2, 1.5)]
        assert all(type(k) is int and type(v) is float for k, v in coeffs.items())
        assert all(type(v) is float for v in coeffs.values())
        assert coeffs[2] == 1.5 and type(coeffs[2]) is float
        assert repr(coeffs) == "{0: 0.0, 1: -1.0, 2: 1.5}"
        assert dict(coeffs) == {0: 0.0, 1: -1.0, 2: 1.5}

    def test_missing_id_and_len(self):
        m = small_model()
        coeffs = m.constraints[1].coeffs      # cap: u and x
        assert len(coeffs) == 2 and len(m.constraints[0].coeffs) == 2
        for missing in (1, 3, -1, 2**70, "x"):
            with pytest.raises(KeyError):
                coeffs[missing]
            assert missing not in coeffs
        assert coeffs.get(1) is None and 2 in coeffs and 0 in coeffs
        m.add_constraint("empty", {}, "<=", 1.0)
        assert len(m.constraints[-1].coeffs) == 0 and m.constraints[-1].coeffs == {}

    def test_ids_beyond_int32_missing(self):
        m = small_model()
        coeffs = m.constraints[0].coeffs      # pick_one: x and y
        for missing in (2**31, 2**32, 2**40, 2**40 + 1, -2**40, 2**70, -2**70,
                        np.int64(2**40), np.uint64(2**63)):
            with pytest.raises(KeyError):
                coeffs[missing]
            assert missing not in coeffs
        assert coeffs[np.int64(1)] == 1.0 and coeffs[True] == 1.0

    def test_view_is_a_snapshot(self):
        m = MilpModel()
        m.add_variables([("a",), ("b",)], ["a", "b"], CONTINUOUS)
        m.add_constraint("one", {0: 2.0}, "<=", 1.0)
        first = m.constraints[0]        # over the only block there is
        m.add_constraint("two", {1: 3.0, 0: 1.0}, ">=", 0.0)
        joined = m.constraints[0]       # over the joined arrays
        m.add_rows(["three", "four"], "=", 5.0, [0, 1, 2], [1, 0], [4.0, 5.0])
        assert first == ("one", {0: 2.0}, "<=", 1.0)
        assert joined.coeffs == {0: 2.0}
        assert [tuple(c) for c in m.constraints] == [
            ("one", {0: 2.0}, "<=", 1.0), ("two", {0: 1.0, 1: 3.0}, ">=", 0.0),
            ("three", {1: 4.0}, "=", 5.0), ("four", {0: 5.0}, "=", 5.0)]

    def test_model_cannot_change_through_a_view(self):
        m = small_model()
        coeffs = m.constraints[0].coeffs
        with pytest.raises(TypeError):
            coeffs[0] = 7.0
        with pytest.raises(TypeError):
            del coeffs[0]
        with pytest.raises(AttributeError):
            coeffs.extra = 1
        # The slices it holds share memory with the model's CSR arrays.
        for held in (coeffs._ids, coeffs._values):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 2
        assert export_lp(m) == export_lp(small_model())
        assert m.constraints[0].coeffs == {0: 1.0, 1: 1.0}

    # A dict per row cost about 1,196 B here, a mapping over the row's two
    # slices about 384 B, and a mapping over the shared arrays and the
    # row's place in them about 191 B.
    HELD_BYTES_PER_ROW = 240

    def test_held_views_memory_bounded(self):
        scenario = generate(300.0, 400.0, 25, 15, seed=0)
        model = build_ris_model(scenario, build_link_tables(scenario, RadioConfig()),
                                PlanningConfig())
        model.csr(), model.row_bounds()     # join the builder's blocks first
        tracemalloc.start()
        try:
            views = list(model.constraints)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(views) == model.num_constraints > 10_000
        assert held / len(views) < self.HELD_BYTES_PER_ROW


class TestLpExport:
    def test_deterministic_bytes(self):
        a = export_lp(small_model())
        b = export_lp(small_model())
        assert a == b

    def test_sections_present(self):
        text = export_lp(small_model())
        for token in ("Maximize", "Subject To", "Bounds", "Binaries", "End"):
            assert token in text
        assert "pick_one:" in text
        assert "0 <= u <= 2.5" in text

    def test_objective_only_model(self):
        m = MilpModel(name="objective_only")
        v = m.add_variable(("v",), CONTINUOUS, 0.0, 1.0)
        m.set_objective_coeff(v, 1.0)
        text = export_lp(m)
        assert "Subject To" in text
        parsed = read_lp(text)
        assert parsed.num_constraints == 0
        assert solve(parsed).objective_value == pytest.approx(1.0)

    def test_round_trip_solves_identically(self):
        m = small_model()
        direct = solve(m)
        parsed = read_lp(export_lp(m))
        assert parsed.num_variables == m.num_variables
        assert parsed.num_constraints == m.num_constraints
        reparsed = solve(parsed)
        assert reparsed.objective_value == pytest.approx(direct.objective_value, rel=1e-9)

    def test_round_trip_preserves_bounds_and_kinds(self):
        m = small_model()
        parsed = read_lp(export_lp(m))
        for var in m.variables:
            pid = parsed.id_of_name(var.name)
            assert parsed.variables[pid].kind == var.kind
            assert parsed.variables[pid].lower == pytest.approx(var.lower)
            assert parsed.variables[pid].upper == pytest.approx(var.upper)

    def test_empty_row_survives_round_trip(self):
        # An assignment row with no eligible variables means "0 = 1":
        # infeasible, and it must stay infeasible through the file format.
        m = MilpModel(name="forced_infeasible")
        v = m.add_variable(("v",), BINARY)
        m.set_objective_coeff(v, 1.0)
        m.add_constraint("impossible", {}, "=", 1.0)
        assert solve(m).status == "infeasible"
        parsed = read_lp(export_lp(m))
        assert solve(parsed).status == "infeasible"

    def test_scientific_notation_coefficients(self):
        m = MilpModel(name="sci")
        a = m.add_variable(("a",), CONTINUOUS, 0.0, 1e9)
        m.set_objective_coeff(a, 1.0)
        m.add_constraint("tiny", {a: 2.5e-7}, "<=", 3.2e-5)
        parsed = read_lp(export_lp(m))
        con = parsed.constraints[0]
        assert list(con.coeffs.values())[0] == pytest.approx(2.5e-7)
        assert con.rhs == pytest.approx(3.2e-5)
        assert solve(parsed).objective_value == pytest.approx(128.0)

    def test_evaluate_objective(self):
        m = small_model()
        res = solve(m)
        assert m.evaluate_objective(res.variable_values) == pytest.approx(
            res.objective_value, rel=1e-9)


def named_model(m: MilpModel):
    """A model by variable and row name: what an LP file can carry. The
    variable order is not part of it, as read_lp declares variables in
    order of first appearance."""
    def terms(coeffs):
        return {m.name_of(v): c for v, c in coeffs.items() if c != 0.0}
    return (m.objective_sense,
            {v.name: (v.kind, v.lower, v.upper) for v in m.variables},
            terms(m.objective),
            [(c.name, terms(c.coeffs), c.sense, c.rhs) for c in m.constraints])


class TestLpDialect:
    """read_lp reads the LP text export_lp writes, and nothing else: any
    other line raises ModelError naming it."""

    def test_repeated_terms_accumulate(self):
        parsed = read_lp("Maximize\n obj: 1 x + 1 x\n"
                         "Subject To\n c: 1 x + 2 y - 1 x <= 1\nEnd\n")
        assert parsed.objective == {0: 2.0}
        assert parsed.constraints[0].coeffs == {0: 0.0, 1: 2.0}

    def test_three_bound_forms(self):
        parsed = read_lp("Maximize\n obj: 1 a + 1 b + 1 c + 1 d + 1 e\n"
                         "Subject To\n c1: 1 a + 1 b + 1 c + 1 d + 1 e <= 100\n"
                         "Bounds\n 0 <= a <= 5\n -inf <= b <= 2\n -1 <= c <= 3\n d >= -4\n"
                         " e free\nEnd\n")
        assert [(v.name, v.lower, v.upper) for v in parsed.variables] == [
            ("a", 0.0, 5.0), ("b", -math.inf, 2.0), ("c", -1.0, 3.0),
            ("d", -4.0, math.inf), ("e", -math.inf, math.inf)]

    def test_variables_declared_in_order_of_first_appearance(self):
        parsed = read_lp("Maximize\n obj: 1 b\nSubject To\n c1: 1 c + 1 a <= 1\n"
                         "Bounds\n 0 <= d <= 4\nBinaries\n a\n e\nEnd\n")
        assert [(v.name, v.kind) for v in parsed.variables] == [
            ("b", CONTINUOUS), ("c", CONTINUOUS), ("a", BINARY),
            ("d", CONTINUOUS), ("e", BINARY)]

    ROW = "Maximize\n obj: 1 x\nSubject To\n"      # the row or header is line 4

    @pytest.mark.parametrize("text, message", [
        # Comments and blank lines; only a first line may start with a backslash.
        pytest.param("\\ name\n\\ header comment\nMaximize\n obj: 1 x\nSubject To\nEnd\n",
                     "LP line 2:", id="comment-line"),
        pytest.param("Maximize\n obj: 2 x + 1 y \\ trailing comment\nSubject To\nEnd\n",
                     "LP line 2:", id="trailing-comment"),
        pytest.param(ROW + "\\ a whole-line comment\n c1: 1 x <= 4\nEnd\n", "LP line 4:",
                     id="comment-in-rows"),
        pytest.param("Maximize\n obj: 1 x\n\nSubject To\nEnd\n", "LP line 3:", id="blank-line"),
        # Continuation lines.
        pytest.param("Minimize\n obj: 1 x\n + 3 y\nSubject To\nEnd\n", "LP line 3:",
                     id="objective-continued"),
        pytest.param(ROW + " long: 1 x + 1 y\n   + 2 z\n   >= 1\n short: 1 z <= 1\nEnd\n",
                     "LP line 4:", id="row-continued"),
        pytest.param(ROW + " c: 1 x\n + 1 y <= 1\nEnd\n", "LP line 4:", id="row-split-before-term"),
        # Section aliases, other cases, and sections out of their order.
        pytest.param("max\n obj: 1 x\nSubject To\nEnd\n", "LP line 1:", id="max"),
        pytest.param("MAXIMIZE\n obj: 1 x\nSubject To\nEnd\n", "LP line 1:", id="MAXIMIZE"),
        pytest.param("min\n obj: 1 x\nSubject To\nEnd\n", "LP line 1:", id="min"),
        pytest.param("Maximize\n obj: 1 x\nst\n c: 1 x <= 2\nEnd\n", "LP line 3:", id="st"),
        pytest.param("Maximize\n obj: 1 x\ns.t.\n c: 1 x <= 2\nEnd\n", "LP line 3:", id="s.t."),
        pytest.param("Maximize\n obj: 1 x\nsuch that\n c: 1 x <= 2\nEnd\n", "LP line 3:",
                     id="such-that"),
        pytest.param(ROW + " c: 1 x <= 2\nbounds\n x >= 1.5\nEnd\n", "LP line 5:", id="bounds"),
        pytest.param(ROW + " c: 1 x <= 2\nbin\n x\nEnd\n", "LP line 5:", id="bin"),
        pytest.param(ROW + " c: 1 x <= 2\nend\n", "LP line 5:", id="end"),
        pytest.param(ROW + " c: 1 x <= 1\nSubject To\nEnd\n", "LP line 5:", id="repeated-header"),
        pytest.param(ROW + "Binaries\n x\nBounds\n x >= 1\nEnd\n", "LP line 6:",
                     id="binaries-before-bounds"),
        pytest.param(ROW + " c: 1 x <= 2.5\nGenerals\n x\nEnd\n", "LP line 5:", id="generals"),
        pytest.param(ROW + " c: 1 x <= 2.5\nGenerals\nEnd\n", "LP line 5:", id="empty-generals"),
        pytest.param(" obj: 1 x\nSubject To\nEnd\n", "LP line 1:", id="no-sense"),
        pytest.param(ROW + " c: 1 x <= 2\nEnd\n x\n", "LP line 6:", id="text-after-end"),
        pytest.param(ROW + " c: 1 x <= 2\n", "ends after line 4: expected End", id="no-end"),
        # Implicit, glued and extra signs, and unnamed rows.
        pytest.param("Maximize\n obj: - x + 1 y\nSubject To\nEnd\n", "LP line 2:",
                     id="implicit-coefficient"),
        pytest.param(ROW + " c: -1 x - 1 y = -2\nEnd\n", "LP line 4:", id="signed-number"),
        pytest.param(ROW + " c: + 1 x <= 2\nEnd\n", "LP line 4:", id="leading-plus"),
        pytest.param(ROW + " c: 1 x  + 1 y <= 2\nEnd\n", "LP line 4:", id="double-space"),
        pytest.param(ROW + " 1 x <= 1\nEnd\n", "LP line 4:", id="unnamed-row"),
        # Malformed terms and rows.
        pytest.param("Maximize\n obj: 1 x + 3\nSubject To\nEnd\n", "LP line 2:",
                     id="dangling-objective"),
        pytest.param(ROW + " c: 1 x + 2 <= 1\nEnd\n", "LP line 4:", id="dangling-row"),
        pytest.param("Maximize\n obj: 1 x 2\nSubject To\nEnd\n", "LP line 2: .* a term is a sign",
                     id="number-after-name"),
        pytest.param(ROW + " c: 1 x + 1 y\nEnd\n", "LP line 4:", id="no-relation"),
        pytest.param(ROW + " c: 1 x <= 1 <= 2\nEnd\n", "LP line 4:", id="two-relations"),
        pytest.param(ROW + " c: 1 x < 2\nEnd\n", "LP line 4:", id="strict-relation"),
        pytest.param(ROW + " a:b: 1 x <= 2\nEnd\n", "LP line 4:", id="colon-in-row-name"),
        pytest.param(ROW + "  c: 1 x <= 2\nEnd\n", "LP line 4:", id="space-before-row-name"),
        pytest.param(ROW + " c: 1 3x <= 2\nEnd\n", "LP line 4:", id="digit-first-name"),
        pytest.param(ROW + " c: 1 end <= 2\nEnd\n", "LP line 4:", id="keyword-name"),
        # Bounds and binaries in other forms.
        pytest.param(ROW + " c: 1 x <= 2\nBounds\n x <= 5\nEnd\n", "LP line 6:", id="upper-alone"),
        pytest.param(ROW + " c: 1 x <= 2\nBounds\n 2 >= x\nEnd\n", "LP line 6:", id="reversed"),
        pytest.param(ROW + " c: 1 x <= 2\nBounds\n 1 <= x <= 2 <= 3\nEnd\n", "LP line 6:",
                     id="bound-two-relations"),
        pytest.param(ROW + " c: 1 x <= 2\nBounds\n x\nEnd\n", "LP line 6:", id="bound-name-alone"),
        pytest.param(ROW + " c: 1 x <= 2\nBinaries\n x y\nEnd\n", "LP line 6:",
                     id="two-binaries-a-line"),
    ] + [
        # The parent reader's section-alias inputs, verbatim: a short or upper-case
        # sense stops at line 1, the implicit coefficient of " obj: x" at line 2.
        pytest.param(f"{header}\n obj: x\n{subject_to}\n c: x <= 2\n"
                     f"bounds\n x <= 1.5\nbin\n y\nend\n",
                     "LP line 2:" if header == "Minimize" else "LP line 1:",
                     id=f"alias-{subject_to}-{header}")
        for subject_to in ["st", "s.t.", "Subject To", "such that"]
        for header in ["max", "MAXIMIZE", "min", "Minimize"]
    ])
    def test_beyond_export_grammar_rejected(self, text, message):
        with pytest.raises(ModelError, match=message):
            read_lp(text)


class TestDeskRoundTrip:
    """read_lp(export_lp(m)) is m again, by variable and row name, exactly."""

    @pytest.fixture(scope="class")
    def desk(self):
        scenario = generate(190.0, 253.0, 12, 8, seed=0)
        return (scenario, build_link_tables(scenario, RadioConfig()),
                PlanningConfig(mu=0.5, budget=4.0, len_norm_m=317.0))

    @pytest.mark.parametrize("builder", [build_ris_model, build_baseline_model],
                             ids=["surface", "station-only"])
    def test_round_trip_is_exact(self, desk, builder):
        model = builder(*desk)
        assert model.num_constraints > 500
        parsed = read_lp(export_lp(model))
        assert named_model(parsed) == named_model(model)

    @pytest.mark.parametrize("builder", [build_ris_model, build_baseline_model],
                             ids=["surface", "station-only"])
    def test_second_export_is_a_fixed_point(self, desk, builder):
        # The first re-export orders variables by first appearance, so its
        # bytes may differ from the original; from then on they do not.
        t2 = export_lp(read_lp(export_lp(builder(*desk))))
        assert export_lp(read_lp(t2)) == t2


class TestLpBoundsAndKinds:
    @pytest.mark.parametrize("lower, upper, line", [
        (-math.inf, math.inf, " v free"),
        (-math.inf, 5.0, " -inf <= v <= 5"),
    ])
    def test_negative_unbounded_round_trip(self, lower, upper, line):
        m = MilpModel(name="unbounded_below")
        v = m.add_variable(("v",), CONTINUOUS, lower, upper)
        m.set_objective_coeff(v, -1.0)
        m.add_constraint("floor", {v: 1.0}, ">=", -3.0)
        text = export_lp(m)
        assert line in text.splitlines()
        parsed = read_lp(text)
        assert (parsed.variables[0].lower, parsed.variables[0].upper) == (lower, upper)
        assert solve(parsed).objective_value == pytest.approx(3.0)


class TestLpNames:
    """export_lp writes only variable names that read back as themselves."""

    @pytest.mark.parametrize("name", ["end", "End", "st", "BIN", "bounds", "min", "max",
                                      "binaries", "generals", "minimize"])
    def test_section_keyword_name_rejected(self, name):
        # Other LP readers take a section keyword alone on a line, as under
        # Binaries, for a header, and the variable would read back continuous.
        m = MilpModel(name="keyword")
        m.add_variable((name,), BINARY)
        with pytest.raises(ModelError, match=f"variable name '{name}'"):
            export_lp(m)

    @pytest.mark.parametrize("name", ["a b", "3x", "x-y", "x:y", "x\\y", ""])
    def test_non_identifier_name_rejected(self, name):
        # "a b" would read back as the two variables a and b.
        m = MilpModel(name="odd")
        m.add_variable(("ok",), CONTINUOUS)
        m.add_variable((name,), BINARY)
        with pytest.raises(ModelError, match="cannot be written in LP format"):
            export_lp(m)

    def test_names_near_keywords_round_trip(self):
        m = MilpModel(name="near")
        names = ["end_", "bins", "st2", "_max", "x_t3_c7_r12"]
        for name in names:
            m.add_variable((name,), BINARY)
        parsed = read_lp(export_lp(m))
        assert [(v.name, v.kind) for v in parsed.variables] == [(n, BINARY) for n in names]

    @pytest.mark.parametrize("name", ["a:b", "x\\y", "two\nlines", "cr\rlf", "form\x0cfeed",
                                      "sep\u2028line", " lead", "trail ", "tab\t", "nbsp\xa0"])
    def test_unreadable_row_name_rejected(self, name):
        # read_lp reads a row name up to its line's first ': ', a line at a
        # time; other LP readers cut a comment at a backslash and strip names.
        m = small_model()
        m.add_constraint(name, {0: 1.0}, "<=", 1.0)
        with pytest.raises(ModelError, match=re.escape(f"row name {name!r} cannot be written")):
            export_lp(m)

    def test_odd_row_names_round_trip(self):
        m = small_model()
        names = ["a b", "x=y", "<=", "end", "0", "", "caf\xe9"]
        for i, name in enumerate(names):
            m.add_constraint(name, {0: 1.0}, "<=", float(i))
        parsed = read_lp(export_lp(m))
        assert [c.name for c in parsed.constraints] == ["pick_one", "cap", *names]
        assert [c.rhs for c in parsed.constraints][2:] == list(range(len(names)))


def model_arrays(m: MilpModel):
    """Everything a model holds, as lists and array bytes."""
    binary, lower, upper = m.columns()
    return (m.objective_sense, m.names(), m.keys(), [c.name for c in m.constraints],
            *(a.tobytes() for a in (*m.csr(), binary, lower, upper, *m.row_bounds())),
            list(m.objective.items()))


class TestLpBlocks:
    """export_lp and read_lp work a block of rows at a time. The block
    sizes change neither the text nor the model read back, and
    what either function holds beyond its result stays a small multiple
    of the text's length."""

    @pytest.fixture(scope="class")
    def desk_model(self):
        scenario = generate(190.0, 253.0, 12, 8, seed=0)
        return build_ris_model(scenario, build_link_tables(scenario, RadioConfig()),
                               PlanningConfig(mu=0.5, budget=4.0, len_norm_m=317.0))

    def test_block_sizes_change_nothing(self, desk_model, monkeypatch):
        text = export_lp(desk_model)
        parsed = model_arrays(read_lp(text))
        for name, size in (("_WRITE_ROWS", 7), ("_BLOCK_CHARS", 300)):
            monkeypatch.setattr(milp, name, size)
        assert export_lp(desk_model) == text
        assert model_arrays(read_lp(text)) == parsed
        # Windows line ends.
        assert model_arrays(read_lp(text.replace("\n", "\r\n"))) == parsed

    @pytest.mark.parametrize("block_chars", [300, milp._BLOCK_CHARS])
    def test_bad_line_named_in_any_block(self, desk_model, monkeypatch, block_chars):
        monkeypatch.setattr(milp, "_BLOCK_CHARS", block_chars)
        lines = export_lp(desk_model).splitlines(keepends=True)
        for number in (700, len(lines) - 2):
            bad = lines.copy()
            bad[number - 1] = bad[number - 1].replace(" ", "  ", 2)
            with pytest.raises(ModelError, match=f"LP line {number}:"):
                read_lp("".join(bad))

    # Whole-text versions of the two functions measured about 3.5 (export)
    # and 7.0 (read) on this model, the row-block ones about 1.3 and 1.6.
    TRANSIENT_PER_CHAR = 2.5

    def test_transient_memory_bounded(self):
        scenario = generate(300.0, 400.0, 25, 15, seed=0)
        model = build_ris_model(scenario, build_link_tables(scenario, RadioConfig()),
                                PlanningConfig())
        model.csr(), model.row_bounds()     # join the builder's blocks first
        tracemalloc.start()
        try:
            text = export_lp(model)
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            parsed = read_lp(text)
            read_held, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed.num_nonzeros == model.num_nonzeros
        assert (peak - held) / len(text) < self.TRANSIENT_PER_CHAR
        assert (read_peak - read_held) / len(text) < self.TRANSIENT_PER_CHAR
