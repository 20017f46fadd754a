"""Solver-agnostic mixed-integer linear program container.

Variables are declared with structured keys (tuples such as
("x", t, c, r)) and stable human-readable names, so models, solutions and
exported LP files can all be navigated by the same identifiers. The LP
writer emits a deterministic byte stream; ``read_lp`` parses the dialect
``export_lp`` produces, which gives external solvers a file-based path
in and out.

The dialect: sections start at a line holding only ``Maximize``/``max``,
``Minimize``/``min``, ``Subject To``/``such that``/``st``/``s.t.``,
``Bounds``, ``Binaries``/``binary``/``bin``, ``Generals``/``general`` or
``End``, in any case. A backslash starts a comment that runs to the end
of the line. A row is ``name: terms relation rhs`` with the relation
``<=``, ``>=`` or ``=``; a line without a colon continues the row before
it, and only the first row may go without a name (it is then called
``c0``). A term is an optional sign, an optional coefficient and a name,
so ``x - y`` has the implicit coefficients 1 and -1; a name repeated in
one row has its terms added up. Bounds are ``x <= 5``, ``5 >= x``,
``x >= -2``, ``lo <= x <= hi`` (``-inf`` and ``inf`` allowed) or
``x free``. A ``Generals`` section that names a variable is rejected,
since a model has no integer kind. ``export_lp`` writes a variable with
no lower bound as ``x free`` or ``-inf <= x <= hi``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice

BINARY = "binary"
CONTINUOUS = "continuous"

_SENSES = ("<=", ">=", "=")

VarKey = tuple


class ModelError(ValueError):
    """Inconsistent model construction or lookup."""


@dataclass
class Variable:
    name: str
    kind: str
    lower: float
    upper: float


@dataclass
class Constraint:
    name: str
    coeffs: dict[int, float]
    sense: str
    rhs: float


class MilpModel:
    """A linear objective, linear constraints, and typed bounded variables.

    The index map is total and bidirectional: every variable has a key,
    every key resolves to exactly one variable id, and names are unique.
    """

    def __init__(self, name: str = "model", sense: str = "maximize"):
        if sense not in ("maximize", "minimize"):
            raise ModelError(f"unknown objective sense {sense!r}")
        self.name = name
        self.objective_sense = sense
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: dict[int, float] = {}
        self._key_to_id: dict[VarKey, int] = {}
        self._id_to_key: list[VarKey] = []
        self._name_to_id: dict[str, int] = {}

    # -- variables ---------------------------------------------------

    def add_variable(self, key: VarKey, kind: str,
                     lower: float = 0.0, upper: float = math.inf,
                     name: str | None = None) -> int:
        if kind not in (BINARY, CONTINUOUS):
            raise ModelError(f"unknown variable kind {kind!r}")
        if key in self._key_to_id:
            raise ModelError(f"duplicate variable key {key!r}")
        if kind == BINARY:
            lower, upper = 0.0, 1.0
        if lower > upper:
            raise ModelError(f"empty bounds [{lower}, {upper}] for {key!r}")
        if name is None:
            name = "_".join(str(part) for part in key)
        if name in self._name_to_id:
            raise ModelError(f"duplicate variable name {name!r}")
        var_id = len(self.variables)
        self.variables.append(Variable(name=name, kind=kind, lower=lower, upper=upper))
        self._key_to_id[key] = var_id
        self._id_to_key.append(key)
        self._name_to_id[name] = var_id
        return var_id

    def var_id(self, key: VarKey) -> int:
        try:
            return self._key_to_id[key]
        except KeyError:
            raise ModelError(f"unknown variable key {key!r}") from None

    def has_var(self, key: VarKey) -> bool:
        return key in self._key_to_id

    def key_of(self, var_id: int) -> VarKey:
        return self._id_to_key[var_id]

    def name_of(self, var_id: int) -> str:
        return self.variables[var_id].name

    def id_of_name(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise ModelError(f"unknown variable name {name!r}") from None

    def keys(self) -> list[VarKey]:
        return list(self._id_to_key)

    # -- constraints and objective ------------------------------------

    def add_constraint(self, name: str, coeffs: dict[int, float],
                       sense: str, rhs: float) -> None:
        if sense not in _SENSES:
            raise ModelError(f"unknown constraint sense {sense!r}")
        n = len(self.variables)
        if coeffs and (min(coeffs) < 0 or max(coeffs) >= n):
            var_id = next(v for v in coeffs if not 0 <= v < n)
            raise ModelError(f"constraint {name!r} references unknown variable {var_id}")
        self.constraints.append(Constraint(name, dict(coeffs), sense, float(rhs)))

    def set_objective_coeff(self, var_id: int, coeff: float) -> None:
        if not 0 <= var_id < len(self.variables):
            raise ModelError(f"objective references unknown variable {var_id}")
        if coeff == 0.0:
            self.objective.pop(var_id, None)
        else:
            self.objective[var_id] = float(coeff)

    def evaluate_objective(self, values: dict[str, float]) -> float:
        return sum(c * values[self.variables[i].name] for i, c in self.objective.items())

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def constraints_named(self, prefix: str) -> list[Constraint]:
        return [c for c in self.constraints if c.name.startswith(prefix)]


# -- LP format ---------------------------------------------------------


def _fmt(value: float) -> str:
    if value == math.floor(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".17g")


def _signed_term(coef: float) -> str:
    """The text before a term's name: "+ 3 " or "- 2.5 "."""
    return f"+ {_fmt(coef)} " if coef >= 0 else f"- {_fmt(-coef)} "


def _coef_value(text: str) -> float:
    """The value of the text before a term's name: " - 2.5 ", "+", "3", ""."""
    match = _COEF_RE.fullmatch(text)
    if match is None:
        raise ModelError(f"cannot parse coefficient {text.strip()!r}")
    sign, number = match.groups()
    value = float(number) if number else 1.0
    return 0.0 - value if sign == "-" else value


class _Memo(dict):
    """Maps a key to ``func(key)``, computing each distinct key once."""

    def __init__(self, func):
        super().__init__()
        self._func = func

    def __missing__(self, key):
        value = self[key] = self._func(key)
        return value


def export_lp(model: MilpModel) -> str:
    """Serialize to LP format, deterministically (same model, same bytes).

    Variables appear in declaration order inside each section; empty
    constraints are written with an explicit zero term so the row (and its
    possible infeasibility) survives the round trip.
    """
    names = [var.name for var in model.variables]
    fmt = _Memo(_fmt)
    term = _Memo(_signed_term)
    anchor = f"0 {names[0]}" if names else "0 dummy"

    def terms(coeffs: dict[int, float]) -> str:
        body = " ".join([term[coef] + names[var_id]
                         for var_id, coef in sorted(coeffs.items()) if coef != 0.0])
        return body[2:] if body.startswith("+") else body or anchor

    lines: list[str] = [f"\\ {model.name}",
                        "Maximize" if model.objective_sense == "maximize" else "Minimize",
                        f" obj: {terms(model.objective)}",
                        "Subject To"]
    lines += [f" {con.name}: {terms(con.coeffs)} {con.sense} {fmt[con.rhs]}"
              for con in model.constraints]
    bounds: list[str] = []
    for var in model.variables:
        if var.kind == BINARY or (var.lower == 0.0 and var.upper == math.inf):
            continue
        if var.lower == -math.inf and var.upper == math.inf:
            bounds.append(f" {var.name} free")
        elif var.upper == math.inf:
            bounds.append(f" {var.name} >= {fmt[var.lower]}")
        elif var.lower == -math.inf:
            bounds.append(f" -inf <= {var.name} <= {fmt[var.upper]}")
        else:
            bounds.append(f" {fmt[var.lower]} <= {var.name} <= {fmt[var.upper]}")
    if bounds:
        lines.append("Bounds")
        lines += bounds
    binaries = [f" {var.name}" for var in model.variables if var.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        lines += binaries
    lines.append("End")
    return "\n".join(lines) + "\n"


_SECTIONS = {"maximize": "maximize", "max": "maximize",
             "minimize": "minimize", "min": "minimize",
             "subject to": "constraints", "such that": "constraints",
             "st": "constraints", "s.t.": "constraints", "bounds": "bounds",
             "binaries": "binaries", "binary": "binaries", "bin": "binaries",
             "generals": "generals", "general": "generals", "end": "end"}
_LONGEST_KEYWORD = max(map(len, _SECTIONS))

_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# The text before a term's name. Newlines, which separate expressions
# parsed together, may only lead it.
_COEF_RE = re.compile(rf"\s*([+-]?)[^\S\n]*({_NUMBER})?[^\S\n]*")
# A term is the text before a name, then the name: " - 2.5e-3 y". That
# text, the sign and the coefficient, runs up to the first letter that
# does not continue a number's exponent; _coef_value checks it.
_TERM_RE = re.compile(
    r"([^A-Za-z_]*(?:(?<=[\d.])[eE][+-]?\d+[^A-Za-z_]*)?)([A-Za-z_][A-Za-z0-9_]*)")
_DANGLING_RE = re.compile(rf"{_NUMBER}\s*$")
_REL_RE = re.compile(r"(<=|>=|=)")
_RELATIONS = {"<": "<=", ">": ">="}
# Constraint records parsed together: enough to spread the cost of each
# pass over many rows, few enough to keep the transient lists small.
_CHUNK_ROWS = 256


class _Declare(dict):
    """Maps a variable name to its id; a name seen for the first time is
    declared, binary if it is listed in the Binaries section."""

    def __init__(self, model: MilpModel, binaries: set[str]):
        super().__init__()
        self._model = model
        self._binaries = binaries

    def __missing__(self, name: str) -> int:
        kind = BINARY if name in self._binaries else CONTINUOUS
        var_id = self[name] = self._model.add_variable((name,), kind, name=name)
        return var_id


def _parse_terms(expressions: list[str], ids: _Declare,
                 coef_of: _Memo) -> tuple[list[int], list[float], list[int]]:
    """Parse expressions such as "3 x - 2.5e-3 y + z", all in one pass.

    Returns the variable ids and the coefficients of all their terms, in
    order, and the index of each expression's first term followed by the
    number of terms.
    """
    text = "\n".join(expressions)
    # [text between terms (always empty), coefficient, name, ..., the rest]
    pieces = _TERM_RE.split(text)
    coefs, names = pieces[1::3], pieces[2::3]
    try:
        values = list(map(coef_of.__getitem__, coefs))
        complete = not pieces[-1].strip()
    except ModelError:
        complete = False
    if not complete:
        if len(expressions) > 1:
            for expression in expressions:  # raise for the first bad one
                _parse_terms([expression], ids, coef_of)
        if _DANGLING_RE.search(text):
            raise ModelError(f"dangling coefficient in expression {text!r}")
        raise ModelError(f"cannot parse expression {text!r}")
    var_ids = list(map(ids.__getitem__, names))
    # A newline before a term's coefficient marks the start of an
    # expression; two mark an empty expression before it.
    firsts = [i for i, coef in enumerate(coefs) if "\n" in coef]
    if len(firsts) == len(expressions) - 1:  # no expression is empty
        return var_ids, values, [0, *firsts, len(var_ids)]
    starts = [0]
    for index in firsts:
        starts += [index] * coefs[index].count("\n")
    starts += [len(var_ids)] * (len(expressions) + 1 - len(starts))
    return var_ids, values, starts


def read_lp(text: str) -> MilpModel:
    """Parse the LP dialect produced by ``export_lp``.

    Variable keys in the returned model are singleton tuples of the name;
    structural keys are not recoverable from a flat file. Variables are
    declared in order of first appearance. See the module docstring for
    the accepted dialect.
    """
    lines = text.splitlines()
    if "\\" in text:
        lines = [line.partition("\\")[0] if "\\" in line else line for line in lines]
    # A section header is a line holding only one of the section keywords.
    heads = [i for i, line in enumerate(lines)
             if len(head := line.strip()) <= _LONGEST_KEYWORD and head.lower() in _SECTIONS]
    bodies: dict[str, list[str]] = {section: [] for section in (
        "objective", "constraints", "bounds", "binaries", "generals", "end")}
    sense = "maximize"
    for head, stop in zip(heads, heads[1:] + [len(lines)]):
        section = _SECTIONS[lines[head].strip().lower()]
        if section in ("maximize", "minimize"):
            sense, section = section, "objective"
        bodies[section] += lines[head + 1:stop]

    generals = " ".join(bodies["generals"]).split()
    if generals:
        raise ModelError(f"integer variable {generals[0]!r} in a Generals section: "
                         f"only binary and continuous variables are supported")
    binary_names = " ".join(bodies["binaries"]).split()
    model = MilpModel(name="lp_import", sense=sense)
    ids = _Declare(model, set(binary_names))
    coef_of = _Memo(_coef_value)

    obj_body = " ".join(" ".join(bodies["objective"]).split())
    if ":" in obj_body:
        obj_body = obj_body.split(":", 1)[1]
    var_ids, coefs, _ = _parse_terms([obj_body], ids, coef_of)
    for var_id, coef in zip(var_ids, coefs):
        model.set_objective_coeff(var_id, model.objective.get(var_id, 0.0) + coef)

    # A line with a row name starts a record; any other line continues it.
    records: list[str] = []
    for line in bodies["constraints"]:
        if ":" in line:
            records.append(line)
        elif line.strip():
            if records:
                records[-1] += " " + line.strip()
            else:
                records.append(line)
    constraints = model.constraints
    for first in range(0, len(records), _CHUNK_ROWS):
        names, lhs_rows, rels, rhs_texts = [], [], [], []
        for record in records[first:first + _CHUNK_ROWS]:
            cname, colon, body = record.partition(":")
            if colon:
                cname = cname.strip()
            else:
                cname, body = f"c{first + len(names)}", record
            lhs, equals, rhs = body.partition("=")
            if not equals or "=" in rhs:
                raise ModelError(f"cannot parse constraint {record.strip()!r}")
            rel = _RELATIONS.get(lhs[-1:], "=")
            names.append(cname)
            lhs_rows.append(lhs[:-1] if rel != "=" else lhs)
            rels.append(rel)
            rhs_texts.append(rhs)
        var_ids, coefs, starts = _parse_terms(lhs_rows, ids, coef_of)
        terms = zip(var_ids, coefs)
        for cname, rel, rhs, start, stop in zip(names, rels, rhs_texts, starts, starts[1:]):
            coeffs = dict(islice(terms, stop - start))
            if len(coeffs) != stop - start:  # a repeated name: add its terms up
                coeffs = {}
                for var_id, coef in zip(var_ids[start:stop], coefs[start:stop]):
                    coeffs[var_id] = coeffs.get(var_id, 0.0) + coef
            constraints.append(Constraint(cname, coeffs, rel, float(rhs)))

    for record in bodies["bounds"]:
        record = record.strip()
        if not record:
            continue
        if record.lower().endswith(" free"):
            var = model.variables[ids[record[: -len(" free")].strip()]]
            var.lower, var.upper = -math.inf, math.inf
            continue
        pieces = _REL_RE.split(record)
        if len(pieces) == 5:  # lo <= x <= hi
            lo, _, name, _, hi = (p.strip() for p in pieces)
            var = model.variables[ids[name]]
            var.lower, var.upper = float(lo), float(hi)
        elif len(pieces) == 3:
            left, rel, right = (p.strip() for p in pieces)
            try:
                value = float(right)
                name, bound_is_upper = left, rel == "<="
            except ValueError:
                value = float(left)
                name, bound_is_upper = right, rel == ">="
            var = model.variables[ids[name]]
            if bound_is_upper:
                var.upper = value
            else:
                var.lower = value
        else:
            raise ModelError(f"cannot parse bound {record!r}")

    for name in binary_names:
        ids[name]  # declares binaries that appear in no row
    return model
