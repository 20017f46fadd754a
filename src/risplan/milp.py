"""Solver-agnostic mixed-integer linear program container: a columnar store.

Variables are columns (names, kind codes, lower and upper bounds), each
with a structured key such as ("x", t, c, r) and a unique name; keys, ids
and names map to one another, so models, solutions and LP files share
identifiers. A variable declared by name alone has the key ``(name,)``,
which is derived from its name rather than stored. Rows are columns too
(names, sense codes, right-hand sides), with their coefficients in CSR
arrays: ``indptr`` (int64), ``indices`` (variable ids, int32) and
``data``. Builders append a whole family with ``add_variables`` or
``add_rows``; ``add_variable`` and ``add_constraint`` wrap one item. A
block is checked before anything is stored, so a bad one raises
ModelError and leaves the model unchanged. Coefficients and right-hand
sides must be finite; bounds may be infinite but must admit a value, so
a NaN bound, a lower bound of +inf or an upper bound of -inf is empty. A
row keeps its entries in variable id order, adds up the coefficients of
a repeated variable and keeps explicit zeros. ``variables`` and
``constraints`` are read-only sequences of views built on access. A row
view's ``coeffs`` is not a copy: it is a read-only mapping that holds
the model's joined CSR arrays and the row's place in them, and no arrays
of its own. So a held view keeps those arrays alive, as they were when
it was taken.
The LP writer emits a deterministic byte stream; ``read_lp`` parses the
dialect ``export_lp`` produces, which gives external solvers a file-based
path in and out. Both work a block of rows at a time: besides the text
and the model, they hold a few blocks, not the whole text in pieces.
``read_lp(export_lp(m))`` is ``m`` again by variable and row name, but its
variables come in order of first appearance, so the first re-export's
bytes may differ from the original text; the text of that re-export is a
fixed point of ``export_lp(read_lp(...))``.

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

import itertools
import math
import operator
import re
from collections import defaultdict, namedtuple
from collections.abc import ItemsView, Mapping, Sequence

import numpy as np

BINARY = "binary"
CONTINUOUS = "continuous"

_KINDS = (CONTINUOUS, BINARY)       # a kind's code is its place here
_SENSES = ("<=", ">=", "=")         # and so is a sense's

VarKey = tuple
# Read-only views of one variable and one row, built on access.
Variable = namedtuple("Variable", "name kind lower upper")
Constraint = namedtuple("Constraint", "name coeffs sense rhs")


class ModelError(ValueError):
    """Inconsistent model construction or lookup."""


def _per_item(values, n: int, what: str, table: tuple[str, ...] = ()) -> np.ndarray:
    """One value for all n items or one per item, as a new array: floats,
    or with a table, the codes (places in the table) of its strings."""
    if table:
        named = [values] if isinstance(values, str) else values
        if bad := [v for v in named if v not in table]:
            raise ModelError(f"unknown {what} {bad[0]!r}")
        values = [table.index(v) for v in named]
    try:
        return np.array(np.broadcast_to(np.asarray(values, np.int8 if table else float), (n,)))
    except ValueError:
        raise ModelError(f"{np.size(values)} {what}s for a block of {n}") from None


def _joined(column: list[np.ndarray]) -> np.ndarray:
    """A column stored as appended blocks, joined into its one block."""
    if len(column) > 1:
        column[:] = [np.concatenate(column)]
    return column[0]


class _RowCoeffs(Mapping):
    """A row's coefficients by variable id, in variable id order: a
    read-only mapping over the CSR arrays ``(indptr, indices, data)`` of a
    model and the row's place in them, not over the model. ``_ids`` and
    ``_values`` are the row's read-only slices of ``indices`` and ``data``."""

    __slots__ = ("_csr", "_row")

    def __init__(self, csr: tuple[np.ndarray, np.ndarray, np.ndarray], row: int):
        self._csr, self._row = csr, row

    def _slices(self) -> tuple[np.ndarray, np.ndarray]:
        indptr, indices, data = self._csr
        at = slice(indptr[self._row], indptr[self._row + 1])
        ids, values = indices[at], data[at]
        ids.setflags(write=False)
        values.setflags(write=False)
        return ids, values

    _ids = property(lambda self: self._slices()[0])
    _values = property(lambda self: self._slices()[1])

    def __len__(self) -> int:
        indptr = self._csr[0]
        return int(indptr[self._row + 1] - indptr[self._row])

    def __iter__(self):
        return iter(self._ids.tolist())

    def __getitem__(self, var_id) -> float:
        ids, values = self._slices()
        try:
            at = ids.searchsorted(operator.index(var_id))
        except (TypeError, OverflowError):
            raise KeyError(var_id) from None
        if at == len(ids) or ids[at] != var_id:
            raise KeyError(var_id)
        return float(values[at])

    def items(self):
        return _RowItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _RowItems(ItemsView):
    """A row's items from the lists of its two slices, not a lookup per key."""

    __slots__ = ()

    def __iter__(self):
        ids, values = self._mapping._slices()
        return zip(ids.tolist(), values.tolist())


class _Views(Sequence):
    """A read-only sequence of views, as long as the live list of names."""

    def __init__(self, names: list[str], view):
        self._names, self._view = names, view

    def __len__(self) -> int:
        return len(self._names)

    def __getitem__(self, index):
        return self._view(range(len(self._names))[operator.index(index)])


class MilpModel:
    """A linear objective, linear constraints, and typed bounded variables.

    The index map is total and bidirectional: every variable has a key,
    every key resolves to exactly one variable id, and names are unique.
    """

    def __init__(self, name: str = "model", sense: str = "maximize"):
        if sense not in ("maximize", "minimize"):
            raise ModelError(f"unknown objective sense {sense!r}")
        self.name, self.objective_sense = name, sense
        self.objective: dict[int, float] = {}
        # By variable id; a variable declared by name has the key None here
        # and no entry in _key_to_id.
        self._names, self._id_to_key = [], []
        self._key_to_id, self._name_to_id = {}, {}    # key to id, name to id
        self._row_names: list[str] = []
        # Columns, each a list of blocks (see _joined).
        self._kind, self._sense = [np.zeros(0, np.int8)], [np.zeros(0, np.int8)]
        self._lower, self._upper, self._rhs, self._data = ([np.zeros(0)] for _ in range(4))
        self._indptr, self._indices = [np.zeros(1, np.int64)], [np.zeros(0, np.int32)]
        self._csr = None        # the joined CSR arrays, until add_rows appends
        self._nnz = 0

    # Views are made per access: a model that held them would be in a
    # reference cycle, freed only by the cyclic collector. A row view holds
    # the joined CSR arrays, not the model, and add_rows joins new arrays
    # rather than writing to those.
    variables = property(lambda self: _Views(self._names, self._variable))
    constraints = property(lambda self: _Views(self._row_names, self._constraint))

    def _variable(self, i: int) -> Variable:
        return Variable(self._names[i], _KINDS[_joined(self._kind)[i]],
                        float(_joined(self._lower)[i]), float(_joined(self._upper)[i]))

    def _constraint(self, i: int) -> Constraint:
        return Constraint(self._row_names[i], _RowCoeffs(self.csr(), i),
                          _SENSES[_joined(self._sense)[i]], float(_joined(self._rhs)[i]))

    # -- variables ---------------------------------------------------

    def add_variables(self, keys, names, kind, lower=0.0, upper=math.inf) -> np.ndarray:
        """Declare a block of variables and return their ids. ``kind``,
        ``lower`` and ``upper`` are one value for all or one per variable;
        binaries get the bounds [0, 1]. With ``keys`` None, each variable's
        key is ``(name,)``, derived from its name and not stored."""
        names = list(names)
        n, start = len(names), len(self._names)
        keys = None if keys is None else list(keys)
        if keys is not None and len(keys) != n:
            raise ModelError(f"{n} names for {len(keys)} variable keys")
        codes = _per_item(kind, n, "variable kind", _KINDS)
        lower = np.where(codes == 1, 0.0, _per_item(lower, n, "lower bound"))
        upper = np.where(codes == 1, 1.0, _per_item(upper, n, "upper bound"))
        if (i := _empty_bounds(lower, upper)) is not None:
            key = (names[i],) if keys is None else keys[i]
            raise ModelError(f"empty bounds [{lower[i]}, {upper[i]}] for {key!r}")
        ids = range(start, start + n)
        new_keys = {} if keys is None else dict(zip(keys, ids))
        if keys is None:    # a name given twice is reported below, as a name
            clash = bool(self._key_to_id) and not self._key_to_id.keys().isdisjoint(zip(names))
        else:               # fewer stored keys than variables: some are keyed by name
            clash = (len(new_keys) != n or not self._key_to_id.keys().isdisjoint(new_keys)
                     or (start > len(self._key_to_id)
                         and any(self._named_id(key) is not None for key in new_keys)))
        if clash:
            seen = set()
            twice = next(key for key in (zip(names) if keys is None else keys)
                         if self.has_var(key) or key in seen or seen.add(key))
            raise ModelError(f"duplicate variable key {twice!r}")
        new_names = dict(zip(names, ids))
        if len(new_names) != n or not self._name_to_id.keys().isdisjoint(new_names):
            seen = set(self._name_to_id)
            twice = next(name for name in names if name in seen or seen.add(name))
            raise ModelError(f"duplicate variable name {twice!r}")
        self._key_to_id.update(new_keys)
        self._name_to_id.update(new_names)
        self._names += names
        self._id_to_key += itertools.repeat(None, n) if keys is None else keys
        for column, block in ((self._kind, codes), (self._lower, lower), (self._upper, upper)):
            column.append(block)
        return np.arange(start, start + n)

    def add_variable(self, key: VarKey, kind: str, lower: float = 0.0,
                     upper: float = math.inf, name: str | None = None) -> int:
        name = "_".join(str(part) for part in key) if name is None else name
        return int(self.add_variables([key], [name], kind, lower, upper)[0])

    def _named_id(self, key) -> int | None:
        """The id of the variable declared by name whose key is ``key``."""
        if type(key) is tuple and len(key) == 1:
            var_id = self._name_to_id.get(key[0])
            if var_id is not None and self._id_to_key[var_id] is None:
                return var_id
        return None

    def var_id(self, key: VarKey) -> int:
        var_id = self._key_to_id.get(key)
        if var_id is None:
            var_id = self._named_id(key)
        if var_id is None:
            raise ModelError(f"unknown variable key {key!r}")
        return var_id

    def has_var(self, key: VarKey) -> bool:
        return key in self._key_to_id or self._named_id(key) is not None

    def key_of(self, var_id: int) -> VarKey:
        key = self._id_to_key[var_id]
        return (self._names[var_id],) if key is None else key

    def name_of(self, var_id: int) -> str:
        return self._names[var_id]

    def id_of_name(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise ModelError(f"unknown variable name {name!r}") from None

    def keys(self) -> list[VarKey]:
        return [(name,) if key is None else key
                for key, name in zip(self._id_to_key, self._names)]

    def names(self) -> list[str]:
        return list(self._names)

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the variable columns: binary flags, lower and upper bounds."""
        return _joined(self._kind) == 1, _joined(self._lower).copy(), _joined(self._upper).copy()

    # -- constraints and objective ------------------------------------

    def add_rows(self, names, senses, rhs, indptr, indices, data) -> None:
        """Append a block of rows; row i holds the variable ids ``indices[indptr[i]:
        indptr[i + 1]]`` with the coefficients at the same places of ``data``.
        ``senses`` and ``rhs`` are one value for all or one per row. The ids
        are checked against the variable count and stored as int32."""
        names = list(names)
        m = len(names)
        codes = _per_item(senses, m, "constraint sense", _SENSES)
        rhs, data = _per_item(rhs, m, "rhs value"), np.array(data, np.float64)
        indptr, indices = np.asarray(indptr, np.int64), np.asarray(indices, np.int64)
        if (indptr.shape != (m + 1,) or indptr[0] != 0 or (np.diff(indptr) < 0).any()
                or not indptr[-1] == len(indices) == len(data)):
            raise ModelError(f"ragged block: {m} rows, indptr of length {len(indptr)}, "
                             f"{len(indices)} variable ids, {len(data)} coefficients")
        unknown = (indices < 0) | (indices >= len(self._names))
        bad = unknown | ~np.isfinite(data)
        if bad.any():
            at = int(np.argmax(bad))
            row = names[int(np.searchsorted(indptr, at, side="right")) - 1]
            raise ModelError(f"constraint {row!r} references unknown variable {indices[at]}"
                             if unknown[at] else
                             f"constraint {row!r} has the non-finite coefficient {data[at]}")
        if not np.isfinite(rhs).all():
            i = int(np.argmax(~np.isfinite(rhs)))
            raise ModelError(f"constraint {names[i]!r} has the non-finite rhs {rhs[i]}")
        indptr, indices, data = _sorted_rows(indptr, indices.astype(np.int32), data)
        self._row_names += names
        for column, block in ((self._sense, codes), (self._rhs, rhs), (self._indices, indices),
                              (self._indptr, indptr[1:] + self._nnz), (self._data, data)):
            column.append(block)
        self._nnz += len(indices)
        self._csr = None

    def add_constraint(self, name: str, coeffs: dict[int, float],
                       sense: str, rhs: float) -> None:
        self.add_rows([name], sense, rhs, [0, len(coeffs)], list(coeffs), list(coeffs.values()))

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coefficient matrix: (indptr, indices, data), with int64
        ``indptr`` and int32 ``indices``."""
        if self._csr is None:
            self._csr = _joined(self._indptr), _joined(self._indices), _joined(self._data)
        return self._csr

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's lower and upper activity bound, from its sense and rhs."""
        sense, rhs = _joined(self._sense), _joined(self._rhs)
        return np.where(sense == 0, -np.inf, rhs), np.where(sense == 1, np.inf, rhs)

    def set_objective_coeff(self, var_id: int, coeff: float) -> None:
        if not 0 <= var_id < len(self._names):
            raise ModelError(f"objective references unknown variable {var_id}")
        if not math.isfinite(coeff):
            raise ModelError(f"non-finite objective coefficient {coeff} for variable {var_id}")
        if coeff == 0.0:
            self.objective.pop(var_id, None)
        else:
            self.objective[var_id] = float(coeff)

    def evaluate_objective(self, values: dict[str, float]) -> float:
        return sum(c * values[self._names[i]] for i, c in self.objective.items())

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def num_constraints(self) -> int:
        return len(self._row_names)

    @property
    def num_nonzeros(self) -> int:
        """Stored coefficients, explicit zeros included."""
        return self._nnz

    def constraints_named(self, prefix: str) -> list[Constraint]:
        return [self._constraint(i) for i, name in enumerate(self._row_names)
                if name.startswith(prefix)]


def _empty_bounds(lower: np.ndarray, upper: np.ndarray) -> int | None:
    """The first variable whose bounds admit no value, or None: lower above
    upper, a NaN bound, a lower bound of +inf or an upper bound of -inf."""
    empty = ~(lower <= upper) | (lower == math.inf) | (upper == -math.inf)
    return int(np.argmax(empty)) if empty.any() else None


def _sorted_rows(indptr, indices, data):
    """The rows with their entries in variable id order, a repeated id
    once with its coefficients added up in the order given."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    same_row = rows[1:] == rows[:-1]
    if not (indices[1:][same_row] <= indices[:-1][same_row]).any():
        return indptr, indices, data
    order = np.lexsort((indices, rows))
    rows, indices, data = rows[order], indices[order], data[order]
    firsts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]) | (indices[1:] != indices[:-1])])
    rows, indices, data = rows[firsts], indices[firsts], np.add.reduceat(data, firsts)
    return np.r_[0, np.cumsum(np.bincount(rows, minlength=len(indptr) - 1))], indices, data


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


def _rows_text(var_names: np.ndarray, anchor: str, row_names: list[str], indptr: np.ndarray,
               indices: np.ndarray, data: np.ndarray, tails: np.ndarray) -> str:
    """Rows as LP text, one a line: " name: terms" and the row's tail. Terms
    are in variable id order, zeros left out, an empty row gets the anchor.
    The text is joined from shared pieces; each coefficient is formatted once."""
    keep = data != 0.0
    kept_ptr = np.r_[0, np.cumsum(keep)][indptr]
    counts = np.diff(kept_ptr)
    values, which = np.unique(data[keep], return_inverse=True)
    pieces = []
    for term in map(_signed_term, values.tolist()):   # later and first term of a row
        pieces += [f" {term}", f": {term[2:] if term[0] == '+' else term}"]
    sizes = 3 + 2 * counts + (counts == 0)
    starts = np.r_[0, np.cumsum(sizes)]
    tokens = np.empty(starts[-1], dtype=object)
    tokens[starts[:-1]] = " "
    tokens[starts[:-1] + 1] = np.array(row_names, dtype=object)
    tokens[starts[1:] - 1] = tails
    tokens[starts[:-1][counts == 0] + 2] = f": {anchor}"
    row = np.repeat(np.arange(len(counts)), counts)
    local = np.arange(len(row)) - kept_ptr[row]
    at = starts[row] + 2 + 2 * local
    tokens[at] = np.array(pieces, dtype=object)[2 * which + (local == 0)]
    tokens[at + 1] = var_names[indices[keep]]
    return "".join(tokens.tolist())


def export_lp(model: MilpModel) -> str:
    """Serialize to LP format, deterministically (same model, same bytes).

    Variables appear in declaration order inside each section; empty
    constraints are written with an explicit zero term so the row (and its
    possible infeasibility) survives the round trip. A variable name must
    read back as itself: letters, digits and underscores, not starting
    with a digit, and not a section keyword; a row name must too: no ':',
    '\\' or line break, and no whitespace at either end (ModelError
    otherwise). Rows are formatted a block of ``_WRITE_ROWS`` at a time.
    """
    if not (all(map(_NAME_RE.fullmatch, model._names))
            and _SECTIONS.keys().isdisjoint(map(str.lower, model._names))):
        bad = next(name for name in model._names
                   if not _NAME_RE.fullmatch(name) or name.lower() in _SECTIONS)
        raise ModelError(f"variable name {bad!r} cannot be written in LP format: a name "
                         f"is letters, digits and underscores, not starting with a "
                         f"digit, and not a section keyword")
    # read_lp splits a record at its first ':', cuts comments at '\\', and
    # splits and strips lines.
    bad = next((name for name in model._row_names if ":" in name or "\\" in name
                or name != name.strip() or len(name.splitlines()) > 1), None)
    if bad is not None:
        raise ModelError(f"row name {bad!r} cannot be written in LP format: a row name "
                         f"holds no ':', '\\' or line break and no whitespace at either end")
    names = np.array(model._names, dtype=object)
    anchor = f"0 {names[0]}" if len(names) else "0 dummy"
    order = sorted(model.objective)
    obj_text = _rows_text(names, anchor, ["obj"], np.array([0, len(order)]), np.array(
        order, np.int64), np.array([model.objective[i] for i in order], float), ["\n"])
    text = [f"\\ {model.name}\n", "Maximize\n" if model.objective_sense == "maximize"
            else "Minimize\n", obj_text, "Subject To\n"]
    rhs, which = np.unique(_joined(model._rhs), return_inverse=True)
    tails = np.array([f" {sense} {_fmt(value)}\n" for value in rhs.tolist() for sense in _SENSES],
                     dtype=object)
    tail_of = 3 * which + _joined(model._sense)
    indptr, indices, data = model.csr()
    for first in range(0, model.num_constraints, _WRITE_ROWS):
        rows = slice(first, first + _WRITE_ROWS)
        ptr = indptr[first:first + _WRITE_ROWS + 1]
        terms = slice(ptr[0], ptr[-1])
        text.append(_rows_text(names, anchor, model._row_names[rows], ptr - ptr[0],
                               indices[terms], data[terms], tails[tail_of[rows]]))
    binary, lower, upper = model.columns()
    at = np.flatnonzero(~binary & ((lower != 0.0) | (upper != math.inf)))
    bounds = [f" {name} free\n" if lo == -math.inf and hi == math.inf
              else f" {name} >= {_fmt(lo)}\n" if hi == math.inf
              else f" -inf <= {name} <= {_fmt(hi)}\n" if lo == -math.inf
              else f" {_fmt(lo)} <= {name} <= {_fmt(hi)}\n"
              for name, lo, hi in zip(names[at], lower[at].tolist(), upper[at].tolist())]
    if bounds:
        text += ["Bounds\n", *bounds]
    binaries = names[binary].tolist()
    if binaries:
        text += ["Binaries\n ", "\n ".join(binaries), "\n"]
    text.append("End\n")
    return "".join(text)


_SECTIONS = {"maximize": "maximize", "max": "maximize",
             "minimize": "minimize", "min": "minimize",
             "subject to": "constraints", "such that": "constraints",
             "st": "constraints", "s.t.": "constraints", "bounds": "bounds",
             "binaries": "binaries", "binary": "binaries", "bin": "binaries",
             "generals": "generals", "general": "generals", "end": "end"}
_LONGEST_KEYWORD = max(map(len, _SECTIONS))

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
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
# Rows formatted together by export_lp, and constraint records parsed
# together by read_lp: enough to spread the cost of each pass over many
# rows, few enough to keep the transient lists small.
_WRITE_ROWS = 4096
_CHUNK_ROWS = 256
# read_lp splits its text into lines a block of about this many
# characters at a time, and ends a chunk of records once it holds as many.
_BLOCK_CHARS = 1 << 18


class _Coefficients:
    """Codes for the texts before term names (" - 2.5 ", "\n+ 3 "): each
    distinct text gets the next code, and is parsed once for its value and
    the number of newlines it holds, kept at its code in ``values`` and
    ``newlines``."""

    def __init__(self):
        self.code: dict[str, int] = defaultdict(itertools.count().__next__)
        self.parsed = 0
        self.values, self.newlines = np.zeros(64), np.zeros(64, np.int64)

    def codes(self, texts: list[str]) -> np.ndarray:
        """The codes of the texts; raises ModelError for a text that is not
        a coefficient."""
        codes = np.fromiter(map(self.code.__getitem__, texts), np.int64, len(texts))
        fresh = np.flatnonzero(codes >= self.parsed)
        if len(fresh):
            _, first = np.unique(codes[fresh], return_index=True)
            new = [texts[i] for i in fresh[first].tolist()]
            values = list(map(_coef_value, new))
            start, self.parsed = self.parsed, self.parsed + len(new)
            if self.parsed > len(self.values):      # room for twice as many
                self.values, self.newlines = (np.resize(column, 2 * self.parsed)
                                              for column in (self.values, self.newlines))
            self.values[start:self.parsed] = values
            self.newlines[start:self.parsed] = list(map(operator.methodcaller("count", "\n"), new))
        return codes


def _parse_terms(expressions: list[str], ids: dict[str, int],
                 coefficients: _Coefficients) -> tuple[np.ndarray, np.ndarray, int]:
    """Parse expressions such as "3 x - 2.5e-3 y + z", all in one pass.

    Returns the variable ids and the coefficient codes of all their terms,
    in order, and the number of empty expressions at the end. A newline
    leads each expression, so the text before an expression's first term
    holds one newline, plus one for each empty expression just before it.
    """
    # [text between terms (always empty), coefficient, name, ..., the rest]
    pieces = _TERM_RE.split("\n" + "\n".join(expressions))
    try:
        codes = coefficients.codes(pieces[1::3])
        complete = not pieces[-1].strip()
    except ModelError:
        complete = False
    if not complete:
        raise _expression_error(expressions)
    names = pieces[2::3]
    return (np.fromiter(map(ids.__getitem__, names), np.int64, len(names)), codes,
            pieces[-1].count("\n"))


def _expression_error(expressions: list[str]) -> ModelError:
    """The error for the first expression that does not parse on its own,
    or else for all of them together."""
    def parses(expression: str) -> bool:
        pieces = _TERM_RE.split(expression)
        return not pieces[-1].strip() and all(map(_COEF_RE.fullmatch, pieces[1::3]))

    text = next((e for e in expressions if not parses(e)), "\n".join(expressions))
    if _DANGLING_RE.search(text):
        return ModelError(f"dangling coefficient in expression {text!r}")
    return ModelError(f"cannot parse expression {text!r}")


def _blocks(text: str, start: int, stop: int):
    """text[start:stop] in blocks of about ``_BLOCK_CHARS`` characters, each
    cut after a newline so that no line is split, with where each starts.
    start and stop are the starts of lines or the end of the text."""
    while start < stop:
        cut = text.find("\n", min(start + _BLOCK_CHARS, stop) - 1, stop) + 1 or stop
        yield start, text[start:cut]
        start = cut


def _uncommented(lines: list[str], block: str) -> list[str]:
    """The lines of a block with their comments cut off."""
    return [line.partition("\\")[0] for line in lines] if "\\" in block else lines


def _sections(text: str) -> list[tuple[str, int, int]]:
    """Each section in text order: its keyword's section and the span of
    its body, from the end of its header line to the start of the next
    header line. A header line holds only a section keyword."""
    heads = []      # (section, start of the header line, end of it)
    for start, block in _blocks(text, 0, len(text)):
        lines = block.splitlines(keepends=True)
        ats = itertools.accumulate(map(len, lines), initial=start)
        for at, line, head in zip(ats, lines, map(str.strip, _uncommented(lines, block))):
            if len(head) <= _LONGEST_KEYWORD and head.lower() in _SECTIONS:
                heads.append((_SECTIONS[head.lower()], at, at + len(line)))
    stops = [at for _, at, _ in heads[1:]] + [len(text)]
    return [(section, body, stop) for (section, _, body), stop in zip(heads, stops)]


def _record_chunks(lines):
    """Constraint records, each one string, in chunks of at most
    ``_CHUNK_ROWS`` records that end once they hold ``_BLOCK_CHARS``
    characters. A line with a row name starts a record and any other line
    that is not blank continues it."""
    chunk, size, record = [], 0, None
    for line in lines:
        if ":" in line or (record is None and line.strip()):
            if record is not None:
                chunk.append(record)
                size += len(record)
                if len(chunk) == _CHUNK_ROWS or size >= _BLOCK_CHARS:
                    yield chunk
                    chunk, size = [], 0
            record = line
        elif line.strip():
            record += " " + line.strip()
    if record is not None:
        yield chunk + [record]


def _declare_new(model: MilpModel, ids: dict[str, int]) -> None:
    """Declare, as continuous, the names that ``ids`` numbered after the
    model's last variable."""
    new = list(itertools.islice(reversed(ids), len(ids) - model.num_variables))[::-1]
    model.add_variables(None, new, CONTINUOUS)


def _add_records(model: MilpModel, records: list[str], ids: dict[str, int],
                 coefficients: _Coefficients) -> None:
    """Parse constraint records and append them to the model as one block
    of rows, after declaring the variables they name first."""
    row_names, rels, lhs_rows, rhs_texts = [], [], [], []
    for record in records:
        cname, colon, body = record.partition(":")
        cname, body = ((cname.strip(), body) if colon
                       else (f"c{model.num_constraints + len(row_names)}", record))
        lhs, equals, rhs_text = body.partition("=")
        if not equals or "=" in rhs_text:
            raise ModelError(f"cannot parse constraint {record.strip()!r}")
        rel = _RELATIONS.get(lhs[-1:], "=")
        row_names.append(cname)
        rels.append(rel)
        lhs_rows.append(lhs[:-1] if rel != "=" else lhs)
        rhs_texts.append(rhs_text)
    var_ids, codes, trailing = _parse_terms(lhs_rows, ids, coefficients)
    rhs = list(map(float, rhs_texts))
    # Each newline before a term starts one row there; the empty rows at
    # the end start after the last term.
    leads = coefficients.newlines[codes]
    firsts = np.flatnonzero(leads)
    indptr = np.r_[np.repeat(firsts, leads[firsts]), np.full(trailing + 1, len(var_ids))]
    _declare_new(model, ids)
    model.add_rows(row_names, rels, rhs, indptr, var_ids, coefficients.values[codes])


def read_lp(text: str) -> MilpModel:
    """Parse the LP dialect produced by ``export_lp``.

    Variable keys in the returned model are singleton tuples of the name,
    derived from the names rather than stored (see ``add_variables``);
    structural keys are not recoverable from a flat file. Variables are
    declared in order of first appearance: in the objective, then in the
    rows, the bounds and the binaries. See the module docstring for the
    accepted dialect. The text is read a section at a time and its lines a
    block at a time; its rows are parsed and appended to the model a chunk
    at a time (see ``_record_chunks``).
    """
    spans: dict[str, list[tuple[int, int]]] = defaultdict(list)
    sense = "maximize"
    for section, start, stop in _sections(text):
        if section in ("maximize", "minimize"):
            sense, section = section, "objective"
        spans[section].append((start, stop))

    def blocks(section: str):
        """The lines of the section's bodies, comments cut off, a block at a time."""
        for start, stop in spans[section]:
            for _, block in _blocks(text, start, stop):
                yield _uncommented(block.splitlines(), block)

    for lines in blocks("generals"):
        if generals := " ".join(lines).split():
            raise ModelError(f"integer variable {generals[0]!r} in a Generals section: "
                             f"only binary and continuous variables are supported")
    model = MilpModel(name="lp_import", sense=sense)
    ids: dict[str, int] = defaultdict(itertools.count().__next__)    # new names: next id
    coefficients = _Coefficients()

    obj_body = " ".join(" ".join(itertools.chain.from_iterable(blocks("objective"))).split())
    if ":" in obj_body:
        obj_body = obj_body.split(":", 1)[1]
    obj_ids, obj_codes, _ = _parse_terms([obj_body], ids, coefficients)
    obj_values = coefficients.values[obj_codes]
    _declare_new(model, ids)

    for chunk in _record_chunks(itertools.chain.from_iterable(blocks("constraints"))):
        _add_records(model, chunk, ids, coefficients)

    lows, ups = {}, {}    # bounds by variable id; they apply to binaries too
    for record in filter(None, map(str.strip, itertools.chain.from_iterable(blocks("bounds")))):
        pieces = [p.strip() for p in _REL_RE.split(record)]
        if record.lower().endswith(" free"):
            var_id = ids[record[: -len(" free")].strip()]
            lows[var_id], ups[var_id] = -math.inf, math.inf
        elif len(pieces) == 5:  # lo <= x <= hi
            lows[ids[pieces[2]]], ups[ids[pieces[2]]] = float(pieces[0]), float(pieces[4])
        elif len(pieces) == 3:
            left, rel, right = pieces
            try:
                value = float(right)
                name, bound_is_upper = left, rel == "<="
            except ValueError:
                value = float(left)
                name, bound_is_upper = right, rel == ">="
            (ups if bound_is_upper else lows)[ids[name]] = value
        else:
            raise ModelError(f"cannot parse bound {record!r}")

    binaries = [np.zeros(0, np.int64)]
    for lines in blocks("binaries"):
        names = " ".join(lines).split()    # a binary in no row is declared here
        binaries.append(np.fromiter(map(ids.__getitem__, names), np.int64, len(names)))
    _declare_new(model, ids)
    # Each column becomes one block now, not on its first use.
    for column in (model._kind, model._lower, model._upper, model._sense, model._rhs,
                   model._indptr, model._indices, model._data):
        _joined(column)
    binary = np.concatenate(binaries)
    _joined(model._kind)[binary] = _KINDS.index(BINARY)
    _joined(model._upper)[binary] = 1.0
    for column, given in ((model._lower, lows), (model._upper, ups)):
        _joined(column)[list(given)] = list(given.values())
    lower, upper = _joined(model._lower), _joined(model._upper)
    if (i := _empty_bounds(lower, upper)) is not None:
        raise ModelError(f"empty bounds [{lower[i]}, {upper[i]}] for {model.name_of(i)!r}")
    for var_id, coef in zip(obj_ids.tolist(), obj_values.tolist()):
        model.set_objective_coeff(var_id, model.objective.get(var_id, 0.0) + coef)
    return model
