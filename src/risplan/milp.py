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
The LP writer emits a deterministic byte stream; ``read_lp`` reads what
``export_lp`` writes, which gives external solvers a file-based path in
and out. Both work a block of rows at a time: besides the text and the
model, they hold a few blocks, not the whole text in pieces.
``read_lp(export_lp(m))`` is ``m`` again by variable and row name, but its
variables come in order of first appearance, so the first re-export's
bytes may differ from the original text; the text of that re-export is a
fixed point of ``export_lp(read_lp(...))``.

The text, one item a line: ``\\ name`` (optional for ``read_lp``),
``Maximize`` or ``Minimize``, `` obj: terms``, ``Subject To``, one
`` name: terms sense rhs`` per row, ``Bounds`` and one `` x free``,
`` x >= lo`` or `` lo <= x <= hi`` (lo may be ``-inf``) per continuous
variable not bounded by [0, inf], ``Binaries`` and one `` x`` per binary
(these two sections left out when empty), and ``End``. Terms are ``c x``
or ``- c x``, then `` + c x`` or `` - c x``, each c an unsigned number;
an empty expression is ``0 x`` with the first variable. ``read_lp`` also
reads ``\\r\\n`` line ends; any other line makes it raise ModelError.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import namedtuple
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
    if (bad := _bad_name(model._names)) is not None:
        raise ModelError(f"variable name {bad!r} cannot be written in LP format: a name "
                         f"is letters, digits and underscores, not starting with a "
                         f"digit, and not a section keyword")
    if (bad := _bad_row_name(model._row_names)) is not None:
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


# LP section keywords: export_lp writes no variable so named, in any case.
_KEYWORDS = frozenset(("maximize", "max", "minimize", "min", "st", "bounds", "binaries",
                       "binary", "bin", "generals", "general", "end"))
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
# Rows formatted together by export_lp: enough to spread the cost of each
# pass over many rows, few enough to keep the transient lists small.
_WRITE_ROWS = 4096
# read_lp splits its text into lines a block of about this many characters
# at a time, each cut after a newline, and reads the rows of a block together.
_BLOCK_CHARS = 1 << 16


def _bad_name(names: list[str]) -> str | None:
    """The first name that is not a variable name export_lp writes, or None."""
    if all(map(_NAME_RE.fullmatch, names)) and _KEYWORDS.isdisjoint(map(str.lower, names)):
        return None
    return next(name for name in names
                if not _NAME_RE.fullmatch(name) or name.lower() in _KEYWORDS)


def _bad_row_name(names: list[str]) -> str | None:
    """The first name that is not a row name export_lp writes, or None: a
    row name is read up to its line's first ': ', a line at a time."""
    return next((name for name in names if ":" in name or "\\" in name
                 or name != name.strip() or len(name.splitlines()) > 1), None)


def _runs(text: str):
    """The numbered lines of the text, split a block at a time: a line that
    does not start with a space alone, the lines that do as a list per run
    in a block, and then None, for the end of the text, again and again."""
    number, start = 1, 0
    while start < len(text):
        cut = text.find("\n", start + _BLOCK_CHARS - 1) + 1 or len(text)
        for indented, run in itertools.groupby(text[start:cut].splitlines(),
                                               operator.methodcaller("startswith", " ")):
            run = list(run)
            yield from [(number, run)] if indented else zip(itertools.count(number), run)
            number += len(run)
        start = cut
    yield from itertools.repeat((number, None))


def _unreadable(number: int, line, cause) -> ModelError:
    """The error for a line, or the first of a run, and why export_lp writes no such line."""
    if line is None:
        return ModelError(f"LP text ends after line {number - 1}: {cause}")
    line = line[0] if isinstance(line, list) else line
    return ModelError(f"cannot read LP line {number}: {line[:80]!r}: {cause}")


def _read(read, number: int, run, model: MilpModel, coefficients: dict) -> None:
    """Read a run of lines into the model with ``read``, or raise the error
    for the first line that ``read`` cannot read alone into a new model."""
    if not isinstance(run, list):
        raise _unreadable(number, run, "expected a line that starts with a space")
    try:
        read(run, model, coefficients)
    except ValueError:
        for at, line in enumerate(run):
            try:
                read([line], MilpModel(), {})
            except ValueError as exc:
                raise _unreadable(number + at, line, exc) from None
        raise


def _ids_of(names: list[str], model: MilpModel) -> np.ndarray:
    """The variable ids of the names; the model first declares the names it
    does not have, continuous, in order of first appearance."""
    ids = np.fromiter(map(model._name_to_id.get, names, itertools.repeat(-1)), int, len(names))
    fresh = np.flatnonzero(ids < 0).tolist()
    if fresh:
        new = list(dict.fromkeys(names[i] for i in fresh))
        if (bad := _bad_name(new)) is not None:
            raise ModelError(f"{bad!r} is not a variable name export_lp writes")
        model.add_variables(None, new, CONTINUOUS)
        ids[fresh] = [model._name_to_id[names[i]] for i in fresh]
    return ids


def _terms(texts: list[str], model: MilpModel, coefficients: dict):
    """The terms of expressions ("1 x - 2.5 y", "- 1 x"): the variable ids
    and coefficients of all their terms, in order, and the number of terms
    in each. Each distinct sign and number is read once, into ``coefficients``."""
    signed = [text if text.startswith("- ") else "+ " + text for text in texts]
    counts = np.array([text.count(" ") for text in signed]) + 1
    tokens = " ".join(signed).split(" ")
    signs, numbers = tokens[0::3], tokens[1::3]
    values = np.fromiter(map(coefficients.get, zip(signs, numbers), itertools.repeat(math.nan)),
                         float)
    fresh = np.flatnonzero(np.isnan(values)).tolist()
    new = dict.fromkeys((signs[i], numbers[i]) for i in fresh)
    if (counts % 3).any() or not all(s in ("+", "-") and _NUMBER_RE.fullmatch(n) for s, n in new):
        raise ModelError("a term is a sign, an unsigned number and a name")
    coefficients.update(((s, n), 0.0 - float(n) if s == "-" else float(n)) for s, n in new)
    values[fresh] = [coefficients[signs[i], numbers[i]] for i in fresh]
    return _ids_of(tokens[2::3], model), values, counts // 3


def _objective(lines: list[str], model: MilpModel, coefficients: dict) -> None:
    """Read the objective line, " obj: terms", into the model."""
    if not lines[0].startswith(" obj: "):
        raise ModelError("the objective line is ' obj: terms'")
    var_ids, values, _ = _terms([lines[0][len(" obj: "):]], model, coefficients)
    for var_id, coef in zip(var_ids.tolist(), values.tolist()):
        model.set_objective_coeff(var_id, model.objective.get(var_id, 0.0) + coef)


def _rows(lines: list[str], model: MilpModel, coefficients: dict) -> None:
    """Read rows, " name: terms sense rhs", into the model as one block."""
    heads, colons, bodies = zip(*map(operator.methodcaller("partition", ": "), lines))
    lhs, senses, rhs = zip(*map(operator.methodcaller("rsplit", " ", 2), bodies))
    names = [head[1:] for head in heads]
    if (not all(colons) or not set(_SENSES).issuperset(senses)
            or _bad_row_name(names) is not None):
        raise ModelError("a row is ' name: terms sense rhs'")
    var_ids, values, counts = _terms(lhs, model, coefficients)
    model.add_rows(names, senses, list(map(float, rhs)), np.r_[0, np.cumsum(counts)],
                   var_ids, values)


def _bounds(lines: list[str], model: MilpModel, coefficients: dict) -> None:
    """Read bounds, " x free", " x >= lo" or " lo <= x <= hi", into the model."""
    bounds = []
    for line in lines:
        match line[1:].split(" "):
            case [name, "free"]:
                bounds.append((name, -math.inf, math.inf))
            case [name, ">=", low]:
                bounds.append((name, float(low), math.inf))
            case [low, "<=", name, "<=", up]:
                bounds.append((name, float(low), float(up)))
            case _:
                raise ModelError("a bound is ' x free', ' x >= lo' or ' lo <= x <= hi'")
    names, lower, upper = (list(column) for column in zip(*bounds))
    if (i := _empty_bounds(np.array(lower), np.array(upper))) is not None:
        raise ModelError(f"empty bounds [{lower[i]}, {upper[i]}] for {names[i]!r}")
    ids = _ids_of(names, model)
    _joined(model._lower)[ids], _joined(model._upper)[ids] = lower, upper


def _binaries(lines: list[str], model: MilpModel, coefficients: dict) -> None:
    """Read binaries, one " x" a line, into the model: bounds [0, 1]."""
    ids = _ids_of([line[1:] for line in lines], model)
    _joined(model._kind)[ids] = _KINDS.index(BINARY)
    _joined(model._lower)[ids], _joined(model._upper)[ids] = 0.0, 1.0


def read_lp(text: str) -> MilpModel:
    """Read back LP text as ``export_lp`` writes it (see the module
    docstring); any other line raises ModelError naming it. Variables are
    keyed by their names (see ``add_variables``) and declared in order of
    first appearance; the rows of each run that ``_runs`` yields are
    appended to the model as one block."""
    items, coefficients = _runs(text), {}
    number, item = next(items)

    def step(*expected: str | None) -> None:
        """Go on to the next line or run, if the current one is expected."""
        nonlocal number, item
        if expected and item not in expected:
            raise _unreadable(number, item, "expected " + " or ".join(
                header or "the end of the text" for header in expected))
        number, item = next(items)

    if isinstance(item, str) and item.startswith("\\ "):
        step()
    sense = item
    step("Maximize", "Minimize")
    model = MilpModel(name="lp_import", sense=sense.lower())
    if isinstance(item, list) and len(item) > 1:
        raise _unreadable(number + 1, item[1], "expected Subject To")
    _read(_objective, number, item, model, coefficients)
    step()
    for header, read in (("Subject To", _rows), ("Bounds", _bounds), ("Binaries", _binaries)):
        if item == header or read is _rows:
            step(header)
            while isinstance(item, list):
                _read(read, number, item, model, coefficients)
                step()
    step("End")
    step(None)
    model.csr(), model.row_bounds(), model.columns()     # join each column's blocks now
    return model
