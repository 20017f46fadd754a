"""Solver-agnostic mixed-integer linear program container: a columnar store.

Variables and rows are declared in blocks, and a block is (tags, letters,
int index columns): for each row of its index columns, one item per tag,
in tag order. An item's key is ``(tag, *index)`` and its name is rendered
from the key by one rule: the tag, then ``_{letter}{i}`` for each index,
so ("x", 3, 0, 7) with letters "tcr" is named ``x_t3_c0_r7`` and, with no
letters, ``x_3_0_7``. A block without index columns holds one item per
tag, keyed ``(tag,)`` and named by its tag: variables declared by name,
and rows named one by one. Keys and names are rendered on demand, and the
model keeps none of them: it keeps a map from name to id only for the
variables declared by name, and finds any other key in its block's index
columns. Among variables, keys and names are unique; rows need neither.

Variables are columns too (kind codes, lower and upper bounds), and rows
keep their sense and right-hand side per block: one value for the block
when all its rows share it, else one per row. Their coefficients are CSR
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
variables are declared by name, in order of first appearance, so the
first re-export's bytes may differ from the original text; the text of
that re-export is a fixed point of ``export_lp(read_lp(...))``.

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

import bisect
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

# A name's shape: each integer in it, as the naming rule writes one, made "#".
_INTEGER_RE = re.compile(r"-?\d+")


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


def _shared(values: np.ndarray):
    """The one value of a non-empty array whose items all hold the same
    bits, as a Python scalar; otherwise the array."""
    bits = values.view(f"u{values.itemsize}")
    return values[0].item() if (bits == bits[0]).all() else values


def _joined(column: list[np.ndarray]) -> np.ndarray:
    """A column stored as appended blocks, joined into its one block."""
    if len(column) > 1:
        column[:] = [np.concatenate(column)]
    return column[0]


def _index_rows(columns) -> np.ndarray:
    """A block's index columns as the rows of one new 2-D array, int32, or
    int64 where a value does not fit; no columns give one empty row."""
    columns = [np.asarray(column) for column in columns]
    if any(c.ndim != 1 or (c.size and c.dtype.kind not in "iu") for c in columns):
        raise ModelError("an index column is a flat sequence of integers")
    if len({len(column) for column in columns}) > 1:
        raise ModelError("index columns of different lengths")
    dtype = np.int32
    for column in (c for c in columns if c.size):
        if column.dtype.kind == "u" and column.max() > np.iinfo(np.int64).max:
            raise ModelError(f"index {column.max()} does not fit in 64 bits")
        if column.min() < -2**31 or column.max() >= 2**31:
            dtype = np.int64
    rows = np.empty((len(columns[0]) if columns else 1, len(columns)), dtype)
    for i, column in enumerate(columns):
        rows[:, i] = column
    return rows


def _repeats(rows: np.ndarray) -> np.ndarray:
    """Which rows of a 2-D array equal an earlier row."""
    order = np.lexsort(rows.T[::-1])        # stable: equal rows keep their order
    ordered = rows[order]
    repeated = np.zeros(len(rows), bool)
    repeated[order[1:][(ordered[1:] == ordered[:-1]).all(axis=1)]] = True
    return repeated


class _Block:
    """Items keyed and named by one rule, rendered on demand: for each row
    of the index, one item per tag, keyed ``(tag, *row)`` and named the
    tag, then ``_{letter}{i}`` per index (no letters: ``_{i}``). An index
    without columns has one empty row: one item per tag, keyed ``(tag,)``
    and named ``tag``."""

    __slots__ = ("tags", "index", "patterns")

    def __init__(self, tags, letters: str, index):
        self.tags = [tags] if isinstance(tags, str) else list(tags)
        if (bad := next((t for t in self.tags if not isinstance(t, str)), None)) is not None:
            raise ModelError(f"a tag is a string, not {bad!r}")
        self.index = _index_rows(index)     # rows x columns
        width = self.width
        if letters and not (len(letters) == width and letters.isascii() and letters.isalpha()):
            raise ModelError(f"letters {letters!r} for {width} index columns: "
                             f"one ASCII letter a column, or none")
        suffix = "".join(f"_{letter}%d" for letter in letters or [""] * width)
        # One %-format per tag; a block without index columns needs none.
        self.patterns = [tag.replace("%", "%%") + suffix for tag in self.tags] if width else None

    @property
    def width(self) -> int:
        return self.index.shape[1]

    def __len__(self) -> int:
        return len(self.tags) * len(self.index)

    def key(self, j: int) -> VarKey:
        m = len(self.tags)
        return (self.tags[j % m], *self.index[j // m].tolist())

    def name(self, j: int) -> str:
        if self.patterns is None:
            return self.tags[j]
        m = len(self.tags)
        return self.patterns[j % m] % tuple(self.index[j // m].tolist())

    def keys(self) -> list[VarKey]:
        if not self.width:
            return [(tag,) for tag in self.tags]
        return [(tag, *row) for row in zip(*self.index.T.tolist()) for tag in self.tags]

    def names(self, lo: int = 0, hi: int | None = None) -> list[str]:
        """The names of items lo to hi."""
        hi = len(self) if hi is None else hi
        if not self.width:
            return self.tags[lo:hi]
        m = len(self.tags)
        first, last = lo // m, -(-hi // m)      # the index rows those items are on
        names = [p % row for row in zip(*self.index[first:last].T.tolist())
                 for p in self.patterns]
        return names[lo - first * m:hi - first * m]

    def find(self, tag: str, index: list[int]) -> int | None:
        """The place of the item keyed ``(tag, *index)``, or None; index
        holds one int per index column."""
        if len(index) != self.width or tag not in self.tags:
            return None
        try:
            rows = np.flatnonzero((self.index == np.array(index, np.int64)).all(axis=1))
        except OverflowError:
            return None
        return int(rows[0]) * len(self.tags) + self.tags.index(tag) if len(rows) else None

    def shapes(self) -> set[str]:
        """The shapes of the names: each integer in a name made "#". A
        family's names share one shape per tag."""
        if not self.width:
            return {_INTEGER_RE.sub("#", tag) for tag in self.tags}
        zeros = (0,) * self.width
        return {_INTEGER_RE.sub("#", pattern % zeros) for pattern in self.patterns}


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
    """A read-only sequence of views, as long as the model's live count;
    a slice gives a list of views."""

    def __init__(self, count, view):
        self._count, self._view = count, view

    def __len__(self) -> int:
        return self._count()

    def __getitem__(self, index):
        at = range(len(self))[index]
        return [self._view(i) for i in at] if isinstance(index, slice) else self._view(at)


class MilpModel:
    """A linear objective, linear constraints, and typed bounded variables.

    Every variable has a unique key and a unique name, and each resolves
    to exactly one variable id.
    """

    def __init__(self, name: str = "model", sense: str = "maximize"):
        if sense not in ("maximize", "minimize"):
            raise ModelError(f"unknown objective sense {sense!r}")
        self.name, self.objective_sense = name, sense
        self.objective: dict[int, float] = {}
        # Variable and row blocks, each with the id of its first item.
        self._var_blocks: list[_Block] = []
        self._var_starts: list[int] = []
        self._name_to_id: dict[str, int] = {}      # variables declared by name only
        # Each row block with its sense code and rhs: one Python value when
        # all its rows share it, which every view of those rows then shares.
        self._rows: list[tuple[_Block, int | np.ndarray, float | np.ndarray]] = []
        self._row_starts: list[int] = []
        self._n_vars = self._n_rows = self._nnz = 0
        # Columns, each a list of blocks (see _joined).
        self._kind = [np.zeros(0, np.int8)]
        self._lower, self._upper, self._data = ([np.zeros(0)] for _ in range(3))
        self._indptr, self._indices = [np.zeros(1, np.int64)], [np.zeros(0, np.int32)]
        self._csr = None        # the joined CSR arrays, until add_rows appends

    # Views are made per access: a model that held them would be in a
    # reference cycle, freed only by the cyclic collector. A row view holds
    # the joined CSR arrays, not the model, and add_rows joins new arrays
    # rather than writing to those.
    variables = property(lambda self: _Views(lambda: self._n_vars, self._variable))
    constraints = property(lambda self: _Views(lambda: self._n_rows, self._constraint))

    def _variable(self, i: int) -> Variable:
        return Variable(self.name_of(i), _KINDS[_joined(self._kind)[i]],
                        float(_joined(self._lower)[i]), float(_joined(self._upper)[i]))

    def _constraint(self, i: int) -> Constraint:
        k = bisect.bisect_right(self._row_starts, i) - 1
        block, sense, rhs = self._rows[k]
        j = i - self._row_starts[k]
        return Constraint(block.name(j), _RowCoeffs(self.csr(), i),
                          _SENSES[sense if isinstance(sense, int) else sense[j]],
                          rhs if isinstance(rhs, float) else float(rhs[j]))

    def join(self) -> None:
        """Join each column's appended blocks into one array now, as the
        first read of the column would."""
        self.csr()
        for column in (self._kind, self._lower, self._upper):
            _joined(column)

    # -- variables ---------------------------------------------------

    def add_variables(self, tags, kind, lower=0.0, upper=math.inf, *, letters: str = "",
                      index=()) -> np.ndarray:
        """Declare a block of variables and return their ids: for each row
        of the ``index`` columns, one variable per tag, keyed ``(tag, *row)``
        and named by the naming rule with ``letters``; without index
        columns, one variable per tag, keyed ``(tag,)`` and named ``tag``.
        ``kind``, ``lower`` and ``upper`` are one value for all or one per
        variable; binaries get the bounds [0, 1]."""
        block = _Block(tags, letters, index)
        n, start = len(block), self._n_vars
        codes = _per_item(kind, n, "variable kind", _KINDS)
        lower = np.where(codes == 1, 0.0, _per_item(lower, n, "lower bound"))
        upper = np.where(codes == 1, 1.0, _per_item(upper, n, "upper bound"))
        if (i := _empty_bounds(lower, upper)) is not None:
            raise ModelError(f"empty bounds [{lower[i]}, {upper[i]}] for {block.key(i)!r}")
        self._check_unique(block)
        if not block.width:
            self._name_to_id.update(zip(block.tags, range(start, start + n)))
        if self._var_blocks and not (block.width or self._var_blocks[-1].width):
            self._var_blocks[-1].tags += block.tags     # name-keyed runs share a block
        elif n:
            self._var_blocks.append(block)
            self._var_starts.append(start)
        self._n_vars += n
        for column, values in ((self._kind, codes), (self._lower, lower), (self._upper, upper)):
            column.append(values)
        return np.arange(start, start + n)

    def _check_unique(self, block: _Block) -> None:
        """Raise ModelError for the block's first key, then its first name,
        that the model or an earlier variable of the block already has.

        Two blocks with the same number of index columns render one name
        only for one key (a name's index part reads back from its end), so
        names are compared only across blocks of different widths, and
        only where the blocks' name shapes meet."""
        width, tags = block.width, block.tags
        if not width:
            if len(set(tags)) != len(tags) or not self._name_to_id.keys().isdisjoint(tags):
                seen = set(self._name_to_id)
                twice = next(tag for tag in tags if tag in seen or seen.add(tag))
                raise ModelError(f"duplicate variable key {(twice,)!r}")
        else:
            twice = np.zeros(len(block), bool)
            for t, tag in enumerate(tags):
                rows = np.concatenate([other.index for other in self._var_blocks
                                       if other.width == width and tag in other.tags]
                                      + [block.index])
                twice[t::len(tags)] = (_repeats(rows)[len(rows) - len(block.index):]
                                       | (tag in tags[:t]))
            if twice.any():
                raise ModelError(f"duplicate variable key {block.key(int(np.argmax(twice)))!r}")
        others = [other for other in self._var_blocks if other.width not in (0, width)]
        if others:
            shapes = block.shapes()
            others = [other for other in others if not shapes.isdisjoint(other.shapes())]
        if others or (width and self._name_to_id):
            taken = set(itertools.chain.from_iterable(other.names() for other in others))
            twice = next((name for name in block.names()
                          if name in taken or name in self._name_to_id), None)
            if twice is not None:
                raise ModelError(f"duplicate variable name {twice!r}")

    def add_variable(self, key: VarKey, kind: str, lower: float = 0.0,
                     upper: float = math.inf) -> int:
        """Declare one variable keyed ``(tag, *index)``; its name is the tag,
        then ``_{i}`` per index."""
        if not isinstance(key, tuple) or not key:
            raise ModelError(f"a variable key is (tag, *index), not {key!r}")
        tag, *index = key
        return int(self.add_variables(tag, kind, lower, upper, index=[[i] for i in index])[0])

    def _find(self, key) -> int | None:
        """The id of the variable keyed ``key``, or None."""
        if not (isinstance(key, tuple) and key and isinstance(key[0], str)):
            return None
        tag, *index = key
        if not index:
            return self._name_to_id.get(tag)
        try:
            index = [operator.index(i) for i in index]
        except TypeError:
            return None
        for start, block in zip(self._var_starts, self._var_blocks):
            if (j := block.find(tag, index)) is not None:
                return start + j
        return None

    def _var_at(self, var_id: int) -> tuple[_Block, int]:
        """The block of a variable and the variable's place in it; a
        negative id counts from the end."""
        if not 0 <= var_id < self._n_vars:
            var_id = range(self._n_vars)[var_id]
        k = bisect.bisect_right(self._var_starts, var_id) - 1
        return self._var_blocks[k], var_id - self._var_starts[k]

    def var_id(self, key: VarKey) -> int:
        if (var_id := self._find(key)) is None:
            raise ModelError(f"unknown variable key {key!r}")
        return var_id

    def has_var(self, key: VarKey) -> bool:
        return self._find(key) is not None

    def key_of(self, var_id: int) -> VarKey:
        block, j = self._var_at(var_id)
        return block.key(j)

    def name_of(self, var_id: int) -> str:
        block, j = self._var_at(var_id)
        return block.name(j)

    def id_of_name(self, name: str) -> int:
        var_id = self._name_to_id.get(name)
        if var_id is not None:
            return var_id
        shape = _INTEGER_RE.sub("#", name)      # a family's name: among those of its shape
        for start, block in zip(self._var_starts, self._var_blocks):
            if block.width and shape in block.shapes() and name in (names := block.names()):
                return start + names.index(name)
        raise ModelError(f"unknown variable name {name!r}")

    def keys(self) -> list[VarKey]:
        return list(itertools.chain.from_iterable(block.keys() for block in self._var_blocks))

    def names(self) -> list[str]:
        return list(itertools.chain.from_iterable(block.names() for block in self._var_blocks))

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the variable columns: binary flags, lower and upper bounds."""
        return _joined(self._kind) == 1, _joined(self._lower).copy(), _joined(self._upper).copy()

    # -- constraints and objective ------------------------------------

    def add_rows(self, tags, senses, rhs, indptr, indices, data, *, letters: str = "",
                 index=()) -> None:
        """Append a block of rows, named as ``add_variables`` names
        variables; row i holds the variable ids ``indices[indptr[i]:
        indptr[i + 1]]`` with the coefficients at the same places of
        ``data``. ``senses`` and ``rhs`` are one value for all or one per
        row. The ids are checked against the variable count and stored as
        int32."""
        block = _Block(tags, letters, index)
        m = len(block)
        codes = _per_item(senses, m, "constraint sense", _SENSES)
        rhs, data = _per_item(rhs, m, "rhs value"), np.array(data, np.float64)
        indptr, indices = np.asarray(indptr, np.int64), np.asarray(indices, np.int64)
        if (indptr.shape != (m + 1,) or indptr[0] != 0 or (np.diff(indptr) < 0).any()
                or not indptr[-1] == len(indices) == len(data)):
            raise ModelError(f"ragged block: {m} rows, indptr of length {len(indptr)}, "
                             f"{len(indices)} variable ids, {len(data)} coefficients")
        unknown = (indices < 0) | (indices >= self._n_vars)
        bad = unknown | ~np.isfinite(data)
        if bad.any():
            at = int(np.argmax(bad))
            row = block.name(int(np.searchsorted(indptr, at, side="right")) - 1)
            raise ModelError(f"constraint {row!r} references unknown variable {indices[at]}"
                             if unknown[at] else
                             f"constraint {row!r} has the non-finite coefficient {data[at]}")
        if not np.isfinite(rhs).all():
            i = int(np.argmax(~np.isfinite(rhs)))
            raise ModelError(f"constraint {block.name(i)!r} has the non-finite rhs {rhs[i]}")
        indptr, indices, data = _sorted_rows(indptr, indices.astype(np.int32), data)
        if m:
            self._rows.append((block, _shared(codes), _shared(rhs)))
            self._row_starts.append(self._n_rows)
        self._n_rows += m
        for column, values in ((self._indices, indices), (self._indptr, indptr[1:] + self._nnz),
                               (self._data, data)):
            column.append(values)
        self._nnz += len(indices)
        self._csr = None

    def add_constraint(self, name: str, coeffs: dict[int, float],
                       sense: str, rhs: float) -> None:
        self.add_rows([name], sense, rhs, [0, len(coeffs)], list(coeffs), list(coeffs.values()))

    def _row_names(self, lo: int, hi: int) -> list[str]:
        """The names of rows lo to hi, rendered a block at a time."""
        names: list[str] = []
        k = max(bisect.bisect_right(self._row_starts, lo) - 1, 0)
        for start, (block, _, _) in zip(self._row_starts[k:], self._rows[k:]):
            if start >= hi:
                break
            names += block.names(max(lo - start, 0), min(hi - start, len(block)))
        return names

    def _row_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's sense code and rhs, as new arrays."""
        senses, rhs = [np.zeros(0, np.int8)], [np.zeros(0)]
        for block, sense, value in self._rows:
            senses.append(np.full(len(block), sense, np.int8) if isinstance(sense, int) else sense)
            rhs.append(np.full(len(block), value) if isinstance(value, float) else value)
        return np.concatenate(senses), np.concatenate(rhs)

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coefficient matrix: (indptr, indices, data), with int64
        ``indptr`` and int32 ``indices``."""
        if self._csr is None:
            self._csr = _joined(self._indptr), _joined(self._indices), _joined(self._data)
        return self._csr

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's lower and upper activity bound, from its sense and rhs."""
        sense, rhs = self._row_columns()
        return np.where(sense == 0, -np.inf, rhs), np.where(sense == 1, np.inf, rhs)

    def set_objective_coeff(self, var_id: int, coeff: float) -> None:
        if not 0 <= var_id < self._n_vars:
            raise ModelError(f"objective references unknown variable {var_id}")
        if not math.isfinite(coeff):
            raise ModelError(f"non-finite objective coefficient {coeff} for variable {var_id}")
        if coeff == 0.0:
            self.objective.pop(var_id, None)
        else:
            self.objective[var_id] = float(coeff)

    def evaluate_objective(self, values: dict[str, float]) -> float:
        return sum(c * values[self.name_of(i)] for i, c in self.objective.items())

    @property
    def num_variables(self) -> int:
        return self._n_vars

    @property
    def num_constraints(self) -> int:
        return self._n_rows

    @property
    def num_nonzeros(self) -> int:
        """Stored coefficients, explicit zeros included."""
        return self._nnz

    def constraints_named(self, prefix: str) -> list[Constraint]:
        return [self._constraint(start + j)
                for start, (block, _, _) in zip(self._row_starts, self._rows)
                for j, name in enumerate(block.names()) if name.startswith(prefix)]


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
    names = model.names()
    if (bad := _bad_name(names)) is not None:
        raise ModelError(f"variable name {bad!r} cannot be written in LP format: a name "
                         f"is letters, digits and underscores, not starting with a "
                         f"digit, and not a section keyword")
    names = np.array(names, dtype=object)
    anchor = f"0 {names[0]}" if len(names) else "0 dummy"
    order = sorted(model.objective)
    obj_text = _rows_text(names, anchor, ["obj"], np.array([0, len(order)]), np.array(
        order, np.int64), np.array([model.objective[i] for i in order], float), ["\n"])
    text = [f"\\ {model.name}\n", "Maximize\n" if model.objective_sense == "maximize"
            else "Minimize\n", obj_text, "Subject To\n"]
    senses, rhs = model._row_columns()
    rhs, which = np.unique(rhs, return_inverse=True)
    tails = np.array([f" {sense} {_fmt(value)}\n" for value in rhs.tolist() for sense in _SENSES],
                     dtype=object)
    tail_of = 3 * which + senses
    indptr, indices, data = model.csr()
    for first in range(0, model.num_constraints, _WRITE_ROWS):
        rows = slice(first, first + _WRITE_ROWS)
        row_names = model._row_names(first, first + _WRITE_ROWS)
        if (bad := _bad_row_name(row_names)) is not None:
            raise ModelError(f"row name {bad!r} cannot be written in LP format: a row name "
                             f"holds no ':', '\\' or line break and no whitespace at either end")
        ptr = indptr[first:first + _WRITE_ROWS + 1]
        terms = slice(ptr[0], ptr[-1])
        text.append(_rows_text(names, anchor, row_names, ptr - ptr[0],
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
_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
# A right-hand side or bound: export_lp writes no other, and inf and nan
# read so that add_rows and the bounds check can report them.
_VALUE_RE = re.compile(rf"-?(?:{_NUMBER_RE.pattern}|inf|nan)", re.ASCII)
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


def _value(text: str) -> float:
    if not _VALUE_RE.fullmatch(text):
        raise ModelError(f"{text!r} is not a number export_lp writes")
    return float(text)


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
        model.add_variables(new, CONTINUOUS)
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
    rhs_of = {text: _value(text) for text in set(rhs)}     # each distinct text read once
    model.add_rows(names, senses, list(map(rhs_of.__getitem__, rhs)),
                   np.r_[0, np.cumsum(counts)], var_ids, values)


def _bounds(lines: list[str], model: MilpModel, coefficients: dict) -> None:
    """Read bounds, " x free", " x >= lo" or " lo <= x <= hi", into the model."""
    bounds = []
    for line in lines:
        match line[1:].split(" "):
            case [name, "free"]:
                bounds.append((name, -math.inf, math.inf))
            case [name, ">=", low]:
                bounds.append((name, _value(low), math.inf))
            case [low, "<=", name, "<=", up]:
                bounds.append((name, _value(low), _value(up)))
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
    model.join()
    return model
