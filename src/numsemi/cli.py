"""Command-line surface: compute, analyze, verify, tabulate.

Subcommands: ``frobenius``, ``analyze``, ``verify``, ``table``, ``perms``.
Output formats: text (default), json (one object per invocation; verify
emits an array), csv (header row, LF line endings).  Every JSON record
carries ``"schema": "1"``.

Exit codes: 0 success / all checks pass; 1 verification counterexample or
method disagreement; 2 invalid input; 3 overflow; 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import heapq
import io
import json
import sys
from collections.abc import Callable, Iterable, Sequence
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter, mod, sub
from types import SimpleNamespace

from numsemi import core, figurate, telescopic
from numsemi.arith import checked_int64
from numsemi.errors import InvariantViolation

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INVALID_INPUT = 2
EXIT_OVERFLOW = 3
EXIT_IO = 4

SCHEMA_VERSION = "1"


def _parse_gens(text: str) -> tuple[int, ...]:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"generator list must be comma-separated integers, got {text!r}") from None
    if any(g < 1 for g in entries):
        raise ValueError("generators must be positive")
    if len(set(entries)) != len(entries):
        raise ValueError("duplicate generators are rejected")
    return entries


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"range must look like a..b, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"range endpoints must be integers, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise ValueError(f"range must satisfy 1 <= a <= b, got {text!r}")
    return lo, hi


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        n, k = map(int, parts)
    except ValueError:
        raise ValueError(f"expected n,k with two integers, got {text!r}") from None
    return n, k


def _emit(payload: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(payload)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)


def _text_lines(mapping: dict, prefix: str) -> list[str]:
    """One ``key: value`` line per field, a nested dict's keys prefixed
    with its own key and a dot."""
    lines = []
    for key, value in mapping.items():
        if isinstance(value, dict):
            lines += _text_lines(value, f"{prefix}{key}.")
        else:
            lines.append(f"{prefix}{key}: {_scalar(value)}\n")
    return lines


def _scalar(value: object) -> str:
    """A text field: a list, tuple or ``_IntRuns`` as ``[a, b]``, a bool
    as ``true``/``false``."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_scalar, value)) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, _IntRuns):
        return "[" + value.write(b", ") + "]"
    return str(value)


class _IntRuns:
    """A non-empty list of plain ints as a record holds an Apery set's
    elements: runs, tuples of ints whose concatenation is the list, such
    as the levels of a c* box or one sorted generic set.  The JSON and
    text writers each write it once."""

    __slots__ = ("runs",)

    def __init__(self, runs: Iterable[tuple[int, ...]]) -> None:
        self.runs = runs

    def write(self, sep: bytes) -> str:
        """The ints in decimal, joined by ``sep``: one %-format per run
        into one buffer, decoded once."""
        buf = bytearray()
        for run in self.runs:
            buf += (b"%d" + sep) * len(run) % run
        del buf[-len(sep) :]
        return buf.decode("ascii")


class _Rows:
    """The rows of a table or of a command's CSV payload: tuples in column
    order of plain ints, strs, bools and lists or tuples of plain ints.
    ``write`` gives the bytes of ``json.dumps(sort_keys=True, indent=2)``
    for the rows as dicts, their ``key: value`` lines, or ``csv.writer``'s
    rows under a header, a list written ``[a, b]`` and a bool
    ``true``/``false``; the JSON writer calls it for a record's value.  A
    row's shape is each value's kind: int, str, the length of its list, or
    the bool's word.  Each shape's %-template is built once per write, so a
    row is one ``template % values``, its str values written as the format
    writes a str."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Sequence[str], rows: list[tuple]) -> None:
        self.columns = tuple(columns)
        self.rows = rows

    def write(self, fmt: str, pad: str = "") -> str:
        """The rows as JSON (a list at indent ``pad``), text or CSV.  Before
        any is written, the ints and list items are checked in one pass:
        any value other than a plain int, a bool inside a list included,
        raises ``InvariantViolation``."""
        columns, rows = self.columns, self.rows
        widths = set(map(len, rows)) - {len(columns)}
        if widths:
            raise InvariantViolation(f"rows of {sorted(widths)} values under {len(columns)} columns")
        if fmt == "json":
            order = sorted(range(len(columns)), key=columns.__getitem__)
            keys = [columns[i] for i in order]
            if len(order) > 1:  # values in key order
                rows = map(itemgetter(*order), rows)
            word = encode_basestring_ascii
        elif fmt == "csv":
            keys = columns
            word = functools.cache(functools.partial(_csv_word, width=len(columns)))
        else:
            keys = columns
            word = str
        inner = pad + "  "
        templates: dict[tuple, str] = {}
        shaped, flats, ints = [], [], []
        for row in rows:
            shape, flat = [], []
            for value in row:
                kind = type(value)
                if kind is str:
                    shape.append(str)
                    flat.append(word(value))
                elif kind is list or kind is tuple:
                    shape.append(len(value))
                    flat += value
                    ints += value
                elif kind is bool:  # a word, not 1 or 0: (True,) == (1,) as a key
                    shape.append("true" if value else "false")
                else:
                    shape.append(int)
                    flat.append(value)
                    ints.append(value)
            shape = tuple(shape)
            template = templates.get(shape)
            if template is None:
                template = templates[shape] = _row_template(keys, shape, fmt, inner)
            shaped.append(template)
            flats.append(tuple(flat))
        kinds = set(map(type, ints))
        if not kinds <= {int}:
            names = sorted(k.__name__ for k in kinds - {int})
            raise InvariantViolation(f"table values must be plain ints, strs and int lists, got {names}")
        text = map(mod, shaped, flats)
        if fmt == "json":
            return "[\n" + inner + (",\n" + inner).join(text) + "\n" + pad + "]" if self.rows else "[]"
        if fmt == "csv":
            return _csv_line(columns) + "".join(text)
        return "".join(text)


def _row_template(keys: Sequence[str], shape: tuple, fmt: str, pad: str) -> str:
    """The %-template of a row of ``shape`` under ``keys``: a JSON object at
    indent ``pad``, ``key: value`` lines, or a CSV line.  An int is ``%d``,
    a str ``%s`` (given as written), a bool its word, a list one ``%d`` per
    item; the text around them is written as ``json.dumps``, ``_text_lines``
    and ``csv.writer`` write it."""
    inner = pad + "  "
    values = []
    for kind in shape:
        if kind is int:
            values.append("%d")
        elif kind is str:
            values.append("%s")
        elif kind in ("true", "false"):
            values.append(kind)
        elif not kind:
            values.append("[]")
        elif fmt == "json":
            item = ",\n  " + inner
            values.append("[" + item[1:] + item.join(["%d"] * kind) + "\n" + inner + "]")
        else:
            items = "[" + ", ".join(["%d"] * kind) + "]"
            values.append('"' + items + '"' if fmt == "csv" and kind > 1 else items)
    if fmt == "csv":
        return ",".join(values) + "\n"
    if fmt == "json":
        fields = [encode_basestring_ascii(key).replace("%", "%%") + ": " + v for key, v in zip(keys, values)]
        return "{\n" + inner + (",\n" + inner).join(fields) + "\n" + pad + "}"
    return "".join(key.replace("%", "%%") + ": " + v + "\n" for key, v in zip(keys, values))


def _csv_line(fields: Sequence) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def _csv_word(text: str, width: int) -> str:
    """``text`` as ``csv.writer`` writes it in a row of ``width`` fields
    (a lone empty field is quoted)."""
    return _csv_line([text] + [0] * (width - 1))[: 1 - 2 * width]


def _json(value: object, parts: list[str], pad: str = "") -> None:
    """Append the pieces of ``json.dumps(value, sort_keys=True, indent=2)``
    to ``parts``, for str-keyed records; ``_format_payload`` joins them
    once, so no nesting level copies its children's text.  With ``indent``
    set, ``json.dumps`` runs its pure-Python encoder, one generator step per
    list element; here a full Apery set is written by its runs
    (``_IntRuns``) and table rows by their templates (``_Rows``).  Each
    kind of value has one branch, and a dict and a list write their items
    through the same branches."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, bool):
        parts.append("true" if value else "false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        inner = pad + "  "
        lead = "{\n" + inner
        for key in sorted(value):
            parts.append(lead + encode_basestring_ascii(key) + ": ")
            _json(value[key], parts, inner)
            lead = ",\n" + inner
        parts.append("\n" + pad + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = pad + "  "
        lead = "[\n" + inner
        for item in value:
            parts.append(lead)
            _json(item, parts, inner)
            lead = ",\n" + inner
        parts.append("\n" + pad + "]" if value else "[]")
    elif isinstance(value, _IntRuns):
        inner = pad + "  "
        parts += ("[\n" + inner, value.write((",\n" + inner).encode()), "\n" + pad + "]")
    elif isinstance(value, _Rows):
        parts.append(value.write("json", pad))
    else:  # None and floats
        parts.append(json.dumps(value))


def _format_payload(record: dict | _Rows, fmt: str) -> str:
    """``record`` as JSON, or as text, one ``key: value`` line per field;
    rows (``verify``'s records) in any format."""
    if fmt == "json":
        parts: list[str] = []
        _json(record, parts)
        parts.append("\n")
        return "".join(parts)
    if type(record) is _Rows:
        return record.write(fmt)
    return "".join(_text_lines(record, "")) or "\n"


def _closed_forms(kind: str) -> SimpleNamespace:
    """The family's closed forms, looked up on ``figurate`` when a command
    runs, so a patched or wrapped form is the one that is called."""
    names = ("generators", "direction", "cstar", "presentation", "betti")
    return SimpleNamespace(
        frobenius=getattr(figurate, f"frobenius_{kind}"),
        **{name: getattr(figurate, f"{kind}_{name}") for name in names},
    )


def _refuse_options(args: argparse.Namespace, context: str, *dests: str) -> None:
    """Refuse, before any output, an option that ``context`` would ignore:
    one given a value, or a flag that is set."""
    for dest in dests:
        value = getattr(args, dest)
        if value is not None and value is not False:
            raise ValueError(f"--{dest} does not apply to {context}")


def _write_record(args: argparse.Namespace, record: dict, columns: Sequence[str], rows: Callable[[], list]) -> None:
    """The one output path of ``frobenius``, ``analyze`` and ``perms``:
    under ``--format csv`` the rows ``rows()`` builds, under ``columns``,
    else ``record`` as JSON or text; written to ``--out`` or stdout."""
    if args.format == "csv":
        payload = _Rows(columns, rows()).write("csv")
    else:
        payload = _format_payload(record, args.format)
    _emit(payload, args.out)


# ---------------------------------------------------------------------------
# frobenius


def cmd_frobenius(args: argparse.Namespace) -> int:
    methods: dict[str, int] = {}
    if args.gens is not None:
        gens = _parse_gens(args.gens)
        descriptor = {"kind": "gens", "generators": list(gens)}
        if len(gens) >= 2:
            methods["reduction"] = telescopic.brauer_shockley_frobenius(gens)
        else:
            methods["oracle"] = core.frobenius_oracle(gens)
    elif args.triangular is not None or args.tetrahedral is not None:
        kind = "triangular" if args.triangular is not None else "tetrahedral"
        n = getattr(args, kind)
        forms = _closed_forms(kind)
        gens = forms.generators(n)
        descriptor = {"kind": kind, "n": n, "generators": list(gens)}
        methods["closed-form"] = forms.frobenius(n)
        if args.cross_check:
            if kind == "triangular":
                methods["cubic-form"] = figurate.baker_a(n)
            methods["reduction"] = telescopic.brauer_shockley_frobenius(gens)
    elif args.arith is not None:
        n, k = _parse_pair(args.arith)
        gens = figurate.arithmetic_generators(n, k)
        descriptor = {"kind": "arith", "n": n, "k": k, "generators": list(gens)}
        methods["closed-form"] = figurate.brauer_arithmetic_frobenius(n, k)
    else:
        n = args.choose4
        gens = figurate.choose4_generators(n)
        descriptor = {"kind": "choose4", "n": n, "generators": list(gens)}
        methods["reduction"] = telescopic.brauer_shockley_frobenius(gens)
    primary = descriptor["primary"] = next(iter(methods))  # each branch's first method
    if args.cross_check:
        # every branch's last method, so errors keep their order
        methods["oracle"] = core.frobenius_oracle(gens)
    record = {
        "schema": SCHEMA_VERSION,
        "input": descriptor,
        "frobenius": methods[primary],
        "provenance": primary,
        "methods": dict(sorted(methods.items())),
    }
    if len(methods) > 1:
        record["agreement"] = len(set(methods.values())) == 1
    _write_record(args, record, ("input", "generators", "frobenius", "provenance"), lambda: [
        (descriptor["kind"], gens, record["frobenius"], primary)
    ])
    if not record.get("agreement", True):  # the methods in the order they ran
        print(f"method disagreement: {methods}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _apery_summary(anchor: int, elements: core.AperySet | list[int], full: bool) -> dict:
    """The ``apery`` record of Ap(S, anchor), given its elements in any
    order: all of them, sorted, with ``full`` or when there are at most 6,
    else the three smallest and the three largest, read without sorting
    the rest.  ``_box_summary`` writes the same record for a c* box
    without listing it."""
    whole = full or len(elements) <= 6
    listed = tuple(sorted(elements)) if whole else None
    largest = listed or heapq.nlargest(3, elements)[::-1]
    summary: dict = {
        "anchor": anchor,
        "size": len(elements),
        "max": largest[-1],
        "frobenius_from_apery": largest[-1] - anchor,
    }
    if whole:
        summary["elements"] = _IntRuns((listed,))
    else:
        summary["smallest"] = heapq.nsmallest(3, elements)
        summary["largest"] = largest
    return summary


def _box_summary(arrangement: tuple[int, ...], cstars: tuple[int, ...], full: bool) -> dict:
    """``_apery_summary`` of the c* box ``telescopic.box_levels(arrangement,
    cstars)``, which makes the box's checks here, before any output.  The
    size is the anchor and the maximum is top = sum (c*_j - 1) n_j.  With
    ``full``, or at most 6 of them, the elements are the box's levels as
    runs, each level's top minus its offsets, written whole by the JSON
    and text writers.  Else the three smallest are drawn from the lazy
    sweep; the map lam_j -> c*_j - 1 - lam_j takes the box onto
    top - box, so the three largest are top minus those, reversed."""
    anchor = arrangement[0]
    top = sum((c - 1) * n for c, n in zip(cstars, arrangement[1:]))
    summary: dict = {"anchor": anchor, "size": anchor, "max": top, "frobenius_from_apery": top - anchor}
    if full or anchor <= 6:
        levels = telescopic.box_levels(arrangement, cstars)
        summary["elements"] = _IntRuns(tuple(map(sub, repeat(peak), offsets)) for peak, offsets in levels)
    else:
        smallest = list(islice(telescopic.box_elements(arrangement, cstars), 3))
        summary["smallest"] = smallest
        summary["largest"] = [top - w for w in reversed(smallest)]
    return summary


def _betti_bound(args: argparse.Namespace) -> int | None:
    """``--betti-bound``, held to the 64-bit range on every path, as the
    Betti scan holds it."""
    if args.betti_bound is not None:
        checked_int64(args.betti_bound, "Betti scan bound")
    return args.betti_bound


def _betti_upto(betti: set[int], bound: int | None) -> list[int]:
    """A closed-form or free-form Betti set, sorted and capped at ``bound``
    as ``NumericalSemigroup.betti_elements`` caps its scan."""
    return sorted(b for b in betti if bound is None or b <= bound)


def _analyze_generic(gens: tuple[int, ...], args: argparse.Namespace) -> dict:
    semigroup = core.NumericalSemigroup(gens)
    # Every record needs Ap(S, n_1): refuse before the c* search
    core.require_desk_scale(semigroup.multiplicity)
    arrangement = telescopic.arranged_minimal(gens, semigroup.generators)
    record: dict = {
        "schema": SCHEMA_VERSION,
        "input": {"kind": "gens", "generators": list(gens)},
        "minimal_generators": list(semigroup.generators),
        "embedding_dimension": semigroup.embedding_dimension,
    }
    # the c* walk and the reduction share the input's semigroup: its
    # minimal generators, arranged as in the input, are not minimalized
    # again, and its n_1 table is built once
    verdict = telescopic.is_free(arrangement, _semigroup=semigroup)
    # free exactly when telescopic; a list with a redundant or repeated
    # entry is judged as given
    record["telescopic_as_given"] = (
        bool(verdict) if gens == arrangement else bool(telescopic.is_telescopic(gens))
    )
    record["arrangement"] = list(arrangement)
    record["free"] = bool(verdict)
    record["cstar"] = list(verdict.cstars)
    methods = {"oracle": semigroup.frobenius()}
    bound = _betti_bound(args)
    if isinstance(verdict, telescopic.FreeDecomposition):
        methods["free-form"] = telescopic.free_frobenius(verdict)
        record["presentation"] = [
            {"lhs": list(l), "rhs": list(r)}
            for l, r in telescopic.free_presentation(verdict).relations
        ]
        record["betti"] = _betti_upto(telescopic.free_betti(verdict), bound)
    else:
        record["betti"] = sorted(semigroup.betti_elements(bound))
    if len(gens) >= 2:
        methods["reduction"] = telescopic.brauer_shockley_frobenius(gens, _semigroup=semigroup)
    record["frobenius"] = methods["oracle"]
    record["provenance"] = "oracle"
    record["methods"] = dict(sorted(methods.items()))
    record["agreement"] = len(set(methods.values())) == 1
    record["apery"] = _apery_summary(semigroup.multiplicity, semigroup.apery(), args.full)
    return record


def _analyze_family(kind: str, n: int, args: argparse.Namespace) -> dict:
    forms = _closed_forms(kind)
    gens = forms.generators(n)
    direction = forms.direction(n)
    closed_frobenius = forms.frobenius(n)
    semigroup = core.NumericalSemigroup(gens)
    record: dict = {
        "schema": SCHEMA_VERSION,
        "input": {"kind": kind, "n": n, "generators": list(gens)},
        "minimal_generators": list(semigroup.generators),
        "embedding_dimension": figurate.figurate_embedding_dimension(kind, n),
        "direction": direction.value,
    }
    reduction = telescopic.brauer_shockley_frobenius(gens, _semigroup=semigroup)
    methods = {"closed-form": closed_frobenius, "reduction": reduction}
    record["frobenius"] = closed_frobenius
    record["provenance"] = "closed-form"
    bound = _betti_bound(args)
    if record["embedding_dimension"] == len(gens):
        form = forms.cstar(n)
        record["arrangement"] = list(form.arrangement)
        record["cstar"] = list(form.cstars)
        record["free"] = True
        record["presentation"] = [{"lhs": list(l), "rhs": list(r)} for l, r in forms.presentation(n).relations]
        record["betti"] = _betti_upto(forms.betti(n), bound)
        record["apery"] = _box_summary(form.arrangement, form.cstars, args.full)
    else:
        # closed structural forms refuse below full embedding dimension
        record["note"] = figurate.REDUCED_EDIM_MSG
        record["betti"] = sorted(semigroup.betti_elements(bound))
        record["apery"] = _apery_summary(semigroup.multiplicity, semigroup.apery(), args.full)
        methods["oracle"] = semigroup.frobenius()
    record["methods"] = dict(sorted(methods.items()))
    record["agreement"] = len(set(methods.values())) == 1
    return record


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.format == "csv":
        _refuse_options(args, "analyze --format csv", "full")
    if args.gens is not None:
        record = _analyze_generic(_parse_gens(args.gens), args)
    else:
        kind = "triangular" if args.triangular is not None else "tetrahedral"
        record = _analyze_family(kind, getattr(args, kind), args)
    _write_record(args, record, ("generators", "frobenius", "free", "betti"), lambda: [
        (record["input"]["generators"], record["frobenius"], record.get("free", ""), record["betti"])
    ])
    if not record["agreement"]:
        print(f"method disagreement: {record['methods']}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _check_family(kind: str, betti_oracle_max_n: int, n: int) -> str | None:
    """The closed forms of one figurate member against the generic engine:
    the Frobenius number (and the triangular cubic form) against the oracle
    and the gcd reduction, the telescopic directions, then c*, freeness,
    presentation, Betti and Apery.  One semigroup serves the oracle, the
    reduction and the c* walk; the Betti oracle runs up to
    ``betti_oracle_max_n``."""
    forms = _closed_forms(kind)
    gens = forms.generators(n)
    values = {"closed": forms.frobenius(n)}
    if kind == "triangular":
        values["cubic"] = figurate.baker_a(n)
    semigroup = core.NumericalSemigroup(gens)
    values["oracle"] = semigroup.frobenius()
    # the reduction reaches two generators by gcd steps, never that oracle
    values["reduction"] = telescopic.brauer_shockley_frobenius(gens, _semigroup=semigroup)
    if len(set(values.values())) > 1:
        return "frobenius mismatch: " + " ".join(f"{k}={v}" for k, v in values.items())
    forward = bool(telescopic.is_telescopic(gens))
    reverse = bool(telescopic.is_telescopic(gens[::-1]))
    if kind == "triangular":  # both arrangements are telescopic
        if not forward:
            return "forward arrangement not telescopic"
        if not reverse:
            return "reverse arrangement not telescopic"
    else:  # only the printed direction is
        expect_forward = forms.direction(n) is figurate.Direction.FORWARD
        if forward != expect_forward or reverse == expect_forward:
            return f"classification mismatch: forward={forward} reverse={reverse} n mod 6 = {n % 6}"
    if figurate.figurate_embedding_dimension(kind, n) != len(gens):
        return None
    form = forms.cstar(n)
    fd = telescopic.is_free(form.arrangement, _semigroup=semigroup)
    if form.cstars != fd.cstars:
        return f"c* mismatch: closed={form.cstars} generic={fd.cstars}"
    if not fd:
        return "freeness product test failed"
    forms.presentation(n)  # a free decomposition: the c* multiply to n_1, each witness to c*_i n_i
    closed_betti = forms.betti(n)
    if closed_betti != telescopic.free_betti(fd):
        return f"Betti mismatch: closed={closed_betti} free={telescopic.free_betti(fd)}"
    # the closed box of c* against the oracle's genus, with no box built
    if not telescopic.box_is_apery(semigroup, form.arrangement, form.cstars):
        return "Apery mismatch between closed form and oracle"
    if telescopic.free_frobenius(fd) != values["closed"]:
        return "max(Apery) - anchor disagrees with the Frobenius number"
    if n <= betti_oracle_max_n and closed_betti != semigroup.betti_elements():
        return "Betti oracle disagrees with the closed form"
    return None


def _check_choose4(n: int) -> str | None:
    gens, cls = figurate.choose4_family(n)
    x = n % 6
    if n in (3, 4, 5):
        if cls is not figurate.TelescopicClass.BOTH:
            return f"expected both directions telescopic, got {cls.value}"
    else:
        forward_expected = x in (0, 1, 2)
        forward = cls in (figurate.TelescopicClass.FORWARD, figurate.TelescopicClass.BOTH)
        if forward != forward_expected:
            return f"forward classification mismatch at x={x}: {cls.value}"
        if n >= 9:
            reverse = cls in (figurate.TelescopicClass.REVERSE, figurate.TelescopicClass.BOTH)
            if reverse != (x in (3, 4, 5)):
                return f"reverse classification mismatch at x={x}: {cls.value}"
    if 3 <= n <= 20:
        reduction = telescopic.brauer_shockley_frobenius(gens)
        oracle = core.frobenius_oracle(gens)
        if reduction != oracle:
            return f"frobenius mismatch: reduction={reduction} oracle={oracle}"
    return None


def _check_arith(n: int) -> str | None:
    if n < 2:
        return None
    for k in range(2, n + 1):
        formula = figurate.brauer_arithmetic_frobenius(n, k)
        oracle = core.frobenius_oracle(figurate.arithmetic_generators(n, k))
        if formula != oracle:
            return f"k={k}: formula={formula} oracle={oracle}"
    return None


_VERIFY_CHECKS: dict[str, Callable[[int], str | None]] = {
    "triangular": functools.partial(_check_family, "triangular", 12),
    "tetrahedral": functools.partial(_check_family, "tetrahedral", 8),
    "choose4": _check_choose4,
    "arith": _check_arith,
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.family == "choose5perms":
        _refuse_options(args, "verify --family choose5perms", "range")
        report = figurate.choose5_counterexample()
        ok = report.telescopic_count == 0
        row = (SCHEMA_VERSION, "choose5perms", report.total, report.telescopic_count, ok)
        _emit(_format_payload(_Rows(("schema", "family", "total", "telescopic", "pass"), [row]), args.format), args.out)
        if not ok:
            print("counterexample: some permutation is telescopic", file=sys.stderr)
            return EXIT_COUNTEREXAMPLE
        return EXIT_OK

    if args.range is None:
        raise ValueError("--range a..b is required for this family")
    lo, hi = _parse_range(args.range)
    check = _VERIFY_CHECKS[args.family]
    rows = []
    for n in range(lo, hi + 1):
        detail = check(n)
        rows.append((SCHEMA_VERSION, args.family, n, detail is None, detail or ""))
    failures = [(n, detail) for _, _, n, ok, detail in rows if not ok]
    if args.format == "text":
        lines = [f"n={n} {'pass' if ok else 'FAIL ' + detail}" for _, _, n, ok, detail in rows]
        lines.append(f"{len(rows) - len(failures)}/{len(rows)} pass")
        payload = "\n".join(lines) + "\n"
    else:
        payload = _format_payload(_Rows(("schema", "family", "n", "pass", "detail"), rows), args.format)
    _emit(payload, args.out)
    if failures:
        print(f"first counterexample: n={failures[0][0]}: {failures[0][1]}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# table


TABLE_COLUMNS = ("n", "generators", "frobenius", "cstar", "betti", "direction")


def _choose4_row(n: int) -> tuple:
    gens, cls = figurate.choose4_family(n)
    ordered = gens if cls in (figurate.TelescopicClass.FORWARD, figurate.TelescopicClass.BOTH) else gens[::-1]
    semigroup = core.NumericalSemigroup(gens)
    fd = None
    if cls is not figurate.TelescopicClass.NEITHER:
        # the raw five-term sequence may carry redundant generators
        arrangement = telescopic.arranged_minimal(ordered, semigroup.generators)
        verdict = telescopic.is_free(arrangement, _semigroup=semigroup)
        fd = verdict if verdict else None
    frobenius = telescopic.brauer_shockley_frobenius(gens, _semigroup=semigroup)
    if fd is None:
        return (n, gens, frobenius, "", "", cls.value)
    return (n, gens, frobenius, fd.cstars, sorted(telescopic.free_betti(fd)), cls.value)


def cmd_table(args: argparse.Namespace) -> int:
    if args.family == "arith":
        _refuse_options(args, "table --family arith", "range")
        if args.n is None or args.k is None:
            raise ValueError("table --family arith needs --n N and --k a..b")
        klo, khi = _parse_range(args.k)
        columns: Sequence[str] = ("k", "generators", "frobenius")
        rows = [
            (k, figurate.arithmetic_generators(args.n, k), figurate.brauer_arithmetic_frobenius(args.n, k))
            for k in range(klo, khi + 1)
        ]
    else:
        _refuse_options(args, f"table --family {args.family}", "n", "k")
        if args.range is None:
            raise ValueError("--range a..b is required for this family")
        lo, hi = _parse_range(args.range)
        columns = TABLE_COLUMNS
        if args.family == "choose4":
            rows = [_choose4_row(n) for n in range(lo, hi + 1)]
        else:
            rows = [figurate.table_row(args.family, n) for n in range(lo, hi + 1)]
    table = _Rows(columns, rows)
    if args.format == "json":
        payload = _format_payload({"schema": SCHEMA_VERSION, "family": args.family, "rows": table}, "json")
    else:
        payload = table.write(args.format)
    _emit(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# perms


def cmd_perms(args: argparse.Namespace) -> int:
    if args.format == "csv":
        _refuse_options(args, "perms --format csv", "full")
    report = figurate.choose5_counterexample()
    record: dict = {
        "schema": SCHEMA_VERSION,
        "base": list(report.base),
        "total": report.total,
        "telescopic": report.telescopic_count,
        "pass": report.telescopic_count == 0,
    }
    if args.full:
        record["outcomes"] = [
            {"permutation": list(o.permutation), "failing_index": o.failing_index}
            for o in report.outcomes
        ]
    # a telescopic permutation has no failing index: an empty field
    _write_record(args, record, ("permutation", "failing_index"), lambda: [
        (o.permutation, "" if o.failing_index is None else o.failing_index) for o in report.outcomes
    ])
    return EXIT_OK if record["pass"] else EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """The ``numsemi`` parser.  Each sub-command is declared once: its
    handler, its help, the inputs of its required exclusive group and its
    other options, each an option string with its ``add_argument``
    keywords.  From the actions ``add_argument`` returns, ``reads`` records
    per sub-command the table ``_read_argv`` reads: the option strings of
    the actions that store one value or a flag, the required actions, the
    group's actions, and the namespace of an argv that gives no option."""
    n = {"type": int, "metavar": "N"}
    families = {"--triangular": n, "--tetrahedral": n}
    span = {"metavar": "A..B"}
    flag = {"action": "store_true"}
    grammar = (
        ("frobenius", cmd_frobenius, "Frobenius number of a generator family or list",
         {"--gens": {"help": "comma-separated generators, order preserved"}, **families,
          "--arith": {"metavar": "N,K", "help": "consecutive run n..n+k-1"}, "--choose4": n},
         {"--cross-check": {**flag, "help": "run all applicable methods"}}),
        ("analyze", cmd_analyze, "structure report: generators, c*, freeness, Betti, Apery",
         {"--gens": {}, **families},
         {"--full": {**flag, "help": "dump all Apery elements"},
          "--betti-bound": {"type": int, "help": "report only Betti elements up to this value"}}),
        ("verify", cmd_verify, "cross-check closed forms against oracles over a range", {},
         {"--family": {"required": True, "choices": ("triangular", "tetrahedral", "choose4", "choose5perms", "arith")},
          "--range": span}),
        ("table", cmd_table, "one row per index: generators, Frobenius, c*, Betti", {},
         {"--family": {"required": True, "choices": ("triangular", "tetrahedral", "choose4", "arith")},
          "--range": span, "--n": {"type": int, "help": "run start (family arith)"},
          "--k": {**span, "help": "run length range (family arith)"}}),
        ("perms", cmd_perms, "telescopic sweep over all permutations of the C(.,5) six-tuple", {},
         {"--full": {**flag, "help": "list every permutation outcome"}}),
    )
    common = {
        "--format": {"choices": ("text", "json", "csv"), "default": "text"},
        "--out": {"help": "write output to PATH instead of stdout"},
    }
    parser = argparse.ArgumentParser(prog="numsemi", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    parser.reads = {}
    for name, func, summary, inputs, options in grammar:
        sub = commands.add_parser(name, help=summary)
        sub.set_defaults(func=func)
        group = sub.add_mutually_exclusive_group(required=True) if inputs else None
        members = [group.add_argument(option, **kw) for option, kw in inputs.items()]
        actions = members + [sub.add_argument(option, **kw) for option, kw in {**options, **common}.items()]
        parser.reads[name] = (
            {option: a for a in actions if a.nargs in (None, 0) for option in a.option_strings},
            [a for a in actions if a.required],
            members,
            {"command": name, "func": func, **{a.dest: a.default for a in actions}},
        )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call."""
    return build_parser()


def _read_argv(argv: Sequence[str]) -> argparse.Namespace | None:
    """``_parser().parse_args(argv)`` for an argv that is a sub-command and
    its exact option strings, each given once, each store option with one
    value not starting with ``-`` that its type and choices accept, with
    every required option present and one input of the exclusive group.
    None for any other argv: argparse reads it, and prints every help,
    usage and error text."""
    read = _parser().reads.get(argv[0]) if argv else None
    if read is None:
        return None
    options, required, group, start = read
    given: dict[argparse.Action, object] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None or action in given:
            return None
        if action.nargs == 0:
            value = action.const
        else:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except (TypeError, ValueError, argparse.ArgumentTypeError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
        given[action] = value
    if any(a not in given for a in required):
        return None
    if group and sum(a in given for a in group) != 1:
        return None
    args = argparse.Namespace(**start)
    for action, value in given.items():
        setattr(args, action.dest, value)
    return args


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_INVALID_INPUT
    try:
        return args.func(args)
    except OverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except ValueError as exc:  # NotCoprimeError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
