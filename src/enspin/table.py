"""The period-8 algebra table next to computed closure dimensions.

algebra_table lists, for each n, the Clifford algebra C(R^n) and the
compact type the paper attaches to n mod 8, beside the dimension of the
spin generators' closure.  The writers render its rows, and the generic
Markdown and CSV writers here also render enspin.report's verify rows.
This module loads neither the analysis nor the deltas layer, so
``enspin report`` compiles no verify pipeline.
"""

from __future__ import annotations

import json

from . import closure
from .bott import bott_algebra, closure_type, max_compact
from .closure import check_ambient
from .spinrep import spin_generators


def _markdown(cols: list[str], rows: list[list]) -> str:
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    # None, a cell with nothing to compare, reads "--" here and blank in CSV
    cells = (("--" if v is None else str(v) for v in row) for row in rows)
    lines += ["| " + " | ".join(row) + " |" for row in cells]
    return "\n".join(lines) + "\n"


def _csv(cols: list[str], rows: list[list]) -> str:
    # imported here, so JSON and Markdown runs never load csv
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cols)
    w.writerows(rows)
    return buf.getvalue()


def algebra_table(to_n: int) -> list[dict]:
    """Clifford and compact-type descriptors next to computed closure dims,
    one JSON row per n; closure_dim and match are None where nothing is compared."""
    if to_n < 2:
        raise ValueError(f"table needs to_n >= 2, got {to_n}")
    check_ambient(to_n)
    rows: list[dict] = []
    for n in range(2, to_n + 1):
        alg, typ = bott_algebra(n), max_compact(n)
        row = {"n": n, "clifford": str(alg), "clifford_dim": alg.real_dimension(),
               "max_compact": str(typ), "type_dim": typ.dimension(),
               "closure_dim": None, "match": None, "note": ""}
        if n >= 3:
            # read through its module, where the benchmark tracer binds it
            row["closure_dim"] = dim = closure.blade_closure(n, spin_generators(n).masks).dim
            image = closure_type(n)
            if image == typ:
                row["match"] = dim == typ.dimension()
            else:
                row["note"] = f"image is {image}, one dimension above the listed type"
        rows.append(row)
    return rows


def table_to_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2) + "\n"


def _table_cells(rows: list[dict]) -> list[list]:
    yes_no = {None: None, True: "yes", False: "no"}
    return [list({**row, "match": yes_no[row["match"]]}.values()) for row in rows]


def table_to_markdown(rows: list[dict]) -> str:
    cols = ["n", "clifford", "dim C", "max compact", "type dim", "closure dim", "match", "note"]
    return _markdown(cols, _table_cells(rows))


def table_to_csv(rows: list[dict]) -> str:
    cols = ["n", "clifford", "clifford_dim", "max_compact",
            "type_dim", "closure_dim", "match", "note"]
    return _csv(cols, _table_cells(rows))
