"""Golden regression files: tolerant comparison and versioned storage.

A *golden* is the committed, version-controlled record of what one
(scenario × setup) cell produced: the accepted candidate clusters, the
vetoed clusters, the verdict, the drop/fault ledger and the score.  The
``check`` mode of :mod:`repro.scenarios.regression` re-runs the cell and
compares against the golden with :func:`compare_documents` — exact for
structure, strings, integers and booleans, tolerant
(``rtol``/``atol``, numpy.isclose semantics) for floats, so a golden
survives harmless floating-point drift (library upgrades, FMA
differences) but fails loudly on real behaviour change.

Documents are timestamp-free and serialised with sorted keys, so the
golden bytes are a pure function of (scenario, setup, seed, code).
``schema`` versioning matches the rest of the repo — files written by a
newer repro raise :class:`~repro.errors.SchemaVersionError` instead of
being misread (and are left untouched on disk).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import SchemaVersionError, ValidationError

#: Version stamp written into every golden document.
GOLDEN_SCHEMA_VERSION: int = 1
#: Schemas this build can read.
SUPPORTED_GOLDEN_SCHEMAS = (1,)

#: Default float tolerances of the comparator (numpy.isclose semantics).
DEFAULT_RTOL = 1e-5
DEFAULT_ATOL = 1e-8

#: Repo-relative home of the committed goldens.
DEFAULT_GOLDENS_DIR = Path("results") / "goldens"


def golden_path(root: str | Path, setup_key: str, scenario: str) -> Path:
    """Where the golden for one (setup, scenario) cell lives."""
    return Path(root) / setup_key / f"{scenario}.json"


def save_golden(document: dict, path: str | Path) -> Path:
    """Write a golden document (sorted keys, schema-stamped)."""
    if not isinstance(document, dict):
        raise ValidationError("a golden document must be a dict")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    stamped = {"schema": GOLDEN_SCHEMA_VERSION, **document}
    path.write_text(json.dumps(stamped, indent=1, sort_keys=True) + "\n")
    return path


def load_golden(path: str | Path) -> dict:
    """Read a golden document, enforcing the schema contract."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(
            f"no golden at {path} — record it first with "
            f"'repro scenarios record'"
        )
    document = json.loads(path.read_text())
    schema = document.get("schema")
    if schema not in SUPPORTED_GOLDEN_SCHEMAS:
        if isinstance(schema, int) and schema > max(
            SUPPORTED_GOLDEN_SCHEMAS
        ):
            raise SchemaVersionError(
                f"unsupported golden schema {schema!r} in {path}: this "
                f"file was written by a newer version of repro (this "
                f"build reads schemas up to "
                f"{max(SUPPORTED_GOLDEN_SCHEMAS)})"
            )
        raise ValidationError(
            f"unsupported golden schema {schema!r} in {path}"
        )
    document.pop("schema")
    return document


# ----------------------------------------------------------------------
# Tolerant comparison
# ----------------------------------------------------------------------
def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_documents(
    expected,
    actual,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    path: str = "$",
) -> list[str]:
    """Structural diff of two JSON-ready documents; empty means equal.

    * dict / list structure, strings and booleans compare exactly;
    * two numbers compare with ``|e - a| <= atol + rtol * |e|`` when
      either side is a float (``rtol=0, atol=0`` makes floats exact
      too — the round-trip property test uses that);
    * an int never matches a bool (JSON distinguishes them and so do
      candidate counts vs flags).

    Returns human-readable difference strings, each prefixed with the
    JSONPath-ish location, so a failing golden check says *where*.
    """
    diffs: list[str] = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                diffs.append(f"{path}.{key}: unexpected key")
            elif key not in actual:
                diffs.append(f"{path}.{key}: missing key")
            else:
                diffs.extend(
                    compare_documents(
                        expected[key], actual[key], rtol, atol,
                        f"{path}.{key}",
                    )
                )
        return diffs
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            diffs.append(
                f"{path}: length {len(actual)} != expected {len(expected)}"
            )
            return diffs
        for i, (e, a) in enumerate(zip(expected, actual)):
            diffs.extend(
                compare_documents(e, a, rtol, atol, f"{path}[{i}]")
            )
        return diffs
    if isinstance(expected, bool) or isinstance(actual, bool):
        if expected is not actual:
            diffs.append(f"{path}: {actual!r} != expected {expected!r}")
        return diffs
    if _is_number(expected) and _is_number(actual):
        if isinstance(expected, int) and isinstance(actual, int):
            if expected != actual:
                diffs.append(
                    f"{path}: {actual!r} != expected {expected!r}"
                )
        elif not abs(actual - expected) <= atol + rtol * abs(expected):
            diffs.append(
                f"{path}: {actual!r} != expected {expected!r} "
                f"(rtol={rtol}, atol={atol})"
            )
        return diffs
    if type(expected) is not type(actual) or expected != actual:
        diffs.append(f"{path}: {actual!r} != expected {expected!r}")
    return diffs
