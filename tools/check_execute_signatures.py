#!/usr/bin/env python
"""Lint the execute stack's keyword-argument names.

The execution facade (`repro.run`) unified the kwargs of every
dedispersion entrypoint: batches are ``input_data``, delay tables are
``delay_table``, destination buffers are ``out``, and executor
selection is ``backend``.  This lint pins those names so they cannot
drift apart again — the pre-facade stack had ``input_batch`` in some
layers and no ``out``/``backend`` in others, which is exactly the
inconsistency the redesign removed.  Only the work-group body writes
into an ``out``: the kernel body the facade launches allocates its own
output, and its pin admits no destination buffer.

Three checks:

* every pinned entrypoint (``PINNED``) carries exactly the agreed
  parameter list, in order.  The pins are the facade's ``execute``,
  the kernel body it dispatches to, the :class:`SignalSource`
  protocol, the tuning service's settings, its ``resolve`` entrypoint
  and its :class:`TuneRequest`, the tuner's sweep, the sweep loader,
  the fleet's service-time model, and the matched-filter detector's
  settings, its two entry points and the slab body they share; a
  pinned file or name that goes missing is an error.  A pinned *class*
  is a dataclass whose settable fields (annotated names not declared
  ``field(init=False)``) are pinned the same way: ``execute(request)``
  takes one :class:`ExecutionRequest`, so its fields are the facade's
  real keyword set, and a new request setting needs a visible edit
  here;
* no ``execute``/``generate``/``add_to``/``resolve``-family function,
  and no pinned class, in the pinned files reintroduces a banned alias
  (``ALIASES``) for one of the agreed names;
* :class:`MatchedFilterDetector` is the one detector: no module under
  ``src/repro`` but ``repro/astro/__init__.py``, and no file under
  ``examples/`` or ``benchmarks/``, imports ``repro.astro.snr``, the
  scalar filter the detector's tests use as their oracle.

Every :class:`SignalSource` speaks ``generate(setup, n_samples,
streams)``: seeding always flows through a
:class:`~repro.utils.rng.RandomStreams`, never loose ``seed``/``rng``
parameters.

Run from the repository root (CI does)::

    python tools/check_execute_signatures.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: qualified name -> (file, exact parameter names, in order, sans self;
#: for a class, its settable dataclass fields in order).
PINNED: dict[str, tuple[str, tuple[str, ...]]] = {
    "execute": (
        "repro/run/facade.py",
        ("request",),
    ),
    "ExecutionRequest": (
        "repro/run/facade.py",
        (
            "data",
            "delay_table",
            "kernel",
            "plan",
            "chunks",
            "backend",
            "detector",
        ),
    ),
    # The executor body the facade dispatches to; it allocates its own
    # output, so a destination-buffer parameter fails the pin.
    "DedispersionKernel._execute": (
        "repro/opencl_sim/kernel.py",
        ("input_data", "delay_table", "backend"),
    ),
    "SignalSource.generate": (
        "repro/astro/source.py",
        ("setup", "n_samples", "streams"),
    ),
    "SignalSource.add_to": (
        "repro/astro/source.py",
        ("data", "setup", "streams"),
    ),
    # A cold miss runs the request's strategy or the exhaustive sweep:
    # no service setting changes how a miss is tuned, and the queue
    # bound is the module constant QUEUE_LIMIT.
    "TuningService.__init__": (
        "repro/service/service.py",
        ("store_dir", "max_workers", "timeout_s", "tuner_factory", "registry"),
    ),
    # resolve(request) is the one request entrypoint of the tuning
    # service; a request names its instance and, optionally, a search
    # strategy, and nothing else.
    "TuningService.resolve": (
        "repro/service/service.py",
        ("request",),
    ),
    "TuneRequest": (
        "repro/service/request.py",
        ("setup", "n_dms", "device", "strategy"),
    ),
    # The tuner sweeps the whole meaningful space, and a saved sweep
    # always loads verified against the model: no candidate subset, no
    # skipped check.
    "AutoTuner.tune": (
        "repro/core/tuner.py",
        ("grid", "samples"),
    ),
    "load_sweep": (
        "repro/core/persistence.py",
        ("path",),
    ),
    # The fleet tunes each shard shape with AutoTuner directly, as
    # DedispersionPlan.create does, not through a tuning service.
    "ServiceTimeModel.__init__": (
        "repro/sched/workers.py",
        ("setup", "grid"),
    ),
    # The detector is a threshold and a bank of widths, and one body
    # folds every slab through the bank: a second path or a setting
    # such as a threshold floor fails these pins.
    "MatchedFilterDetector": (
        "repro/search/detect.py",
        ("snr_threshold", "widths"),
    ),
    "MatchedFilterDetector.detect": (
        "repro/search/detect.py",
        ("dedispersed", "dms", "time_offset", "beam", "account"),
    ),
    "MatchedFilterDetector.detect_slabs": (
        "repro/search/detect.py",
        ("slabs", "dms", "time_offset", "beam", "account"),
    ),
    "MatchedFilterDetector._best_of_slab": (
        "repro/search/detect.py",
        ("slab", "account"),
    ),
}

#: The scalar S/N module, kept as the detector's test oracle.
ORACLE = "repro.astro.snr"

#: The one program file that may import the oracle: the package that
#: re-exports it.
ORACLE_EXPORTER = SRC / "repro" / "astro" / "__init__.py"

#: Spellings the redesign retired; none may reappear in an
#: execute-family signature within the pinned files.
ALIASES: dict[str, str] = {
    "input_batch": "input_data",
    "data_in": "input_data",
    "delays": "delay_table",
    "output": "out",
    "out_buffer": "out",
    "executor": "backend",
    "kernel_backend": "backend",
    "num_samples": "n_samples",
    "nsamples": "n_samples",
    "rng": "streams",
    "seed": "streams",
}

#: Function-name families the alias ban sweeps over.
FAMILIES = ("execute", "generate", "add_to", "resolve")


def _init_false(value: ast.expr | None) -> bool:
    """Whether a field default is ``field(..., init=False)``."""
    return isinstance(value, ast.Call) and any(
        keyword.arg == "init"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is False
        for keyword in value.keywords
    )


def _signature(node: ast.FunctionDef | ast.ClassDef) -> tuple[str, ...]:
    """Parameter names, positional then keyword-only, without self.

    For a class: its settable dataclass fields, in declaration order.
    """
    if isinstance(node, ast.ClassDef):
        return tuple(
            member.target.id
            for member in node.body
            if isinstance(member, ast.AnnAssign)
            and isinstance(member.target, ast.Name)
            and not _init_false(member.value)
        )
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if names and names[0] == "self":
        names = names[1:]
    return tuple(names)


def collect(path: Path) -> dict[str, tuple[ast.AST, str]]:
    """qualname -> (node, relpath) for every function and class in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    rel = str(path.relative_to(SRC))
    found: dict[str, tuple[ast.AST, str]] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = (node, rel)
        elif isinstance(node, ast.ClassDef):
            found[node.name] = (node, rel)
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    found[f"{node.name}.{member.name}"] = (member, rel)
    return found


def oracle_imports() -> list[str]:
    """Program files that import :data:`ORACLE`, as lint errors."""
    errors: list[str] = []
    paths = [
        *sorted((SRC / "repro").rglob("*.py")),
        *sorted((ROOT / "examples").rglob("*.py")),
        *sorted((ROOT / "benchmarks").rglob("*.py")),
    ]
    for path in paths:
        if path == ORACLE_EXPORTER:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if ORACLE in names:
                errors.append(
                    f"{path.relative_to(ROOT)}:{node.lineno}: imports "
                    f"{ORACLE}; detect with MatchedFilterDetector instead"
                )
    return errors


def main() -> int:
    errors: list[str] = oracle_imports()
    definitions: dict[str, tuple[ast.AST, str]] = {}
    for relpath in sorted({file for file, _ in PINNED.values()}):
        path = SRC / relpath
        if not path.exists():
            errors.append(f"{relpath}: pinned file is missing")
            continue
        definitions.update(collect(path))

    for qualname, (relpath, expected) in sorted(PINNED.items()):
        entry = definitions.get(qualname)
        if entry is None:
            errors.append(f"{relpath}: pinned entrypoint {qualname} is gone")
            continue
        node, where = entry
        actual = _signature(node)
        if actual != expected:
            errors.append(
                f"{where}:{node.lineno}: {qualname} has parameters "
                f"{list(actual)}, expected {list(expected)}"
            )

    for qualname, (node, where) in sorted(definitions.items()):
        if isinstance(node, ast.ClassDef):
            if qualname not in PINNED:
                continue
        elif not any(f in node.name for f in FAMILIES):
            continue
        for name in _signature(node):
            if name in ALIASES:
                errors.append(
                    f"{where}:{node.lineno}: {qualname} uses retired "
                    f"parameter name {name!r}; spell it "
                    f"{ALIASES[name]!r}"
                )

    if errors:
        print(f"{len(errors)} execute-signature violation(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"checked {len(PINNED)} pinned entrypoints: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
