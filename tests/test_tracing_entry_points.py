"""The benchmark tracer wraps frobval entry points by name; a renamed or
deleted name must fail here rather than break a traced benchmark run."""

import inspect
import pathlib
import sys

import frobval.cli  # noqa: F401  (imports every traced module)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def frobval_bindings():
    """Every (module, name) -> object binding in the loaded frobval modules,
    plus the class attributes the tracer reaches by dotted path."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "frobval" or mod_name.startswith("frobval.")):
            out.update(((mod_name, k), v) for k, v in vars(mod).items())
    for mod_name, path in tracing.ENTRY_POINTS:
        *outer, attr = path.split(".")
        owner = sys.modules[f"frobval.{mod_name}"]
        for part in outer:
            owner = getattr(owner, part)
        out[(mod_name, path)] = inspect.getattr_static(owner, attr)
    return out


def test_tracer_installs_and_restores_every_entry_point():
    before = frobval_bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = frobval_bindings()
        for mod_name, path in tracing.ENTRY_POINTS:
            assert during[(mod_name, path)] is not before[(mod_name, path)], path
    finally:
        tracer.uninstall()
    after = frobval_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


TRACED_SCRIPTS = (
    "field p=5 vars(x,y)\nvaluation v = series { x -> t, y -> factorial_gap }\neval v y - x\n",
    "field p=5 ground(u) vars(x,y)\nvaluation v = divisorial u*x + u^2*y\nclassify v\n",
    "field p=5 vars(x,y)\nvaluation v = monomial { x: 1, y: sqrt(2) }\ninQ v x\nclassify v\n",
)


def test_traced_scripts_reach_every_counted_layer():
    # the spans and counts that a traced benchmark run reads, on one script
    # per kind, with every binding restored afterwards
    before = frobval_bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for script in TRACED_SCRIPTS:
            assert frobval.cli.run_script(script)[0] == 0, script
    finally:
        tracer.uninstall()
    calls = {name: n for name, (n, _) in tracer.layer_totals().items()}
    for name in ("valuations.Valuation.__init__", "valuations.Valuation.value_of_poly",
                 "valuations.Valuation.residue_invariants",
                 "function_field.eval_poly_as_series", "function_field.exact_divide",
                 "ordered_groups.hnf_rows", "classifier.classify"):
        assert calls[name] > 0, name
    assert tracer.series_values >= 1 and tracer.exact_divide_hits >= 1
    after = frobval_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
