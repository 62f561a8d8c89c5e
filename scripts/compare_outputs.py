"""Check that two source trees print the same bytes.

    python3 scripts/compare_outputs.py --parent OLD_TREE --change NEW_TREE [--rounds 3]

A tree is a checkout of this repository.  Each tree runs in a fresh
interpreter that imports ``frobval`` from the tree's own ``src/``.  There
``cli.run_script`` runs, in text and in JSON, on

* ``--rounds`` seeded rounds of every workload at seeds 0 and 1, drawn from
  the change tree's ``perfbench/workloads.py`` (loaded by path, only read);
* the tree's own fixture scripts;
* every ``tests/goldens/*.frob`` of the change tree;
* the failing scripts of ``ERROR_SCRIPTS``, whose one line is an error:
  an unrecognized statement, parse errors at tokens that JSON escapes, an
  unknown valuation, six domain errors (among them each of the three
  reasons a divisorial polynomial is refuted), five flat texts that only the
  token reader rejects (``2 3``, ``x^2^``, ``x*`` an Arabic-Indic three,
  ``x/y/x`` and a literal of 1,001 digits), and a field line and a
  valuation line joined by U+001C, which ends no line, so they are one
  unrecognized statement;

and ``cli.main`` prints ``frobval fixtures``, and ``frobval selftest`` in
both formats for seeds 0-9.  Both trees get the same scripts, in the same
order.  The script prints one md5 per tree over all of it, then one
``difference:`` line per script and format whose exit code or output differ
and how many of all outputs that is, and exits 1 on any difference, else 0.
It edits neither tree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys

SEEDS = (0, 1)
SELFTEST_SEEDS = range(10)
_LEX = "field p=5 vars(x)\nvaluation v = lex { x }\n"
# scripts that stop on an error (see the module docstring); the astral
# token is escaped in JSON as a surrogate pair; tests/test_cli.py loads this
# table and pins the exit code, JSON line and text line of each by name
ERROR_SCRIPTS = {
    "unrecognized": "field p=5 vars(x)\nnonsense\n",
    "e-acute": _LEX + "eval v x*\u00e9\n",
    "quote": _LEX + 'eval v x*"\n',
    "backslash": _LEX + "eval v x*\\\n",
    "snowman": _LEX + "eval v x*\u2603\n",
    "astral": _LEX + "eval v x*\U0001d53d\n",
    "unknown-valuation": _LEX + "eval w x\n",
    "zero-denominator": _LEX + "eval v x/0\n",
    "reducible-divisor": "field p=5 vars(x)\nvaluation v = divisorial (x+1)^2\n",
    "p-th-power": "field p=5 vars(x,y)\nvaluation v = divisorial x^5 + y^5\n",
    "variable-divides": "field p=5 vars(x,y)\nvaluation v = divisorial x*y + x\n",
    "ord-undetermined": ("field p=5 vars(x)\nvaluation v = series { x -> t + t^2 }\n"
                         "eval v x^70000\n"),
    "p-too-large": "field p=1000000000039 vars(x)\n",
    "two-literals": _LEX + "eval v 2 3\n",
    "trailing-caret": _LEX + "eval v x^2^\n",
    "arabic-digit": _LEX + "eval v x*\u0663\n",
    "second-slash": ("field p=5 vars(x,y)\nvaluation v = lex { x: (1, 0), y: (0, 1) }\n"
                     "eval v x/y/x\n"),
    "long-literal": _LEX + "eval v " + "1" * 1001 + "\n",
    "line-separator": "field p=5 vars(x)\x1cvaluation v = lex { x }\n",
}


def workload_scripts(tree, rounds):
    """(name, text) of `rounds` rounds of every workload of `tree` at each
    seed of SEEDS."""
    path = os.path.join(tree, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("compared_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    scripts = []
    for workload in module.WORKLOADS:
        for seed in SEEDS:
            stream = module.rounds(workload, seed)
            for r in range(rounds):
                for i, script in enumerate(next(stream)):
                    scripts.append((f"{workload} seed {seed} round {r} script {i}", script.text))
    return scripts


def golden_scripts(tree):
    """(name, text) of every golden script of `tree`, by file name."""
    gdir = os.path.join(tree, "tests", "goldens")
    names = sorted(n for n in os.listdir(gdir) if n.endswith(".frob"))
    scripts = []
    for name in names:
        with open(os.path.join(gdir, name), encoding="utf-8") as fh:
            scripts.append((f"golden {name}", fh.read()))
    return scripts


def tree_outputs(src, scripts):
    """[name, format, exit code, output lines] for every script of
    `scripts`, each fixture script, each of ERROR_SCRIPTS, ``frobval
    fixtures`` and ``frobval selftest`` at every seed, with ``frobval``
    imported from `src`.  Run in a fresh interpreter (see ``main``)."""
    sys.path.insert(0, src)
    from frobval.cli import FIXTURE_SCRIPTS, main, run_script

    def command(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        return [code, buf.getvalue().splitlines()]

    scripts = (list(scripts) + [(f"fixture {n}", t) for n, t in FIXTURE_SCRIPTS.items()]
               + [(f"error {n}", t) for n, t in ERROR_SCRIPTS.items()])
    outputs = [["frobval fixtures", "text", *command("fixtures")]]
    for name, text in scripts:
        for fmt in ("text", "json"):
            outputs.append([name, fmt, *run_script(text, fmt=fmt)])
    for seed in SELFTEST_SEEDS:
        for fmt in ("text", "json"):
            outputs.append([f"frobval selftest --seed {seed}", fmt,
                            *command("--format", fmt, "--seed", str(seed), "selftest")])
    return outputs


def start_tree(tree):
    """A fresh interpreter that prints the outputs of `tree` on the scripts
    it reads from stdin."""
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--outputs-of", os.path.join(tree, "src")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def digest(outputs) -> str:
    return hashlib.md5(json.dumps(outputs).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--outputs-of", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.outputs_of:
        json.dump(tree_outputs(args.outputs_of, json.load(sys.stdin)), sys.stdout)
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    scripts = workload_scripts(args.change, args.rounds) + golden_scripts(args.change)
    trees = {"parent": args.parent, "change": args.change}
    # the two trees run side by side, each in its own interpreter: each reads
    # all its scripts before it prints, so both get them before either is read
    procs = {label: start_tree(tree) for label, tree in trees.items()}
    for proc in procs.values():
        with proc.stdin:
            proc.stdin.write(json.dumps(scripts))
    sides = {}
    for label, proc in procs.items():
        with proc.stdout:
            out = proc.stdout.read()
        if proc.wait():
            print(f"{label}: exit {proc.returncode} ({trees[label]})")
            return 1
        sides[label] = json.loads(out)
        print(f"{label}: md5 {digest(sides[label])} over {len(sides[label])} outputs "
              f"({trees[label]})")
    differ = [old[:2] for old, new in zip(sides["parent"], sides["change"]) if old != new]
    for name, fmt in differ:
        print(f"difference: {name} ({fmt})")
    if differ:
        print(f"{len(differ)} of {len(sides['parent'])} outputs differ")
    if len(sides["parent"]) != len(sides["change"]):
        print("the trees print different numbers of outputs")
    elif not differ:
        print("identical")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
