"""Compare frobval's JSON output for one script with the expected answers."""

from __future__ import annotations

import json

# fields whose JSON value is a verdict object {"value": ..., "citations": ...}
VERDICTS = ("f_finite", "frobenius_split")


def _command_problem(op, fields, line):
    """Why one command's output line is wrong, or None if it is right."""
    if line is None:
        return "not answered"
    try:
        obj = json.loads(line)
    except ValueError:
        return f"output is not JSON: {line!r}"
    # classify prints the bare report object, which carries no "op"
    got_op = obj.get("op", "classify")
    if got_op != op:
        return f"expected op {op}, got {got_op}"
    for key, want in fields.items():
        got = obj.get(key)
        if key in VERDICTS and isinstance(got, dict):
            got = got.get("value")
        if got != want:
            return f"{key}: expected {want!r}, got {got!r}"
    return None


def check_script(script, code, out):
    """(failed command count, problem descriptions) for one script run.

    Each command must produce exactly its expected output line.  With a
    non-zero exit code the last line is frobval's error object, and every
    command not answered before it fails.
    """
    answered = out[:-1] if code != 0 else out
    problems = []
    for idx, (op, fields) in enumerate(script.expect):
        line = answered[idx] if idx < len(answered) else None
        why = _command_problem(op, fields, line)
        if why:
            problems.append(f"command {idx + 1} ({op}): {why}")
    failed = len(problems)
    if code != 0:
        problems.append(f"exit code {code}: {out[-1] if out else 'no output'}")
    elif len(answered) > len(script.expect):
        problems.append(f"{len(answered) - len(script.expect)} unexpected output lines")
    if problems and not failed:
        failed = 1
    return failed, problems
