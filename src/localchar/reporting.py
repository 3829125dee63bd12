"""Report assembly: canonical JSON and plain-text summary tables.

Reports are byte-stable for a fixed (config, seed, version) once the timing
block is stripped; `canonical_json` drops every key named "timing" so stored
reports can be compared exactly.
"""

from __future__ import annotations

import json

from . import __version__


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(strip_timing(obj), sort_keys=True, indent=1)


def full_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def assemble(command: str, config: dict, results, verdict: bool,
             timing: float) -> dict:
    return {
        "tool": "localchar",
        "version": __version__,
        "command": command,
        "config": config,
        "results": results,
        "verdict": "pass" if verdict else "fail",
        "timing": round(timing, 3),
    }


def summary_table(rows, headers) -> str:
    widths = [len(h) for h in headers]
    srows = []
    for row in rows:
        srow = [str(c) for c in row]
        widths = [max(w, len(c)) for w, c in zip(widths, srow)]
        srows.append(srow)
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in srows]
    return "\n".join(lines)


def write_report(report: dict, path):
    text = full_json(report)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text
