"""Structured check reports and their deterministic renderings.

Every verification routine returns a ``CheckReport``; batches of reports are
serialized as canonical JSON (sorted keys, no timestamps) so that identical
configuration and seed reproduce byte-identical output.
"""

from __future__ import annotations

import json


class CheckReport:
    def __init__(self, check: str, passed: bool | None, params: dict | None = None,
                 trials: int | None = None, witnesses: list | None = None,
                 info: dict | None = None):
        self.check = check
        self.passed = passed    # None marks a diagnostic or skipped check
        self.params = {} if params is None else params
        self.trials = trials
        self.witnesses = [] if witnesses is None else witnesses
        self.info = {} if info is None else info

    @property
    def gating(self) -> bool:
        """Whether the report counts toward the suite exit code."""
        return self.passed is not None

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "spec": self.params,
            "trials": self.trials,
            "pass": self.passed,
            "witnesses": self.witnesses,
            "info": self.info,
        }

def all_passed(reports: list[CheckReport]) -> bool:
    return all(r.passed for r in reports if r.gating)


def dumps_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_text(doc: dict) -> str:
    title = doc.get("command", "report")
    if doc.get("what"):
        title = f"{title} {doc['what']}"
    if doc.get("suite"):
        title = f"{title} {doc['suite']}"
    lines = [f"# {title}"]
    for key, val in sorted(doc.get("config", {}).items()):
        lines.append(f"  {key} = {val}")
    for rep in doc.get("checks", []):
        status = {True: "PASS", False: "FAIL", None: "DIAG"}[rep["pass"]]
        lines.append(f"[{status}] {rep['check']}")
        for wit in rep["witnesses"]:
            lines.append(f"    witness: {wit}")
    for key in sorted(doc):
        if key in ("command", "what", "suite", "config", "checks", "pass"):
            continue
        lines.append(f"{key}: {json.dumps(doc[key], sort_keys=True)}")
    if "pass" in doc:
        lines.append(f"overall: {'PASS' if doc['pass'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render_latex(doc: dict) -> str:
    def esc(s: str) -> str:
        return (str(s).replace("\\", r"\textbackslash{}").replace("_", r"\_")
                .replace("&", r"\&").replace("%", r"\%").replace("#", r"\#")
                .replace("{", r"\{").replace("}", r"\}"))

    lines = [
        r"\begin{tabular}{ll}",
        r"\hline",
        r"check & result \\",
        r"\hline",
    ]
    for rep in doc.get("checks", []):
        status = {True: "pass", False: "fail", None: "diagnostic"}[rep["pass"]]
        lines.append(rf"{esc(rep['check'])} & {status} \\")
    lines += [r"\hline", r"\end{tabular}", ""]
    return "\n".join(lines)
