"""Machine-readable verification reports, and the one sampling loop and
tally that every sampled check runs through.

Reports are deterministic for a fixed configuration: no timestamps, sorted
keys, and all sampling drawn from the seeded stream in a fixed iteration
order, so identical configs produce byte-identical JSON.

A sampled check draws each sample through first_defined, which retries a
draw that falls outside the set being sampled until its draw budget runs
out, and counts the sample with CheckResult.record, which keeps the first
few counterexamples.  Both limits are written once, in those two places.
check_count rejects a count that would draw nothing before a suite draws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from .errors import OverlapNotSampled


def dumps(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True) byte for byte, for string
    keys, without the json module's indenting encoder: its closures leave a
    reference cycle behind on every call."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = [f"{_quote(k)}: {dumps(v, inner)}" for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + inner + ("," + inner).join([dumps(v, inner) for v in obj]) + pad + "]"
    if isinstance(obj, str):
        return _quote(obj)
    if type(obj) is int:  # json.dumps builds an encoder for each int and bool
        return repr(obj)
    if type(obj) is bool:
        return "true" if obj else "false"
    return json.dumps(obj)


def check_count(name: str, value: int, least: int = 1) -> None:
    """Raise ValueError for a count below least, before a suite draws: a
    sampled check that draws nothing would pass on no evidence."""
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def first_defined(attempt, rejects, what: str):
    """Return the first value of attempt() that raises none of `rejects`.

    attempt draws one instance and evaluates it; a rejected draw lies
    outside the set being sampled and is retried.  When every draw of the
    budget is rejected, raise OverlapNotSampled naming `what`.
    """
    for _ in range(400):
        try:
            return attempt()
        except rejects:
            pass
    raise OverlapNotSampled(f"could not sample {what}")


@dataclass
class CheckResult:
    check: str
    instance: str
    samples: int = 0
    passed: int = 0
    failed: int = 0
    counterexamples: list = field(default_factory=list)
    note: str = ""
    gating: bool = True

    def record(self, ok: bool, example) -> None:
        """Count one sample.  `example` is a zero-argument callable that
        builds the counterexample; it is called only for a failure that is
        kept."""
        self.samples += 1
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.counterexamples) < 3:
                self.counterexamples.append(example())

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "samples": self.samples,
            "passed": self.passed,
            "failed": self.failed,
            "counterexamples": self.counterexamples,
            "note": self.note,
            "gating": self.gating,
        }


@dataclass
class Report:
    suite: str
    config: dict
    results: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.failed == 0 for r in self.results if r.gating)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "ok": self.ok,
            "results": [r.to_dict() for r in self.results],
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return dumps(self.to_dict())

    def summary(self) -> str:
        lines = [f"suite: {self.suite}  [{'PASS' if self.ok else 'FAIL'}]"]
        for r in self.results:
            tag = "PASS" if r.failed == 0 else "FAIL"
            if r.samples == 0 and r.note:
                tag = "SKIP"
            extra = f"  ({r.note})" if r.note else ""
            audit = "" if r.gating else "  [audit]"
            lines.append(
                f"  {tag} {r.check} {r.instance}: {r.passed}/{r.samples}{extra}{audit}"
            )
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)
