"""The benchmark's workloads: the library calls a CLI subcommand makes, and
the report bytes it would write.

Each workload runs one configuration per suite call.  The random suites draw
their seed from a pool of ``POOL`` consecutive seeds whose report digests
are recorded in ``reference.json``; offset 0 is the acceptance seed, and the
traced run always uses it so its counts compare across runs.  ``commutant``
has no random input.

Serialization follows ``nugrass.cli``: ``Report.to_json() + "\\n"`` for the
suites, ``json.dumps(data, indent=2, sort_keys=True) + "\\n"`` for nulie.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext

from nugrass.action import verify_action_axioms, verify_action_gluing, verify_transitivity
from nugrass.atlas import verify_cocycle
from nugrass.nulie import h_report

POOL = 16
DIMS = (1, 2, 2, 3)  # the atlas 1|2(2|3): 10 charts


def no_span(_key):
    return nullcontext()


def digest(payloads: list[str]) -> str:
    return hashlib.sha256("".join(payloads).encode()).hexdigest()


def gating_samples(payloads: list[str]) -> int:
    """Accepted gating samples over every report of one suite call."""
    return sum(r["samples"] for p in payloads
               for r in json.loads(p).get("results", ()) if r["gating"])


def _count(results, check, samples) -> int:
    return sum(1 for r in results if r["check"] == check and r["samples"] == samples)


class Cocycle:
    """verify_cocycle on 1|2(2|3) over Lambda_2."""

    pool = POOL
    samples = 10

    def warm_up(self):
        verify_cocycle(*DIMS, r=2, samples=1, seed=2024).to_json()

    def run(self, offset: int, span=no_span) -> list[str]:
        rep = verify_cocycle(*DIMS, r=2, samples=self.samples, seed=2024 + offset)
        with span("reports.to_json"):
            return [rep.to_json() + "\n"]

    def check(self, payloads: list[str]) -> list[str]:
        data = json.loads(payloads[0])
        res = data["results"]
        problems = [] if data["ok"] else ["gating verdict is not ok"]
        want = {"identity-symbolic": (10, 1), "pair-round-trip": (62, self.samples),
                "triple-cycle": (120, self.samples)}
        for check, (n, samples) in want.items():
            got = _count(res, check, samples)
            if got != n:
                problems.append(f"{got} {check} results with {samples} samples, want {n}")
        return problems


class Commutant:
    """h_report(1,2,2,3): compute_h, the defect re-check, closure, Jacobi
    and verify_rho_morphism, all in the symbolic ring."""

    pool = 1

    def warm_up(self):
        json.dumps(h_report(0, 1, 1, 2), indent=2, sort_keys=True)

    def run(self, offset: int, span=no_span) -> list[str]:
        data = h_report(*DIMS)
        with span("reports.to_json"):
            return [json.dumps(data, indent=2, sort_keys=True) + "\n"]

    def check(self, payloads: list[str]) -> list[str]:
        data = json.loads(payloads[0])
        want = {"defect_residual": "0", "bracket_closed": True,
                "jacobi_exact": True, "rho_morphism_ok": True}
        return [f"{key} is {data.get(key)!r}, want {value!r}"
                for key, value in want.items() if data.get(key) != value]


class ActionR4:
    """Gluing, axioms and transitivity on 1|2(2|3) over Lambda_4."""

    pool = POOL
    gluing, axioms, witnesses = 40, 12, 20

    def warm_up(self):
        for rep in self._reports(0, 1, 1, 1):
            rep.to_json()

    def _reports(self, offset, gluing, axioms, witnesses):
        return [
            verify_action_gluing(*DIMS, r=4, samples=gluing, seed=11 + offset),
            verify_action_axioms(*DIMS, r=4, samples=axioms, seed=5 + offset),
            verify_transitivity(*DIMS, r=4, count=witnesses, seed=77 + offset),
        ]

    def run(self, offset: int, span=no_span) -> list[str]:
        reps = self._reports(offset, self.gluing, self.axioms, self.witnesses)
        with span("reports.to_json"):
            return [rep.to_json() + "\n" for rep in reps]

    def check(self, payloads: list[str]) -> list[str]:
        reports = [json.loads(p) for p in payloads]
        res = [r for rep in reports for r in rep["results"]]
        problems = [f"{rep['suite']} verdict is not ok" for rep in reports if not rep["ok"]]
        want = {"gluing-square": self.gluing, "axiom-unit": self.axioms,
                "axiom-associativity": self.axioms, "axiom-inverse": self.axioms,
                "witness": self.witnesses}
        for check, samples in want.items():
            if _count(res, check, samples) != 1:
                problems.append(f"no {check} result with {samples} samples")
        return problems


WORKLOADS = {"cocycle": Cocycle(), "commutant": Commutant(), "action-r4": ActionR4()}
