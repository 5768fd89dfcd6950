"""Check reports shared by every verification routine.

A Report is an ordered list of named checks, each with a pass flag, a
numeric defect (0.0 for exact structural checks) and an optional witness
describing the first offending instance.

A check over many instances reduces its (defect, witness) pairs with
worst(): the defect is the largest value, starting from 0.0 (a negative
gap reports 0.0), and the witness that of its first pair, None while
every defect is 0.  The first NaN beats any number and keeps its own
witness.  Report.add_worst passes iff defect <= tol, so NaN never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def max_abs(x):
    """Largest absolute entry of an array, 0.0 when it is empty."""
    x = np.asarray(x)
    return float(np.max(np.abs(x))) if x.size else 0.0


def worst(pairs):
    """(defect, witness) of the worst of (defect, witness) pairs."""
    top, where = 0.0, None
    for d, witness in pairs:
        if math.isnan(d):
            return d, witness
        if d > top:
            top, where = d, witness
    return top, where


class VerificationError(Exception):
    """Raised by Report.require when a check failed."""


@dataclass
class Check:
    name: str
    passed: bool
    defect: float = 0.0
    witness: object = None

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        out = f"{tag} {self.name} (defect={self.defect:.3e})"
        if not self.passed and self.witness is not None:
            out += f" witness={self.witness!r}"
        return out


class Report:
    def __init__(self, title=""):
        self.title = title
        self.checks = []

    def add(self, name, passed, defect=0.0, witness=None):
        self.checks.append(Check(name, bool(passed), float(defect), witness))
        return self

    def add_worst(self, name, pairs, tol):
        """Add the check of worst(pairs): it passes iff defect <= tol."""
        d, witness = worst(pairs)
        return self.add(name, d <= tol, defect=d, witness=witness)

    def extend(self, other, prefix=""):
        for c in other.checks:
            name = f"{prefix}{c.name}" if prefix else c.name
            self.checks.append(Check(name, c.passed, c.defect, c.witness))
        return self

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def max_defect(self):
        return worst((c.defect, None) for c in self.checks)[0]

    def require(self):
        if not self.ok:
            raise VerificationError(str(self))
        return self

    def to_dict(self):
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "defect": c.defect,
                    "witness": None if c.witness is None else repr(c.witness),
                }
                for c in self.checks
            ],
        }

    def __bool__(self):
        return self.ok

    def __str__(self):
        head = [self.title] if self.title else []
        return "\n".join(head + [c.line() for c in self.checks])

    __repr__ = __str__
