"""Check reports shared by every verification routine.

A Report is an ordered list of named checks, each with a pass flag, a
numeric defect (0.0 for exact structural checks) and an optional witness
describing the first offending instance.

Every check with a tolerance goes through Report.add_worst_at, the one
place a defect meets a tolerance: it reduces an array of defects with
worst_at and passes iff defect <= tol, so NaN never does.  worst_at
takes the largest defect in row-major order, starting from 0.0 (a
negative gap reports 0.0), and the flat index of its first entry, None
while every defect is 0; the first NaN beats any number and keeps its
own index.  The caller names the winning index by witness_of(k), so a
check over many instances labels only the one that wins, and a 0-d
defect is a check over one instance.  Report.add stays for structural
pass/fail checks.

Two arrays that should agree are compared by relative_defects, per
instance along the first axis: the largest entry of their difference
divided by the largest entry of either operand, or by 1 when both stay
within 1 (a normwise relative error, Higham 2002).  So the scale of the
weights does not decide the verdict, and a NaN or infinite entry still
fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def max_abs(x):
    """Largest absolute entry of an array, 0.0 when it is empty."""
    x = np.asarray(x)
    return float(np.max(np.abs(x))) if x.size else 0.0


def max_abs_each(x):
    """max_abs(x[i]) for each i along the first axis, as an array."""
    return np.abs(x).max(axis=tuple(range(1, x.ndim)), initial=0.0)


def relative_defects(a, b):
    """max_abs(a[i] - b[i]) / max(1, max_abs(a[i]), max_abs(b[i])) for
    each i along the first axis, as an array; b None stands for zeros."""
    gap = scale = max_abs_each(a)
    if b is not None:
        gap, scale = max_abs_each(a - b), np.maximum(scale, max_abs_each(b))
    with np.errstate(invalid="ignore"):  # inf / inf is NaN, as in Python
        return gap / np.maximum(scale, 1.0)


def worst_at(defects):
    """The worst of an array of defects in row-major order, as (defect,
    flat index of its witness or None)."""
    # argmax takes the first NaN, else the first maximum; ravel is a view
    # of a contiguous array, not a copy
    d = np.ravel(defects)
    k = int(np.argmax(d)) if d.size else None
    if k is None or d[k] <= 0.0:
        return 0.0, None
    return float(d[k]), k


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

    def add_worst_at(self, name, defects, tol, witness_of=lambda k: None):
        """Add the check of worst_at(defects), the witness witness_of(k)
        of the winning flat index k; it passes iff defect <= tol."""
        d, k = worst_at(defects)
        return self.add(name, d <= tol, defect=d,
                        witness=None if k is None else witness_of(k))

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
        return worst_at([c.defect for c in self.checks])[0]

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
