"""Call accounting, in-memory spans and operation verdicts for one run.

Every call the benchmark makes into gcstar goes through Harness.call,
named "<module>.<function>".  Untraced, a call costs one counter
increment; traced, it also records a span (name, start, end, parent,
instance).  The benchmark's own operations and instances open spans
too, so a span's self time is its duration minus its children's.

An operation is one battery call on one instance, together with the
builder calls it needs, or one mutant refusal.  It fails when a check
fails on valid input, a call raises, a mutant is accepted or the CLI
exits with the wrong code.  A failed operation is recorded against the
module it exercises and the run goes on.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

MODULES = ("fingroupoid", "measures", "hilbmod", "sampling", "convalg",
           "reps", "intdis", "crossed", "cli")

# per-layer time metric -> the API calls whose self time it sums
LAYER_TIMES = {
    "fingroupoid.validate_s": ("fingroupoid.validate_groupoid",
                               "fingroupoid.validate_haar"),
    "measures.families_s": ("measures.check_family_identities",
                            "measures.check_iterated_integrals"),
    "hilbmod.gamma_s": ("hilbmod.check_gamma",),
    "sampling.cocycle_s": ("sampling.random_cocycle",),
    "sampling.mutate_s": ("sampling.mutate_groupoid",),
    "convalg.convolution_s": ("convalg.check_convolution",),
    "convalg.norm_s": ("convalg.cstar_norm", "convalg.i_norm"),
    "reps.regular_s": ("reps.regular_representation",),
    "reps.check_s": ("reps.check_representation", "reps.invariant_support"),
    "reps.from_cocycle_s": ("reps.from_cocycle",),
    "intdis.integration_s": ("intdis.check_integration",),
    "intdis.pair_exchange_s": ("intdis.check_pair_exchange",),
    "intdis.disintegrate_s": ("intdis.conv_rep_of", "intdis.disintegrate"),
    "intdis.roundtrip_s": ("intdis.roundtrip_rep",),
    "crossed.semigroup_s": ("crossed.bisection_semigroup",),
    "crossed.etale_s": ("crossed.etale_battery",),
    "crossed.trafo_s": ("crossed.transformation_theorem",),
    "cli.validate_s": ("cli.main",),
}

# per-layer work counts, summed over the instances of one pass
LAYER_SIZES = {
    "fingroupoid.arrows": "arrows",
    "fingroupoid.pairs": "pairs",
    "reps.module_dim": "module_dim",
    "crossed.semigroup_elements": "semigroup",
}


@dataclass(frozen=True)
class Verdict:
    instance: str
    op: str
    module: str
    ok: bool
    detail: str = ""


class Harness:
    """Accounting for one phase of a run: set-up, or one pass."""

    def __init__(self, traced=False):
        self.traced = traced
        self.calls = Counter()
        self.verdicts = []
        self.checks = 0
        self.failed_checks = 0
        self.exit_mismatch = 0
        self.spans = []
        self._open = []
        self._instance = ""

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name):
        if not self.traced:
            yield
            return
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._instance])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def instance(self, name):
        self._instance = name
        with self.span("instance"):
            yield
        self._instance = ""

    def call(self, name, fn, *args, **kwargs):
        """Call fn, counted under name and traced when tracing is on."""
        self.calls[name] += 1
        if not self.traced:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    # -- verdicts ----------------------------------------------------------

    def passed(self, report):
        """True when a report on valid input passed; counts its checks."""
        bad = sum(not c.passed for c in report.checks)
        self.checks += len(report.checks)
        self.failed_checks += bad
        return bad == 0

    def exited(self, code, want):
        if code != want:
            self.exit_mismatch += 1
        return code == want

    def op(self, module, name, body):
        """Run one operation; body returns True when its verdict holds."""
        with self.span("op." + name):
            try:
                ok, detail = bool(body()), ""
            except Exception as exc:  # a raising call is a failed operation
                ok, detail = False, f"{type(exc).__name__}: {exc}"[:300]
        self.verdicts.append(Verdict(self._instance, name, module, ok,
                                     detail))
        return ok

    def failures(self):
        return [v for v in self.verdicts if not v.ok]

    # -- per-layer metrics -------------------------------------------------

    def self_times(self):
        """Sum of self time per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def layer_metrics(self):
        """Times, call counts and failures per module for this phase."""
        selft = self.self_times()
        out = {k: sum(selft.get(n, 0.0) for n in names)
               for k, names in LAYER_TIMES.items()}
        for mod in MODULES:
            out[mod + ".calls"] = sum(v for k, v in self.calls.items()
                                      if k.split(".", 1)[0] == mod)
            out[mod + ".failed"] = sum(1 for v in self.failures()
                                       if v.module == mod)
        out["report.checks"] = self.checks
        out["report.failed_checks"] = self.failed_checks
        out["cli.exit_mismatch"] = self.exit_mismatch
        return out
