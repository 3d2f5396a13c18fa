"""Output checks shared by the workloads.

Every check returns a `Verdict`: the reasons the output failed (empty when
it passed) and `e`, the error measure that `tta_s` uses,

    e = max(stderr, |estimate - exact| / 4) / scale(exact),

capped at E_CAP.  Exact engines report no stderr, so for them e is the
error against the reference over 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

REF_TOL = 1e-9  # deterministic output against its stored reference
STATE_TOL = 1e-8  # trace, hermiticity and positivity of a density matrix
UNITARITY_TOL = 1e-10  # exact record-integrated U^dag U against the identity
SIGMAS = 4.0  # a sampled estimate must lie this many stderr from the exact answer
# Past a 25% error an estimate is useless alike: a non-finite estimate, a
# failed op and a broken sampler all count as E_CAP.  The cap also keeps
# the seed-to-seed swings of broken samplers' errors out of tta_s.
E_CAP = 0.25


@dataclass
class Verdict:
    reasons: list = field(default_factory=list)
    e: float = 0.0
    sampled: bool = False
    detail: dict = field(default_factory=dict)

    def fail(self, reason):
        self.reasons.append(reason)
        return self

    def add(self, other):
        self.reasons += other.reasons
        self.e = max(self.e, other.e)
        self.sampled = self.sampled or other.sampled
        self.detail.update(other.detail)
        return self


def failed(reason):
    return Verdict(reasons=[reason], e=E_CAP)


def _finite(x):
    return bool(np.all(np.isfinite(x)))


def compare(label, out, ref):
    """Max-norm comparison against a stored reference (NaN matches NaN),
    relative to the reference's largest entry."""
    out = np.asarray(out)
    ref = np.asarray(ref)
    if out.shape != ref.shape:
        return failed(f"{label}: shape {out.shape} != reference {ref.shape}")
    diff = np.where(np.isnan(out) & np.isnan(ref), 0.0, np.abs(out - ref))
    if not _finite(diff):
        return failed(f"{label}: non-finite where the reference is finite")
    # relative to the reference's largest entry: outputs range from O(1)
    # density matrices to 1e-57 probability densities
    worst = float(diff.max()) if diff.size else 0.0
    finite = np.abs(ref[np.isfinite(ref)])
    scale = float(finite.max()) if finite.size and finite.max() > 0 else 1.0
    rel = worst / scale
    v = Verdict(e=min(E_CAP, rel / 4.0))
    if rel > REF_TOL:
        v.fail(f"{label}: differs from reference by {rel:.3e} (relative) > {REF_TOL:g}")
    return v


def density(label, rho, spacing):
    """Trace, hermiticity and positivity of a lattice density matrix."""
    rho = np.asarray(rho)
    if not _finite(rho):
        return failed(f"{label}: non-finite density matrix")
    v = Verdict()
    trace_err = abs(float(np.trace(rho).real) * spacing - 1.0)
    herm_err = float(np.max(np.abs(rho - rho.conj().T)))
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T) * spacing).min())
    if trace_err > STATE_TOL:
        v.fail(f"{label}: trace error {trace_err:.3e} > {STATE_TOL:g}")
    if herm_err > STATE_TOL:
        v.fail(f"{label}: hermiticity error {herm_err:.3e} > {STATE_TOL:g}")
    if min_eig < -STATE_TOL:
        v.fail(f"{label}: min eigenvalue {min_eig:.3e} < -{STATE_TOL:g}")
    return v


def unitarity(label, matrix):
    matrix = np.asarray(matrix)
    if not _finite(matrix):
        return failed(f"{label}: non-finite U^dag U")
    dev = float(np.max(np.abs(matrix - np.eye(matrix.shape[0]))))
    v = Verdict(e=min(E_CAP, dev / 4.0))
    if dev > UNITARITY_TOL:
        v.fail(f"{label}: deviation from identity {dev:.3e} > {UNITARITY_TOL:g}")
    return v


def sampled(label, estimate, exact, stderr, samples=None):
    """A Monte-Carlo estimate against the exact answer.

    Errors and stderrs are sup norms over the entries.  ``stderr=None``
    means the estimate carries no error bar: then only e is computed, and
    the 4-sigma rule cannot be applied.
    """
    estimate = np.asarray(estimate)
    exact = np.asarray(exact)
    scale = float(np.max(np.abs(exact))) or 1.0
    v = Verdict(sampled=True)
    if estimate.shape != exact.shape:
        return v.add(failed(f"{label}: shape {estimate.shape} != exact {exact.shape}"))
    if not _finite(estimate) or (stderr is not None and not _finite(stderr)):
        v.e = E_CAP
        return v.fail(f"{label}: non-finite estimate")
    err = float(np.max(np.abs(estimate - exact)))
    se = None if stderr is None else float(np.max(stderr))
    v.e = min(E_CAP, max(se or 0.0, err / SIGMAS) / scale)
    v.detail = {"err": err, "stderr": se, "scale": scale, "samples": samples}
    if se is not None and err > SIGMAS * se:
        v.fail(f"{label}: error {err:.3e} is {err / max(se, 1e-300):.2f} stderr (> {SIGMAS:g})")
    return v


# ----------------------------------------------------------------------
# reference storage: entries below FLOOR times the largest entry are stored
# as zero, far below the relative tolerance they are compared at, which
# keeps the n=256 matrices small


FLOOR = 1e-11


def pack(prefix, array):
    array = np.asarray(array)
    flat = array.ravel()
    finite = np.abs(flat[np.isfinite(flat)])
    floor = FLOOR * (finite.max() if finite.size else 0.0)
    keep = np.flatnonzero(~(np.abs(flat) < floor) & (flat != 0))  # keeps NaN entries
    return {
        f"{prefix}.shape": np.asarray(array.shape, dtype=np.int64),
        f"{prefix}.index": keep.astype(np.int64),
        f"{prefix}.value": flat[keep],
    }


def unpack(store, prefix):
    shape = tuple(int(s) for s in store[f"{prefix}.shape"])
    values = store[f"{prefix}.value"]
    flat = np.zeros(math.prod(shape), dtype=values.dtype)
    flat[store[f"{prefix}.index"]] = values
    return flat.reshape(shape)
