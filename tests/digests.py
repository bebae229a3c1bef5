"""Digests of the exact bits of optimizer traces, shared by the golden
trajectory tests and the seed sweep (``tests/seed_sweep.py``)."""

import hashlib


def update_digest(digest, trace):
    """Feed a hashlib ``digest`` the exact bits of a trace's ``fs``,
    ``grad_norms``, ``constraint_violations`` and ``newton_iters``."""
    for column in (trace.fs, trace.grad_norms, trace.constraint_violations):
        digest.update(" ".join(float(v).hex() for v in column).encode())
        digest.update(b"|")
    digest.update(" ".join(str(n) for n in trace.newton_iters).encode())


def trace_digest(trace):
    """Short sha256 digest of one trace's exact bits."""
    digest = hashlib.sha256()
    update_digest(digest, trace)
    return digest.hexdigest()[:16]
