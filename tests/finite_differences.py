"""Central-difference references for the closed-form field derivatives."""

import numpy as np

from conesurf.fields import build_potential_Q


def divergence_fd(field, p, rel_step=1e-5):
    """Central-difference divergence of Q at p."""
    p = np.asarray(p, dtype=float)
    h = rel_step * max(1.0, np.linalg.norm(p))
    div = 0.0
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        qp = build_potential_Q(field, p + e)
        qm = build_potential_Q(field, p - e)
        div += (qp[i] - qm[i]) / (2.0 * h)
    return div


def gradient_fd(field, p, rel_step=1e-6):
    """Central-difference gradient of H at p."""
    p = np.asarray(p, dtype=float)
    h = rel_step * max(1.0, np.linalg.norm(p))
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (field.eval(p + e) - field.eval(p - e)) / (2.0 * h)
    return g
