"""The textbook Adam update that nn_core.adam_step replaced.

It bias-corrects both moments element by element, m_hat = m / (1 - b1^t)
and v_hat = v / (1 - b2^t), and steps params -= lr m_hat / (sqrt(v_hat) +
eps), over the whole vector at once with a (2, size) work array. The
package folds the corrections into two scalars (Kingma & Ba's efficient
form) and runs in slices; that is the same update up to rounding, and a
learner run under each must take the same decisions.

It reads and writes the same AdamState fields as the package, so it can
stand in for reinforce.adam_step on a fresh trainer.
"""

import numpy as np

from evocell.nn_core import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> None:
    """One Adam update with bias correction, in place on a flat parameter
    vector. A zero gradient entry still decays that entry's moments.

    Element for element it evaluates the textbook expressions, in their
    order: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2, then
    params -= lr m_hat / (sqrt(v_hat) + eps); two preallocated work vectors
    stand in for the temporaries.
    """
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
        state.work = np.empty((2,) + params.shape)
    if grad.shape != params.shape or state.m.shape != params.shape:
        raise ValueError(
            f"Adam over {params.shape} got gradient {grad.shape}, "
            f"moments {state.m.shape}"
        )
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m, v = state.m, state.v
    w, step = state.work
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=w)
    m += w
    v *= ADAM_BETA2
    np.multiply(grad, grad, out=w)
    w *= 1.0 - ADAM_BETA2
    v += w
    np.divide(v, bc2, out=w)
    np.sqrt(w, out=w)
    w += ADAM_EPS
    np.divide(m, bc1, out=step)
    step *= state.lr
    step /= w
    params -= step
