"""Per-decision references for both policies' gradients.

Each head is scored again from the encoder states or LSTM outputs, one
block (or one token) at a time, as a SquashedHead over that decision's own
raw scores, and the package's backward differentiates a walk that carries
those heads instead of its own. The package differentiates the heads its
sampling walk kept, with routers and op heads scored in stacked products;
agreement byte for byte checks that this regrouping leaves the gradient's
bits unchanged.
"""

from dataclasses import replace

from evocell.arch_space import cell_digits
from evocell.controller import (
    MutationWalk,
    _forced,
    _input_candidates,
    _op_raw,
    _router_raw,
    encode_forward,
    trace_grads,
)
from evocell.nn_core import SquashedHead


def controller_grads(params, cell, trace):
    """trace_grads of a walk whose heads are scored block by block."""
    choices = [tuple(pair) for pair in _forced(params, cell, trace).tolist()]
    forward = encode_forward(params, cell)
    S = forward.states
    heads = []
    for b, (t_idx, _) in enumerate(choices, start=1):
        base = 5 * (b - 1)
        state_id = S[base + t_idx]
        if t_idx < 2:
            cands = _input_candidates(params, S[4::5], b)
            raw = cands @ params.p["w_input"][:, 0]
        else:
            raw = _op_raw(params, state_id)
        router = _router_raw(params, S[base : base + 4])
        heads.append((SquashedHead(router.tolist()), SquashedHead(raw.tolist())))
    forward.walk = MutationWalk(trace, choices, heads)
    return trace_grads(params, forward)


def construction_grads(policy, cell):
    """controller.ConstructionPolicy.grads of the teacher-forced walk, with
    each head scored again token by token from its LSTM outputs."""
    walk = policy._walk(None, cell_digits(cell))
    heads = [
        SquashedHead(policy._raw(kind, b, walk.cache.h[t, 0]).tolist())
        for t, (kind, b) in enumerate(policy._decision_plan())
    ]
    return policy.grads(replace(walk, heads=heads))
