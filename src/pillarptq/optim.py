"""Adam with optional per-parameter learning rates.

Constraints on the parameters (scales above zero, rounding offsets inside
[0, scale]) are the caller's: `pipeline.run_lidar_ptq` projects them after
every step, because the offsets' bound moves with the weight scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .autodiff import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> np.ndarray:
    """One bias-corrected Adam update at BETA1, BETA2 and EPS; mutates
    `state`, returns the new value."""
    grad = np.asarray(grad, dtype=param.dtype)
    if grad.shape != np.shape(param):
        raise ValueError(f"grad shape {grad.shape} != param shape {np.shape(param)}")
    state.t += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1**state.t)
    v_hat = state.v / (1.0 - BETA2**state.t)
    return param - lr * m_hat / (np.sqrt(v_hat) + EPS)


@dataclass
class Adam:
    """Drives adam_step over a dict of Tensors.

    `lr` may be a float or a per-name dict.
    """

    params: Dict[str, Tensor]
    lr: object = 1e-3
    _states: Dict[str, AdamState] = field(default_factory=dict, init=False)

    def __post_init__(self):
        for name, p in self.params.items():
            self._states[name] = AdamState(
                m=np.zeros_like(p.data), v=np.zeros_like(p.data)
            )

    def _lr_for(self, name: str) -> float:
        if isinstance(self.lr, dict):
            return float(self.lr[name])
        return float(self.lr)

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                continue
            new = adam_step(p.data, p.grad, self._states[name], self._lr_for(name))
            p.data = new.astype(p.data.dtype)
