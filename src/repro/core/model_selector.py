"""The model selector: Eq. (1) and a reinforcement-learning variant.

Equation (1) of the paper:

    argmin_m  L   subject to  A >= A_req,  E <= E_pro,  M <= M_pro

with symmetric variants when the user cares about Accuracy, Energy or
Memory instead.  :class:`ModelSelector` solves the constrained problem
exactly over the evaluated candidates; :class:`RLModelSelector` learns
the best candidate from noisy online feedback with an epsilon-greedy
bandit, the "deep reinforcement learning will be leveraged" direction the
paper sketches, reduced to the tabular case that fits the candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.alem import ALEM, ALEMRequirement, OptimizationTarget
from repro.core.capability import EvaluatedCandidate
from repro.exceptions import ModelSelectionError


@dataclass
class SelectionResult:
    """Outcome of a selection: the winner plus the ranked feasible set."""

    selected: EvaluatedCandidate
    target: OptimizationTarget
    requirement: ALEMRequirement
    feasible: List[EvaluatedCandidate] = field(default_factory=list)
    infeasible: List[EvaluatedCandidate] = field(default_factory=list)

    @property
    def selected_name(self) -> str:
        return self.selected.model_name


class ModelSelector:
    """Exact constrained selection over evaluated (model, package, device) points."""

    def select(
        self,
        candidates: Sequence[EvaluatedCandidate],
        requirement: Optional[ALEMRequirement] = None,
        target: Optional[OptimizationTarget] = None,
    ) -> SelectionResult:
        """Solve Eq. (1): optimize ``target`` (latency unless given) subject
        to ``requirement``.

        Raises
        ------
        ModelSelectionError
            If no candidate satisfies the constraints (the caller may then
            relax them or fall back to cloud offloading).
        """
        if not candidates:
            raise ModelSelectionError("no candidates were provided to the selector")
        requirement = requirement or ALEMRequirement()
        target = target or OptimizationTarget.LATENCY
        # one pass, partitioned by identity: value-equality (`c not in feasible`)
        # is O(n^2) and collapses distinct candidates that share an ALEM point
        feasible: List[EvaluatedCandidate] = []
        infeasible: List[EvaluatedCandidate] = []
        for candidate in candidates:
            if candidate.fits_in_memory and requirement.satisfied_by(candidate.alem):
                feasible.append(candidate)
            else:
                infeasible.append(candidate)
        if not feasible:
            raise ModelSelectionError(
                "no model satisfies the requirement "
                f"{requirement!r} on the provided candidates"
            )
        ranked = sorted(feasible, key=lambda c: c.alem.objective_value(target))
        result = SelectionResult(
            selected=ranked[0],
            target=target,
            requirement=requirement,
            feasible=ranked,
            infeasible=infeasible,
        )
        return result


class RLModelSelector:
    """Epsilon-greedy bandit that learns the best model from online reward.

    Each arm is a candidate model; pulling an arm means deploying that
    model for a window of requests and observing a reward that blends the
    (noisy) measured ALEM attributes.  Over episodes the selector
    converges to the candidate the exact optimizer would pick, which the
    Eq. (1) benchmark verifies by comparing regret against brute force.
    """

    def __init__(
        self,
        candidates: Sequence[EvaluatedCandidate],
        requirement: Optional[ALEMRequirement] = None,
        target: OptimizationTarget = OptimizationTarget.LATENCY,
        epsilon: float = 0.15,
        noise_scale: float = 0.05,
        seed: int = 0,
    ) -> None:
        if not candidates:
            raise ModelSelectionError("RLModelSelector needs at least one candidate")
        if not 0.0 <= epsilon <= 1.0:
            raise ModelSelectionError("epsilon must lie in [0, 1]")
        self.candidates = list(candidates)
        self.requirement = requirement or ALEMRequirement()
        self.target = target
        self.epsilon = float(epsilon)
        self.noise_scale = float(noise_scale)
        self._rng = np.random.default_rng(seed)
        self._counts = np.zeros(len(self.candidates))
        self._values = np.zeros(len(self.candidates))

    def _reward(self, candidate: EvaluatedCandidate) -> float:
        """Observed reward: negative objective, heavily penalized when infeasible."""
        alem = candidate.alem
        noisy = ALEM(
            accuracy=float(np.clip(alem.accuracy * (1 + self._rng.normal(0, self.noise_scale / 4)), 0, 1)),
            latency_s=max(1e-9, alem.latency_s * (1 + self._rng.normal(0, self.noise_scale))),
            energy_j=max(0.0, alem.energy_j * (1 + self._rng.normal(0, self.noise_scale))),
            memory_mb=max(0.0, alem.memory_mb * (1 + self._rng.normal(0, self.noise_scale / 4))),
        )
        penalty = 0.0
        if not candidate.fits_in_memory or not self.requirement.satisfied_by(noisy):
            penalty = 1e3
        return -noisy.objective_value(self.target) - penalty

    def step(self) -> int:
        """Play one episode; returns the arm index chosen."""
        if self._rng.random() < self.epsilon or not np.any(self._counts > 0):
            # explore, or nothing has been played yet: pick uniformly
            arm = int(self._rng.integers(0, len(self.candidates)))
        else:
            # greedy over *played* arms only: unplayed arms are masked with
            # -inf so their optimistic 0.0 estimate cannot win the argmax
            arm = int(np.argmax(np.where(self._counts > 0, self._values, -np.inf)))
        reward = self._reward(self.candidates[arm])
        self._counts[arm] += 1
        self._values[arm] += (reward - self._values[arm]) / self._counts[arm]
        return arm

    def train(self, episodes: int = 200) -> EvaluatedCandidate:
        """Run ``episodes`` bandit steps and return the current best candidate."""
        if episodes <= 0:
            raise ModelSelectionError("episodes must be positive")
        for _ in range(episodes):
            self.step()
        return self.best()

    def best(self) -> EvaluatedCandidate:
        """Candidate with the highest estimated value (unplayed arms excluded)."""
        played = np.where(self._counts > 0)[0]
        if played.size == 0:
            raise ModelSelectionError("train must be called before best()")
        best_arm = played[np.argmax(self._values[played])]
        return self.candidates[int(best_arm)]

    def regret_against(self, optimum: EvaluatedCandidate) -> float:
        """Difference in objective value between the learned pick and the optimum."""
        learned = self.best().alem.objective_value(self.target)
        exact = optimum.alem.objective_value(self.target)
        return float(learned - exact)
