"""Privacy-budget accounting across the distributed iterations.

Algorithm 1 uploads a perturbed routing policy once per SBS per
iteration; each upload is one ``epsilon``-DP release.  Over a run the
total leakage follows composition theorems (Dwork & Roth 2014):

* **basic composition** — ``k`` releases at ``epsilon`` each are
  ``(k * epsilon)``-DP;
* **advanced composition** (Thm 3.20 of Dwork & Roth) — for any
  ``delta' > 0`` they are
  ``(epsilon * sqrt(2 k ln(1/delta')) + k epsilon (e^epsilon - 1),
  delta')``-DP, which is tighter for many small releases.

The accountant also answers the planning question: given a total budget
and an iteration cap, what per-release epsilon may each SBS use?
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple

from ..analysis.taint import decl as taint
from ..exceptions import PrivacyError

__all__ = ["Release", "PrivacyAccountant", "advanced_composition_epsilon", "per_release_epsilon"]


@dataclasses.dataclass(frozen=True)
class Release:
    """One differentially private release by a named party."""

    party: str
    epsilon: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise PrivacyError(f"release epsilon must be positive, got {self.epsilon}")


def advanced_composition_epsilon(epsilon: float, count: int, delta_prime: float) -> float:
    """Total epsilon of ``count`` releases under advanced composition."""
    if epsilon <= 0:
        raise PrivacyError(f"epsilon must be positive, got {epsilon}")
    if count < 0:
        raise PrivacyError(f"count must be nonnegative, got {count}")
    if not 0 < delta_prime < 1:
        raise PrivacyError(f"delta_prime must lie in (0, 1), got {delta_prime}")
    if count == 0:
        return 0.0
    return epsilon * math.sqrt(2.0 * count * math.log(1.0 / delta_prime)) + count * epsilon * (
        math.exp(epsilon) - 1.0
    )


def per_release_epsilon(total_epsilon: float, releases: int) -> float:
    """Per-release budget so that basic composition meets ``total_epsilon``."""
    if total_epsilon <= 0:
        raise PrivacyError(f"total_epsilon must be positive, got {total_epsilon}")
    if releases <= 0:
        raise PrivacyError(f"releases must be positive, got {releases}")
    return total_epsilon / releases


class PrivacyAccountant:
    """Tracks every release and reports composed guarantees.

    Optionally enforces a hard budget: :meth:`record` raises once basic
    composition would exceed ``budget``.
    """

    def __init__(self, budget: Optional[float] = None) -> None:
        if budget is not None and budget <= 0:
            raise PrivacyError(f"budget must be positive, got {budget}")
        self._budget = budget
        self._releases: List[Release] = []

    @property
    def releases(self) -> Tuple[Release, ...]:
        return tuple(self._releases)

    @property
    def budget(self) -> Optional[float]:
        return self._budget

    @taint.booking
    def record(self, party: str, epsilon: float, label: str = "") -> Release:
        """Record a release; raise if it would blow a configured budget."""
        release = Release(party=party, epsilon=epsilon, label=label)
        if self._budget is not None and self.total_epsilon_basic() + epsilon > self._budget + 1e-12:
            raise PrivacyError(
                f"recording epsilon={epsilon} would exceed the privacy budget "
                f"{self._budget} (already spent {self.total_epsilon_basic():.6g})"
            )
        self._releases.append(release)
        return release

    def total_epsilon_basic(self, party: Optional[str] = None) -> float:
        """Basic-composition total, optionally for a single party.

        Per-party accounting is the relevant guarantee here: each SBS
        perturbs its own data independently, so an attacker observing
        every broadcast learns about one SBS only through that SBS's own
        releases.
        """
        return sum(
            release.epsilon
            for release in self._releases
            if party is None or release.party == party
        )

    def max_party_epsilon(self) -> float:
        """The largest per-party basic-composition total (``0.0`` before any release).

        This is a run's guarantee: every SBS perturbs its own data, so
        the run protects each one by its own releases' total.
        """
        parties = {release.party for release in self._releases}
        return max((self.total_epsilon_basic(party) for party in parties), default=0.0)

    def total_epsilon_advanced(
        self, delta_prime: float, party: Optional[str] = None
    ) -> float:
        """Advanced-composition total for homogeneous releases.

        Requires every counted release to share one epsilon; raises
        otherwise (heterogeneous advanced composition needs the optimal
        composition theorem, out of scope for the paper's mechanism).
        """
        relevant = [
            release.epsilon
            for release in self._releases
            if party is None or release.party == party
        ]
        if not relevant:
            return 0.0
        first = relevant[0]
        if any(abs(epsilon - first) > 1e-12 for epsilon in relevant):
            raise PrivacyError(
                "advanced composition requires homogeneous per-release epsilons"
            )
        return advanced_composition_epsilon(first, len(relevant), delta_prime)

    def remaining_budget(self) -> Optional[float]:
        """Budget left under basic composition, or ``None`` if unlimited."""
        if self._budget is None:
            return None
        return max(0.0, self._budget - self.total_epsilon_basic())
