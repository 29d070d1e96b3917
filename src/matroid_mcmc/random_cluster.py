"""Up-down walk for random cluster laws with 0 <= q <= 1.

The walk on the cluster set A with weights λ is, step for step, the
polarized down-up walk on the complement S = E \\ A with weights 1/λ.  The
up step draws a uniform element index: if it lies outside A it joins A,
otherwise A stays (probability |A|/n): that is the down-up walk's uniform
drop from S.  The down step removes per the weighted law (auxiliary slots
carry aggregate mass |A|, element j ∈ A carries mass 1/λ_j): that is the
walk's weighted re-add to S, accepted unless the removal would drop the rank
of A, and then only with probability q.  The stationary law of A is ∝ q^{-rk(A)} Π_{j∈A} λ_j;
at q = 0 the support is the maximum-rank subsets, and the walk starts from
matroids.greedy_basis, taken on an independence oracle of the spec.

The q coin is drawn before the rank question is asked: a removal is rejected
iff the coin lands >= q and the rank drops, and the coin is independent of
the graph, so the order leaves the law as it is while a fraction q of the
proposals (0 < q < 1) skips the query.  At q = 1 no query is asked, at q = 0
no coin is drawn.
"""
from __future__ import annotations

from .config import ChainConfig
from .matroids import Fields, MatroidSpec, build_oracle, check_q, greedy_basis
from .polarized import PolarizedChain
from .weighted_index import WeightedIndex


class RandomClusterChain(PolarizedChain):
    up_step = PolarizedChain.down_step
    down_step = PolarizedChain.up_step

    def __init__(self, spec: MatroidSpec, fields: Fields, q: float, cfg: ChainConfig,
                 dyncon_backend: str = "auto"):
        self._setup(spec, fields, cfg)
        check_q(q)
        self.q = float(q)
        self.oracle = build_oracle(spec, "rank", dyncon_backend)  # holds A
        self.weight = fields.proposal_weights(inverse=True)
        self.widx = WeightedIndex([0.0] * spec.n)  # 1/λ_j for j ∈ A, 0 on S = E \ A
        if q == 0.0:
            # start from a maximal-rank A: a basis, found by independence queries
            basis = greedy_basis(build_oracle(spec), spec.n)
            for i in basis:
                self.oracle.insert(i)
                self.widx.set(i, self.weight[i])
            self._max_rank = len(basis)

    @property
    def A(self) -> list[int]:
        """The cluster set, ascending."""
        w = self.widx.weight
        return [i for i in range(self.n) if w[i] != 0.0]

    def _accepts(self, j: int) -> bool:
        """Remove j from A unless rk(A) drops; if it does, with probability q.

        The coin comes first: a coin < q accepts whatever the rank does, so
        the rank question is asked only when the coin would reject.
        """
        oracle = self.oracle
        q = self.q
        if q < 1.0 and (q == 0.0 or self.rng.u() >= q) and oracle.rank_drops_on_delete(j):
            return False
        oracle.delete(j)
        return True

    def _dropped(self, i: int) -> None:
        self.oracle.insert(i)

    def step(self) -> None:
        self.up_step()
        self.down_step()
        self.stats.steps += 1
        if self._debug:
            self._check_state()
            if self.q == 0.0:
                assert self.oracle.rank() == self._max_rank
