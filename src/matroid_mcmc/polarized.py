"""Down-up walk on the lifted independent-set distribution.

The lifted state is a set S of real ground elements plus n - |S| auxiliary
slots, and the walk's WeightedIndex is that state: i ∈ S iff its weight is 0,
every element outside S carries its proposal weight, and n - |S| is the
index's active_count.  One transition drops a uniform element index
i ∈ [0, n): i leaves S if it is in S, otherwise an auxiliary slot drops
(probability (n - |S|)/n).  It then re-adds by rejection sampling: auxiliary
slots carry aggregate proposal mass n - |S| and are always accepted; element
i outside S carries mass weight[i] and is accepted per `_accepts`.  For
PolarizedChain S = A, the weights are λ, and a proposal is accepted iff it
keeps A independent; the stationary law of A is the target weighted
independent-set distribution.  RandomClusterChain runs the same walk on the
complement of its cluster set.
"""
from __future__ import annotations

from .config import ChainConfig, StepStats, debug_asserts_enabled
from .matroids import Fields, MatroidSpec, build_oracle
from .rng import SeedStream
from .weighted_index import WeightedIndex


class PolarizedChain:
    def __init__(self, spec: MatroidSpec, fields: Fields, cfg: ChainConfig,
                 dyncon_backend: str = "auto"):
        self._setup(spec, fields, cfg)
        self.oracle = build_oracle(spec, "independence", dyncon_backend)
        self.weight = fields.proposal_weights()
        # S starts empty: every element is proposable at its weight, loops included
        self.widx = WeightedIndex(fields.lam)

    def _setup(self, spec: MatroidSpec, fields: Fields, cfg: ChainConfig) -> None:
        fields.require_size(spec.n)
        self.spec = spec
        self.fields = fields
        self.cfg = cfg
        self.n = spec.n
        self.rng = SeedStream(cfg.seed)
        self.stats = StepStats()
        self._debug = debug_asserts_enabled()

    @property
    def A(self) -> list[int]:
        """The independent set, ascending."""
        w = self.widx.weight
        return [i for i in range(self.n) if w[i] == 0.0]

    def _accepts(self, i: int) -> bool:
        """Add i to the oracle's set if that keeps it independent."""
        oracle = self.oracle
        oracle.insert(i)
        if oracle.is_independent():
            return True
        oracle.delete(i)
        return False

    def _dropped(self, i: int) -> None:
        self.oracle.delete(i)

    def down_step(self) -> str:
        """Drop a uniform element index; returns "x" if it was in S, else "y"."""
        i = int(self.rng.u() * self.n)
        widx = self.widx
        if widx.weight[i] != 0.0:
            return "y"
        self._dropped(i)
        widx.set(i, self.weight[i])
        return "x"

    def up_step(self) -> None:
        """Re-add one element by rejection sampling until acceptance."""
        widx = self.widx
        y_mass = float(widx.active_count)
        rng = self.rng
        stats = self.stats
        while True:
            stats.proposals += 1
            total = y_mass + widx.total
            u = (1.0 - rng.u()) * total  # in (0, total]
            if u <= y_mass:
                return
            i = widx.sample(u - y_mass)
            if self._accepts(i):
                widx.set(i, 0.0)
                return
            stats.rejections += 1

    def _check_state(self) -> None:
        # the oracle holds A, and A is read off the weights in widx
        assert set(self.A) == self.oracle.current

    def step(self) -> None:
        self.down_step()
        self.up_step()
        self.stats.steps += 1
        if self._debug:
            self._check_state()
            assert self.oracle.is_independent()

    def run(self) -> list[int]:
        """Execute the configured number of transitions; returns sorted A."""
        for _ in range(self.cfg.steps(self.n)):
            self.step()
        return self.A

    def state_mask(self) -> int:
        m = 0
        for i in self.A:
            m |= 1 << i
        return m
