"""Test oracles for the max-min fair flow network.

* :class:`FullRecomputeNetwork` refills *every* bottleneck component on
  every change — the full recompute the incremental allocator must be
  indistinguishable from, bit for bit.
* :func:`assert_maxmin_fair` checks the allocation against the max-min
  definition itself (feasibility plus the bottleneck condition of
  Bertsekas & Gallager, *Data Networks*), independent of the filling
  algorithm both networks share.
"""

import math
from operator import attrgetter

from repro.netsim import FlowNetwork

_TOL = 1e-9


class FullRecomputeNetwork(FlowNetwork):
    """A :class:`FlowNetwork` that also refills every untouched component.

    Untouched components are refilled but never credited, so crediting,
    completion sweeps and wakeups happen at exactly the instants the
    incremental network uses; the refill reproduces the same rates from
    the same inputs.
    """

    __slots__ = ()

    def _closure(self):
        affected, comps = super()._closure()
        seen = {flow for comp in comps for flow in comp}
        for seed in self._flows:
            if seed in seen:
                continue
            comp, stack = [seed], [seed]
            seen.add(seed)
            while stack:
                for link in stack.pop().path:
                    for other in link._flows:
                        if other not in seen:
                            seen.add(other)
                            comp.append(other)
                            stack.append(other)
            comp.sort(key=attrgetter("_seq"))
            comps.append(comp)
        return affected, comps


def assert_maxmin_fair(net):
    """Assert the live rates in ``net`` are a max-min fair allocation.

    Feasible: no link carries more than its capacity.  Optimal: every
    flow sits at its own ``max_rate``, or crosses a saturated link on
    which no flow gets a higher rate.
    """
    flows = list(net._flows)
    load = {}
    top = {}
    for flow in flows:
        for link in dict.fromkeys(flow.path):
            if link.capacity is not None:
                load[link] = load.get(link, 0.0) + flow.rate
                top[link] = max(top.get(link, 0.0), flow.rate)
    for link, used in load.items():
        assert used <= link.capacity * (1 + _TOL), (link.name, used)
    for flow in flows:
        assert flow.rate >= 0, flow
        if flow.max_rate is not None:
            assert flow.rate <= flow.max_rate * (1 + _TOL), flow
            if flow.rate >= flow.max_rate * (1 - _TOL):
                continue
        constrained = [link for link in flow.path if link in load]
        if not constrained:
            # Nothing limits it: an unbounded rate drains it instantly.
            assert math.isinf(flow.rate), flow
            continue
        assert any(
            load[link] >= link.capacity * (1 - _TOL)
            and flow.rate >= top[link] * (1 - _TOL)
            for link in constrained
        ), f"{flow.label} has no bottleneck link at rate {flow.rate}"
