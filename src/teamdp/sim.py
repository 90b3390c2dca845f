"""Monte Carlo rollouts with reproducible, order-independent seeding.

Sample i of an estimate draws from the stream of
``np.random.default_rng((seed + i) mod 2**64)``, so estimates are
independent of evaluation order and individual samples can be replayed in
isolation.  Within a rollout the draw order is fixed: initial state, then
per decision epoch the state transition followed by each member's
observation in member order.  A rollout takes its m = 1 + T*(1 + K)
doubles as the first m ``Generator.random()`` doubles of its stream.

Those streams are computed for a whole block of samples at once:
``_uniforms`` runs numpy's ``SeedSequence`` hash (the uint32 hashmix/mix
pool, then ``generate_state(4, uint64)``) and PCG64 (seeding, the 128-bit
LCG on (high, low) uint64 word pairs, the XSL-RR output) as vectorized
integer recurrences over the block's seeds, and turns each 64-bit output
into a double as ``random()`` does, ``(next >> 11) * 2**-53``.  The
doubles are the generator's bit for bit.

Each draw takes one double ``u`` and returns the count of CDF entries
``<= u``, where ``cdf`` is the row's cumulative sum divided by its last
entry.  On a non-decreasing row that count is ``bisect_right(cdf, u)``,
the inverse CDF that ``Generator.choice(n, p=row)`` builds, so every draw
returns the index ``choice`` would return from the same stream.  The CDF
rows are built, and each gets ``choice``'s probability check, once per
estimate rather than once per draw.

All samples of a block advance together, stage by stage.  At each stage
the strategy is asked for its action once per distinct realized
observation path, in order of the path's first sample; the answer is
kept in a trie of paths (a node per path, keyed by its parent node and
the joint observation) shared by all blocks of an estimate, so later
samples and blocks reuse it.  This relies on every strategy being
deterministic: the same observation prefix then gives the same earlier
actions, by induction, and so the same history.  Each sample's cost is
``0.0`` plus its stage costs in stage order plus its terminal cost, the
order a one-sample loop adds them in, so the estimate's sums see the
same array.  Samples go through in blocks of ``_BLOCK``, which bounds an
estimate's working memory apart from its ``costs`` array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import TeamModel, Trajectory
from .oracle import WeightedOutcome

__all__ = ["SimConfig", "CostEstimate", "rollout", "estimate_cost"]

# Generator.choice's tolerance on the sum of a float64 row
_ATOL = math.sqrt(np.finfo(np.float64).eps)

# samples advanced together by one pass of the kernel
_BLOCK = 2**14


@dataclass(frozen=True)
class SimConfig:
    samples: int = 1000
    seed: int = 0


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "mean": float(self.mean),
            "std_error": float(self.std_error),
            "samples": int(self.samples),
            "seed": int(self.seed),
        }


# numpy's SeedSequence constants (uint32 arithmetic, a pool of 4 words)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG64's 128-bit LCG multiplier as (high, low) words, the low word also
# as 32-bit halves for the high half of the low-by-low product
_MUL_HI = np.uint64(2549297995355413924)
_MUL_LO = np.uint64(4865540595714422341)
_MUL_LO_0, _MUL_LO_1 = np.uint64(4865540595714422341 & _M32), np.uint64(4865540595714422341 >> 32)


def _seed_words(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64
    seed ``s``, as four uint64 arrays.

    The entropy of a seed below 2**64 is its one or two little-endian
    uint32 words; the pool pads it with zero words, so the high word of a
    seed below 2**32 enters as the zero it is.
    """
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ np.uint32(h)
        h = h * _MULT_A & _M32
        v = v * np.uint32(h)
        return v ^ (v >> 16)

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ (r >> 16)

    zero = np.zeros(seeds.shape, np.uint32)
    entropy = [(seeds & _M32).astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero]
    pool = [hashmix(w) for w in entropy]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    h = _INIT_B
    state = []
    for i in range(2 * _POOL):
        v = pool[i % _POOL] ^ np.uint32(h)
        h = h * _MULT_B & _M32
        v = v * np.uint32(h)
        state.append((v ^ (v >> 16)).astype(np.uint64))
    return [state[2 * j] | (state[2 * j + 1] << 32) for j in range(_POOL)]


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + increment mod 2**128, on
    (high, low) uint64 words."""
    lo0, lo1 = lo & _M32, lo >> 32
    p00, p01, p10 = lo0 * _MUL_LO_0, lo0 * _MUL_LO_1, lo1 * _MUL_LO_0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry_mul = lo1 * _MUL_LO_1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _MUL_LO + inc_lo
    new_hi = carry_mul + hi * _MUL_LO + lo * _MUL_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _uniforms(seeds: np.ndarray, m: int) -> np.ndarray:
    """``(n, m)`` doubles; row i is ``np.random.default_rng(seeds[i]).random(m)``
    for the uint64 array ``seeds``."""
    seed_hi, seed_lo, seq_hi, seq_lo = _seed_words(seeds)
    # srandom(state=seed, seq): inc = seq << 1 | 1; step; state += seed; step
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | np.uint64(1)
    hi, lo = _lcg_step(np.zeros_like(seed_hi), np.zeros_like(seed_lo), inc_hi, inc_lo)
    lo = lo + seed_lo
    hi = hi + seed_hi + (lo < seed_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    out = np.empty((len(seeds), m))
    for j in range(m):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: (high ^ low) rotated right by the top 6 bits of the state
        x, rot = hi ^ lo, hi >> 58
        x = (x >> rot) | (x << ((64 - rot) & 63))
        out[:, j] = (x >> 11) * (1.0 / 2**53)
    return out


def _kahan_sum(row: list[float]) -> float:
    """The compensated sum ``Generator.choice`` checks a row's total by."""
    if not row:
        return 0.0
    total, c = row[0], 0.0
    for v in row[1:]:
        y = v - c
        t = total + y
        c = (t - total) - y
        total = t
    return total


def _cdf(row, n: int) -> np.ndarray:
    """Inverse-CDF table of a distribution over ``range(n)``, checked and
    built as ``Generator.choice(n, p=row)`` checks and builds it."""
    p = np.asarray(row, dtype=float)
    if p.shape != (n,):
        raise ValueError("a and p must have same size")
    total = _kahan_sum(p.tolist())
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _ATOL:
        raise ValueError(
            "Probabilities do not sum to 1. See Notes section of docstring for more information."
        )
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


@dataclass(frozen=True)
class _Tables:
    """A model's CDF rows, built once per estimate."""

    initial: np.ndarray  # (S,) CDF of x_0
    transition: np.ndarray  # (S, A, S): [x, a] -> CDF of the next state
    observation: tuple  # per member, (S, Y_k): [x] -> CDF of its observation in state x


def _tables(model: TeamModel) -> _Tables:
    S = model.num_states
    initial = _cdf(model.initial_dist, S)
    transition = np.array([[_cdf(row, S) for row in rows] for rows in model.transition])
    observation = [
        [_cdf(k[x], n) for k, n in zip(model.observation_kernels, model.observation_sizes)]
        for x in range(S)
    ]
    return _Tables(
        initial=initial,
        transition=transition,
        observation=tuple(np.array(rows) for rows in zip(*observation)),
    )


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per sample, the count of entries of its CDF row (``cdf`` is one row
    or one row per sample) that are ``<= u``."""
    return (cdf <= u[:, None]).sum(axis=1)


class _Paths:
    """The trie of realized observation paths of one strategy.  Node 0 is
    the empty path; a node's child under a joint observation is the path
    extended by it.  Each node keeps its history (observation and action
    tuples) and, once asked, the strategy's joint action there with its
    flat index."""

    def __init__(self, model: TeamModel, strategy):
        self.model = model
        self.strategy = strategy
        self.histories: list[tuple] = [((), ())]
        self.actions: list = [None]
        self.children: dict[tuple[int, int], int] = {}

    def act(self, nodes: np.ndarray, t: int):
        """Flat joint action per sample at stage ``t``, asking the
        strategy at each new node in order of its first sample; also the
        samples' dense node indices (into the sorted distinct nodes)."""
        ids, first, dense = np.unique(nodes, return_index=True, return_inverse=True)
        flat = np.empty(len(ids), np.intp)
        for j in np.argsort(first):
            node = int(ids[j])
            hit = self.actions[node]
            if hit is None:
                obs_seq, act_seq = self.histories[node]
                u = tuple(int(v) for v in self.strategy.joint_action(obs_seq, act_seq, t))
                hit = self.actions[node] = (u, self.model.flat_action(u))
            flat[j] = hit[1]
        return flat[dense], dense

    def extend(self, nodes: np.ndarray, dense: np.ndarray, ys: list[np.ndarray]) -> np.ndarray:
        """Child node per sample under its joint observation ``ys[k][i]``;
        ``dense`` is what :meth:`act` gave for ``nodes``."""
        joint = np.zeros(len(nodes), np.int64)
        for y, n in zip(ys, self.model.observation_sizes):
            joint = joint * n + y
        keys, first, inverse = np.unique(
            dense * math.prod(self.model.observation_sizes) + joint,
            return_index=True,
            return_inverse=True,
        )
        child = np.empty(len(keys), np.intp)
        for j, i in enumerate(first.tolist()):
            parent = int(nodes[i])
            key = (parent, int(joint[i]))
            node = self.children.get(key)
            if node is None:
                obs_seq, act_seq = self.histories[parent]
                y = tuple(int(col[i]) for col in ys)
                node = self.children[key] = len(self.histories)
                self.histories.append((obs_seq + (y,), act_seq + (self.actions[parent][0],)))
                self.actions.append(None)
            child[j] = node
        return child[inverse]


def _run(model: TeamModel, tables: _Tables, paths: _Paths, u: np.ndarray):
    """Advance the samples of one block, row i of ``u`` holding sample i's
    doubles, stage by stage.  Returns each sample's cost, its states
    ``(n, T+1)`` and its final path node."""
    n, K = len(u), model.num_members
    x = _draw(tables.initial, u[:, 0])
    states = np.empty((n, model.horizon + 1), np.intp)
    states[:, 0] = x
    nodes = np.zeros(n, np.intp)
    cost = np.zeros(n)
    col = 1
    for t in range(model.horizon):
        a, dense = paths.act(nodes, t)
        cost += model.stage_cost[t, x, a]
        x = _draw(tables.transition[x, a], u[:, col])
        ys = [_draw(obs[x], u[:, col + 1 + k]) for k, obs in enumerate(tables.observation)]
        col += 1 + K
        states[:, t + 1] = x
        nodes = paths.extend(nodes, dense, ys)
    cost += model.terminal_cost[x]
    return cost, states, nodes


def rollout(model: TeamModel, strategy, seed: int) -> WeightedOutcome:
    """Simulate one trajectory under a joint strategy.

    The returned outcome carries the realized cost; its probability field
    is None (a draw, not an enumeration atom).
    """
    tables = _tables(model)
    m = 1 + model.horizon * (1 + model.num_members)
    u = np.random.default_rng(seed).random(m)[None, :]
    paths = _Paths(model, strategy)
    cost, states, nodes = _run(model, tables, paths, u)
    obs_seq, act_seq = paths.histories[nodes[0]]
    traj = Trajectory(states=tuple(states[0].tolist()), observations=obs_seq, actions=act_seq)
    return WeightedOutcome(trajectory=traj, probability=None, cost=float(cost[0]))


def estimate_cost(model: TeamModel, strategy, config: SimConfig) -> CostEstimate:
    """Sample-mean estimate of the expected total cost of a strategy.

    The standard error uses the n-1 normalization and is 0.0 for a single
    sample.
    """
    n = int(config.samples)
    if n < 1:
        raise ValueError("samples must be >= 1")
    tables = _tables(model)
    paths = _Paths(model, strategy)
    m = 1 + model.horizon * (1 + model.num_members)
    costs = np.empty(n)
    for lo in range(0, n, _BLOCK):
        count = min(_BLOCK, n - lo)
        seeds = np.uint64((config.seed + lo) % 2**64) + np.arange(count, dtype=np.uint64)
        costs[lo : lo + count] = _run(model, tables, paths, _uniforms(seeds, m))[0]
    mean = float(np.sum(costs) / n)
    if n > 1:
        se = float(np.std(costs, ddof=1) / math.sqrt(n))
    else:
        se = 0.0
    return CostEstimate(mean=mean, std_error=se, samples=n, seed=config.seed)
