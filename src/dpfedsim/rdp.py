"""Design-phase privacy-level selection via tabular Q-learning.

The agent walks a discrete grid of privacy-loss values, and its state is
the grid index. The binned attacker and federated losses that the state
couples with the index are functions of it, computed once per loss
table (``LossTables.bins``) and reported in ``qtable.csv``. The reward
balances attacker loss, federated loss, and the privacy level itself.
Transitions are deterministic, so the learned Q-values converge to the
Bellman fixed point and the mean absolute Q change per episode is the
convergence diagnostic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .model import TrainingDivergedError
from .rng import substream


class Action(Enum):
    # ordinal doubles as the argmax tie-break order
    STATIC = 0
    DEC1 = 1
    DEC2 = 2
    INC1 = 3
    INC2 = 4

    @property
    def offset(self) -> int:
        return (0, -1, -2, 1, 2)[self.value]


ACTIONS = tuple(Action)

N_BINS = 10

# epsilon-greedy exploration decays linearly between these probabilities
EXPLORE_START = 1.0
EXPLORE_MIN = 0.05


@dataclass(frozen=True)
class RdpHyper:
    alpha: float = 0.001
    zeta: float = 0.5
    psi: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    max_episodes: int = 60_000

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("learning rate must be in (0, 1]")
        if not 0 <= self.zeta <= 1:
            raise ValueError("discount factor must be in [0, 1]")
        if self.max_episodes < 1:
            raise ValueError("episode count must be >= 1")
        if any(p < 0 for p in self.psi):
            raise ValueError("balancing weights must be >= 0")


@dataclass
class LossTables:
    """Per-privacy-level attacker and federated losses, plus raw cells.

    ``cells`` holds one (epsilon, gamma, seed, m_l, f_l) row per generated
    run; a NaN loss marks a cell with no valid loss, such as one whose run
    diverged. The reduced per-epsilon vectors average the valid cells
    over gamma values and seeds and must be fully finite and positive for
    training to proceed.
    """

    epsilon_grid: tuple[float, ...]
    m_l: np.ndarray  # per epsilon, averaged over its valid cells
    f_l: np.ndarray  # per epsilon, averaged over its valid cells
    cells: list[dict] = field(default_factory=list)

    def __post_init__(self):
        self.m_l = np.asarray(self.m_l, dtype=np.float64)
        self.f_l = np.asarray(self.f_l, dtype=np.float64)
        if len(self.m_l) != len(self.epsilon_grid) or len(self.f_l) != len(self.epsilon_grid):
            raise ValueError("loss vectors must align with the epsilon grid")

    @classmethod
    def from_cells(cls, cells: list[dict]) -> "LossTables":
        """Reduce raw cells to the sorted epsilon grid and per-epsilon means.

        Each mean runs over that epsilon's cells in list order, skipping
        NaN; an epsilon with no valid cell reduces to NaN. A loss table
        read back from its CSV therefore reduces to the same bits.
        """
        grid = tuple(sorted({c["epsilon"] for c in cells}))

        def mean(key: str, eps: float) -> float:
            values = np.array([c[key] for c in cells if c["epsilon"] == eps], dtype=np.float64)
            with np.errstate(all="ignore"):
                return float(np.nanmean(values)) if np.any(np.isfinite(values)) else float("nan")

        return cls(
            epsilon_grid=grid,
            m_l=np.array([mean("m_l", eps) for eps in grid]),
            f_l=np.array([mean("f_l", eps) for eps in grid]),
            cells=list(cells),
        )

    def require_complete(self) -> None:
        """Training needs a grid, every point backed by valid positive losses."""
        if not self.epsilon_grid:
            raise ValueError("loss tables have no grid points")
        if np.any(~np.isfinite(self.m_l)) or np.any(~np.isfinite(self.f_l)):
            raise ValueError("loss tables have grid points with no valid cells")
        if np.any(self.m_l <= 0) or np.any(self.f_l <= 0):
            raise ValueError("losses must be positive")

    @property
    def m_l_max(self) -> float:
        return float(np.max(self.m_l))

    @property
    def f_l_max(self) -> float:
        return float(np.max(self.f_l))

    @cached_property
    def bins(self) -> tuple[list[int], list[int]]:
        """Every grid point's m_l and f_l bin: the index of its loss among
        the N_BINS-quantile edges of that loss vector."""
        qs = np.linspace(0, 1, N_BINS + 1)[1:-1]
        return tuple(
            np.searchsorted(np.quantile(values, qs), values, side="right").tolist()
            for values in (self.m_l, self.f_l)
        )


def default_epsilon_grid() -> tuple[float, ...]:
    """Design grid 0.1 .. 2.0 in steps of one 0.1 unit."""
    return tuple(round(0.1 * i, 1) for i in range(1, 21))


def reward(m_l: float, f_l: float, epsilon: float, tables: LossTables, hyper: RdpHyper) -> float:
    """psi1 * m_max/m + psi2 * f_max/f + psi3 / epsilon."""
    if m_l <= 0 or f_l <= 0 or epsilon <= 0:
        raise ValueError("reward inputs must be positive")
    p1, p2, p3 = hyper.psi
    return p1 * tables.m_l_max / m_l + p2 * tables.f_l_max / f_l + p3 / epsilon


def step(index: int, action: Action, n: int) -> int:
    """Move the privacy level along a grid of n points, clamped at the boundaries."""
    return min(n - 1, max(0, index + action.offset))


def exploration_probability(episode: int, hyper: RdpHyper) -> float:
    """Linear decay from EXPLORE_START to EXPLORE_MIN over the first half
    of training, held at the minimum afterwards."""
    half = max(1, hyper.max_episodes // 2)
    frac = min(1.0, episode / half)
    return EXPLORE_START + frac * (EXPLORE_MIN - EXPLORE_START)


def fit_tabular(
    states: Sequence,
    actions: Sequence,
    transition: Callable,
    reward_fn: Callable,
    hyper: RdpHyper,
    seed: int,
) -> tuple[np.ndarray, list[float], list[float]]:
    """Sweep trainer: each episode takes one epsilon-greedy transition
    from every state (actions must be Enum members so ties are ordered).

    Transitions and rewards must be deterministic; they are enumerated
    once into lookup tables so the sweep loop stays cheap. Updates within
    a sweep are applied sequentially, state by state. Returns the
    (n_states, n_actions) Q-values, rows in the given state order and
    columns in ascending action ordinal (so np.argmax over a row breaks
    ties toward the lowest ordinal), the mean absolute Q change per
    episode, and the total reward collected per episode. On a
    deterministic environment the Q-values settle at the Bellman fixed
    point and the delta trace decays toward zero.
    """
    rng = substream(seed, "rdp-train")
    states = list(states)
    actions = sorted(actions, key=lambda a: a.value)  # argmax ties -> lowest ordinal
    n_s, n_a = len(states), len(actions)
    state_index = {s: i for i, s in enumerate(states)}

    next_idx = np.empty((n_s, n_a), dtype=np.intp)
    rewards = np.empty((n_s, n_a))
    for i, s in enumerate(states):
        for j, a in enumerate(actions):
            s2 = transition(s, a)
            if s2 not in state_index:
                raise ValueError(f"transition left the state set: {s2!r}")
            next_idx[i, j] = state_index[s2]
            rewards[i, j] = reward_fn(s, a, s2)
    if not np.all(np.isfinite(rewards)):
        raise ArithmeticError("non-finite rewards")

    # The sweep runs on nested Python lists: scalar indexing into numpy
    # arrays costs more than the update arithmetic itself. Each update
    # repeats the array sweep's IEEE operations in the same order, so the
    # Q values are bitwise the ones numpy would compute.
    next_rows = next_idx.tolist()
    reward_rows = rewards.tolist()
    qvals = [[0.0] * n_a for _ in range(n_s)]
    # row_max[i] == max(qvals[i]) throughout, so the Bellman target and the
    # greedy choice need no scan of the row
    row_max = [0.0] * n_s
    alpha, zeta = hyper.alpha, hyper.zeta
    keep = 1.0 - alpha

    delta_trace = []
    episode_rewards = []
    for episode in range(hyper.max_episodes):
        explore = exploration_probability(episode, hyper)
        explore_draws = rng.random(n_s).tolist()
        random_actions = rng.integers(n_a, size=n_s).tolist()
        delta_sum = 0.0
        ep_reward = 0.0
        for i in range(n_s):
            row = qvals[i]
            if explore_draws[i] < explore:
                j = random_actions[i]
            else:
                # action ordinals ascend within each row, so the first
                # maximum is the lowest-ordinal tie, as np.argmax picks
                j = row.index(row_max[i])
            r = reward_rows[i][j]
            old = row[j]
            new = keep * old + alpha * (r + zeta * row_max[next_rows[i][j]])
            row[j] = new
            if new >= row_max[i]:
                row_max[i] = new
            elif old == row_max[i]:
                row_max[i] = max(row)
            delta_sum += abs(new - old)
            ep_reward += r
        mean_delta = delta_sum / n_s
        if not math.isfinite(mean_delta):
            raise ArithmeticError(f"non-finite Q values at episode {episode + 1}")
        delta_trace.append(mean_delta)
        episode_rewards.append(ep_reward)
    # the trace values stay np.float64, the type the array sweep produced
    return np.array(qvals), list(np.array(delta_trace)), list(np.array(episode_rewards))


@dataclass
class TrainResult:
    values: np.ndarray  # (grid points, actions), columns in ascending ordinal
    policy: list[Action]  # greedy action per grid index
    epsilon_star: float
    trace: list[dict]


def train(tables: LossTables, hyper: RdpHyper, seed: int) -> TrainResult:
    """Train the privacy-level agent on the loss tables.

    Returns the Q-values, the greedy policy, and the privacy loss reached
    by following the greedy policy to a fixed point from the middle of
    the grid. The trace carries the running cumulative reward, the mean
    absolute Q change, and the exploration probability per episode.
    """
    tables.require_complete()
    if hyper.zeta == 1.0:
        warnings.warn(
            "discount factor 1.0: Q-values have no fixed point here and the "
            "delta trace will not converge",
            RuntimeWarning,
            stacklevel=2,
        )
    grid = tables.epsilon_grid
    n = len(grid)

    def transition(i, a):
        return step(i, a, n)

    def reward_fn(_i, _a, i2):
        return reward(float(tables.m_l[i2]), float(tables.f_l[i2]), grid[i2], tables, hyper)

    values, delta_trace, episode_rewards = fit_tabular(range(n), ACTIONS, transition, reward_fn, hyper, seed)

    cumulative = 0.0
    trace = []
    for episode, (ep_reward, mean_delta) in enumerate(zip(episode_rewards, delta_trace), start=1):
        cumulative += ep_reward
        trace.append(
            {
                "episode": episode,
                "cumulative_reward": cumulative,
                "mean_abs_delta_q": mean_delta,
                "exploration_prob": exploration_probability(episode - 1, hyper),
            }
        )

    policy = [ACTIONS[j] for j in np.argmax(values, axis=1)]
    epsilon_star = _greedy_fixed_point(grid, policy)
    return TrainResult(values=values, policy=policy, epsilon_star=epsilon_star, trace=trace)


def _greedy_fixed_point(grid: Sequence[float], policy: list[Action]) -> float:
    """Follow the greedy policy from the grid midpoint until the privacy
    level stops changing; a cycle settles on its lowest grid index."""
    idx = len(grid) // 2
    seen: list[int] = []
    for _ in range(4 * len(grid)):
        nxt = step(idx, policy[idx], len(grid))
        if nxt == idx:
            return grid[idx]
        if idx in seen:
            cycle = seen[seen.index(idx):]
            return grid[min(cycle)]
        seen.append(idx)
        idx = nxt
    return grid[idx]


def generate_loss_tables(
    epsilon_grid: Sequence[float],
    gamma_values: Sequence[float],
    seeds: Sequence[int],
    final_loss: Callable[[float, Optional[float], int], float],
) -> LossTables:
    """Build loss tables by running the federation at every grid point.

    ``final_loss(epsilon, gamma, seed)`` must return the final global
    validation loss of one run; gamma None means a benign run. A run that
    diverges (TrainingDivergedError) marks its cell invalid (NaN) rather
    than aborting the sweep, and any other exception propagates;
    reductions average the valid cells (see LossTables.from_cells).
    """

    def loss_or_nan(eps: float, gamma: Optional[float], seed: int) -> float:
        try:
            return final_loss(eps, gamma, seed)
        except TrainingDivergedError:
            return float("nan")

    cells = []
    for eps in epsilon_grid:
        benign = {seed: loss_or_nan(eps, None, seed) for seed in seeds}
        for gamma in gamma_values:
            for seed in seeds:
                cells.append(
                    {
                        "epsilon": eps,
                        "gamma": gamma,
                        "seed": seed,
                        "m_l": loss_or_nan(eps, gamma, seed),
                        "f_l": benign[seed],
                    }
                )
    return LossTables.from_cells(cells)
