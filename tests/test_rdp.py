import numpy as np
import pytest

from dpfedsim import rdp
from dpfedsim.rdp import (
    ACTIONS,
    Action,
    LossTables,
    RdpHyper,
    default_epsilon_grid,
    exploration_probability,
    fit_tabular,
    generate_loss_tables,
    reward,
    step,
    train,
)
from dpfedsim.model import TrainingDivergedError
from dpfedsim.rng import substream


def _tables(m=None, f=None, grid=None):
    grid = grid or default_epsilon_grid()
    n = len(grid)
    if m is None:
        m = np.linspace(9.0, 2.0, n)
    if f is None:
        f = np.linspace(5.0, 1.0, n)
    return LossTables(epsilon_grid=tuple(grid), m_l=np.asarray(m, float), f_l=np.asarray(f, float))


def _hyper(**kw):
    defaults = dict(alpha=0.5, zeta=0.5, max_episodes=50)
    defaults.update(kw)
    return RdpHyper(**defaults)


# reward -----------------------------------------------------------------

def test_reward_all_ratios_unit():
    t = _tables()
    hyper = _hyper(psi=(1.0, 1.0, 1.0))
    beta = reward(t.m_l_max, t.f_l_max, 1.0, t, hyper)
    assert beta == pytest.approx(3.0)


def test_reward_privacy_term_only():
    t = _tables()
    hyper = _hyper(psi=(0.0, 0.0, 1.0))
    assert reward(1.0, 1.0, 0.5, t, hyper) == pytest.approx(2.0)


def test_reward_weighted_fixture():
    # (2 + 1.5 + 1/0.7) / 3
    t = _tables(m=[2.0, 1.0], f=[3.0, 2.0], grid=(0.7, 1.4))
    hyper = _hyper(psi=(1 / 3, 1 / 3, 1 / 3))
    got = reward(t.m_l_max / 2.0, t.f_l_max / 1.5, 0.7, t, hyper)
    assert got == pytest.approx((2.0 + 1.5 + 1.0 / 0.7) / 3.0)


def test_reward_rejects_nonpositive():
    t = _tables()
    with pytest.raises(ValueError):
        reward(0.0, 1.0, 1.0, t, _hyper())


# state stepping -----------------------------------------------------------

def test_step_static_identity():
    n = len(default_epsilon_grid())
    assert step(5, Action.STATIC, n) == 5


def test_step_clamps_at_boundaries():
    n = len(default_epsilon_grid())
    assert step(n - 1, Action.INC2, n) == n - 1
    assert step(0, Action.DEC2, n) == 0


def test_step_moves_and_rebins():
    n = len(default_epsilon_grid())
    assert step(5, Action.DEC1, n) == 4


def test_step_inverse_returns_except_at_boundary():
    n = len(default_epsilon_grid())
    for idx in range(1, n - 1):
        assert step(step(idx, Action.INC1, n), Action.DEC1, n) == idx


# q updates -----------------------------------------------------------------

def _one_state_fit(r: float, episodes: int, **hyper):
    """fit_tabular on one state whose one action earns r and loops back."""
    return fit_tabular(
        [0], [Action.STATIC], lambda state, _a: state, lambda _s, _a, _s2: r,
        _hyper(max_episodes=episodes, **hyper), seed=0,
    )


def test_q_update_full_rate_no_discount():
    q, deltas, rewards = _one_state_fit(2.0, 1, alpha=1.0, zeta=0.0)
    assert q[0, Action.STATIC.value] == 2.0
    assert deltas == [2.0] and rewards == [2.0]


def test_q_update_zero_rate_keeps_value():
    # alpha must be > 0 per the hyper contract; emulate alpha -> 0 with a tiny rate
    with pytest.raises(ValueError):
        _hyper(alpha=0.0)
    _q, deltas, _rewards = _one_state_fit(5.0, 1, alpha=1e-12, zeta=0.0)
    assert deltas[0] == pytest.approx(5e-12)


def test_q_update_arithmetic_fixture():
    # Q1 = 0.5*0 + 0.5*(2 + 0.5*0) = 1; Q2 = 0.5*1 + 0.5*(2 + 0.5*1) = 1.75
    q, deltas, _rewards = _one_state_fit(2.0, 2, alpha=0.5, zeta=0.5)
    assert deltas == [1.0, 0.75]
    assert q[0, Action.STATIC.value] == 1.75


def test_argmax_tie_breaks_to_lowest_ordinal():
    # alpha = 1 and zeta = 0 make every visited Q value exactly the
    # reward, which is the same for every move: each row is a five-way tie
    t = _tables(m=[3.0, 3.0, 3.0], f=[2.0, 2.0, 2.0], grid=(0.5, 1.0, 1.5))
    result = train(t, _hyper(alpha=1.0, zeta=0.0, max_episodes=200, psi=(1.0, 1.0, 0.0)), seed=0)
    assert np.all(result.values == 2.0)
    assert result.policy == [Action.STATIC] * 3


# the sweep against its numpy form ---------------------------------------------

def _numpy_sweep(states, actions, transition, reward_fn, hyper, seed):
    """The sweep on numpy arrays, as fit_tabular once ran it: the oracle.

    Also counts the greedy choices made among tied maxima and the updates
    that lowered a row's maximum, so a case can show it reaches both.
    """
    rng = substream(seed, "rdp-train")
    actions = sorted(actions, key=lambda a: a.value)
    n_s, n_a = len(states), len(actions)
    index = {s: i for i, s in enumerate(states)}
    next_idx = np.array([[index[transition(s, a)] for a in actions] for s in states], dtype=np.intp)
    rewards = np.array([[reward_fn(s, a, transition(s, a)) for a in actions] for s in states])
    qvals = np.zeros((n_s, n_a))
    alpha, zeta = hyper.alpha, hyper.zeta
    deltas, episode_rewards = [], []
    tied_greedy = lowered_max = 0
    for episode in range(hyper.max_episodes):
        explore = exploration_probability(episode, hyper)
        explore_draws = rng.random(n_s)
        random_actions = rng.integers(n_a, size=n_s)
        delta_sum = 0.0
        ep_reward = 0.0
        for i in range(n_s):
            row = qvals[i]
            if explore_draws[i] < explore:
                j = random_actions[i]
            else:
                j = int(np.argmax(row))
                tied_greedy += int(np.sum(row == row[j]) > 1)
            nxt = next_idx[i, j]
            r = rewards[i, j]
            old = row[j]
            new = (1.0 - alpha) * old + alpha * (r + zeta * qvals[nxt].max())
            lowered_max += int(new < old == row.max() and np.sum(row == old) == 1)
            row[j] = new
            delta_sum += abs(new - old)
            ep_reward += r
        deltas.append(delta_sum / n_s)
        episode_rewards.append(ep_reward)
    return qvals, deltas, episode_rewards, tied_greedy, lowered_max


@pytest.mark.parametrize("zeta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("mdp_seed,alpha", [(0, 0.5), (1, 1.0), (2, 0.1)])
def test_sweep_equals_numpy_sweep(mdp_seed, alpha, zeta):
    gen = np.random.default_rng(mdp_seed)
    n_s, n_a = 7, len(ACTIONS)
    states = list(range(n_s))
    next_idx = gen.integers(n_s, size=(n_s, n_a))
    next_idx[:, Action.STATIC.value] = np.arange(n_s)  # self-loops
    # small integer rewards of both signs, so Q values tie and fall
    rewards = gen.integers(-2, 3, size=(n_s, n_a)).astype(float)
    # state 0 is absorbing at reward 0: its row stays all zeros, so every
    # greedy choice there is a five-way tie. State 1 pays only negative
    # rewards into it, so its row maximum falls below 0.
    next_idx[:2] = 0
    rewards[0] = 0.0
    rewards[1] = -gen.integers(1, 4, size=n_a)

    def transition(s, a):
        return states[next_idx[s, a.value]]

    def reward_fn(s, a, _s2):
        return float(rewards[s, a.value])

    hyper = RdpHyper(alpha=alpha, zeta=zeta, max_episodes=400)
    q, q_deltas, episode_rewards = fit_tabular(states, ACTIONS, transition, reward_fn, hyper, seed=mdp_seed)
    values, deltas, oracle_rewards, tied_greedy, lowered_max = _numpy_sweep(
        states, ACTIONS, transition, reward_fn, hyper, seed=mdp_seed
    )

    assert tied_greedy > 0 and lowered_max > 0
    assert np.array_equal(q, values)
    # repr pins the element type (np.float64) along with the value
    assert [repr(v) for v in q_deltas] == [repr(v) for v in deltas]
    assert [repr(v) for v in episode_rewards] == [repr(v) for v in oracle_rewards]


# training -----------------------------------------------------------------

def test_constant_reward_fixed_point():
    t = _tables(m=[3.0, 3.0], f=[2.0, 2.0], grid=(1.0, 1.0001))
    hyper = _hyper(alpha=0.5, zeta=0.0, max_episodes=1500, psi=(1.0, 1.0, 0.0))
    result = train(t, hyper, seed=0)
    # reward is 2.0 everywhere; all Q values converge there
    assert result.values == pytest.approx(np.full((2, len(ACTIONS)), 2.0), abs=1e-6)
    assert np.mean([row["mean_abs_delta_q"] for row in result.trace[-20:]]) < 1e-6


def test_dominant_epsilon_attracts_policy():
    # one grid point strictly dominates the reward everywhere
    grid = (0.5, 1.0)
    t = _tables(m=[10.0, 1.0], f=[10.0, 1.0], grid=grid)
    hyper = _hyper(alpha=0.9, zeta=0.3, max_episodes=2000, psi=(1.0, 1.0, 0.0))
    result = train(t, hyper, seed=1)

    # exhaustive value-iteration oracle over the 2-state mdp
    states = [0, 1]
    rew = {}
    nxt = {}
    for s in states:
        for a in ACTIONS:
            s2 = step(s, a, len(grid))
            nxt[(s, a)] = s2
            rew[(s, a)] = reward(float(t.m_l[s2]), float(t.f_l[s2]), grid[s2], t, hyper)
    exact = {k: 0.0 for k in rew}
    for _ in range(500):
        exact = {
            (s, a): rew[(s, a)] + hyper.zeta * max(exact[(nxt[(s, a)], b)] for b in ACTIONS)
            for (s, a) in rew
        }
    for (s, a), value in exact.items():
        assert result.values[s, a.value] == pytest.approx(value, abs=1e-6)
    # greedy policy moves to and holds the dominant point
    assert result.policy[states[0]].offset == 1
    assert result.policy[states[1]] == Action.STATIC
    assert result.epsilon_star == 1.0


def test_train_deterministic():
    t = _tables()
    a = train(t, _hyper(max_episodes=60), seed=9)
    b = train(t, _hyper(max_episodes=60), seed=9)
    assert np.array_equal(a.values, b.values)
    assert a.epsilon_star == b.epsilon_star
    assert a.trace == b.trace


def test_exploration_schedule_endpoints():
    hyper = _hyper(max_episodes=1000)
    assert exploration_probability(0, hyper) == 1.0
    assert exploration_probability(500, hyper) == pytest.approx(0.05)
    assert exploration_probability(999, hyper) == pytest.approx(0.05)
    mid = exploration_probability(250, hyper)
    assert 0.05 < mid < 1.0


def test_reward_scaling_leaves_policy_invariant():
    t = _tables()
    base = train(t, _hyper(alpha=0.8, zeta=0.4, max_episodes=800, psi=(1 / 3, 1 / 3, 1 / 3)), seed=4)
    scaled = train(t, _hyper(alpha=0.8, zeta=0.4, max_episodes=800, psi=(2.0, 2.0, 2.0)), seed=4)
    for i in range(len(t.epsilon_grid)):
        assert base.policy[i] == scaled.policy[i]
    assert scaled.values == pytest.approx(6.0 * base.values, rel=1e-9)


def test_zeta_one_permitted_but_not_convergent():
    t = _tables()
    with pytest.warns(RuntimeWarning, match="discount factor 1.0"):
        result = train(t, _hyper(alpha=0.01, zeta=1.0, max_episodes=2000), seed=2)
    assert np.mean([row["mean_abs_delta_q"] for row in result.trace[-100:]]) > 1e-3


def test_nonfinite_rewards_rejected():
    t = _tables()

    def bad_reward(_s, _a, _s2):
        return float("inf")

    n = len(t.epsilon_grid)
    with pytest.raises(ArithmeticError):
        fit_tabular(range(n), ACTIONS, lambda s, a: step(s, a, n), bad_reward, _hyper(), seed=0)


# loss tables ---------------------------------------------------------------

def test_generate_single_cell():
    tables = generate_loss_tables([1.0], [2.0], [0], lambda e, g, s: 3.0 if g else 2.0)
    assert len(tables.cells) == 1
    assert tables.m_l.tolist() == [3.0]
    assert tables.f_l.tolist() == [2.0]


def test_generate_averages_seeds():
    def runner(_e, g, seed):
        return (10.0 if g else 4.0) + seed

    tables = generate_loss_tables([1.0], [1.0], [0, 2], runner)
    assert tables.m_l.tolist() == [11.0]
    assert tables.f_l.tolist() == [5.0]


def test_generate_marks_failed_cells():
    def runner(e, g, _s):
        if g and e == 1.0:
            raise TrainingDivergedError(step=1, node_id=0, episode=1)
        return 2.0

    tables = generate_loss_tables([0.5, 1.0], [1.0], [0], runner)
    failed = [c for c in tables.cells if np.isnan(c["m_l"])]
    assert len(failed) == 1 and failed[0]["epsilon"] == 1.0
    # a grid point with no valid attacked cell cannot be trained on
    with pytest.raises(ValueError):
        train(tables, _hyper(), seed=0)


def test_generate_propagates_programming_errors():
    def runner(_e, g, _s):
        if g:
            raise TypeError("bad call")
        return 2.0

    with pytest.raises(TypeError, match="bad call"):
        generate_loss_tables([0.5, 1.0], [1.0], [0], runner)


def test_generate_all_failures_rejected():
    tables = generate_loss_tables([1.0], [1.0], [0], lambda e, g, s: float("nan"))
    with pytest.raises(ValueError):
        tables.require_complete()


def test_binning_matches_per_value_lookup():
    # the bins of every grid point against one quantile search per value,
    # on losses with ties, where searchsorted's side decides the bin
    rng = substream(3, "bins")
    m = rng.choice([1.0, 2.0, 2.5, 4.0], size=20)
    f = rng.uniform(0.5, 3.0, size=20)
    t = _tables(m=m, f=f)
    qs = np.linspace(0, 1, rdp.N_BINS + 1)[1:-1]
    m_bins, f_bins = t.bins
    for i in range(len(t.epsilon_grid)):
        assert (m_bins[i], f_bins[i]) == (
            int(np.searchsorted(np.quantile(m, qs), m[i], side="right")),
            int(np.searchsorted(np.quantile(f, qs), f[i], side="right")),
        )


def test_binning_deterministic_order():
    t = _tables()
    bins = t.bins[1]
    assert bins == sorted(bins, reverse=True)  # f_l decreasing -> bins nonincreasing
    assert min(bins) >= 0 and max(bins) < rdp.N_BINS
