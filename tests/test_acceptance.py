"""Acceptance suite.

Seven end-to-end criteria, one test each, with the tolerances and time
limits stated in the assertions.  Run ``pytest -v tests/test_acceptance.py``
to get one pass/fail line per criterion; each test also prints a one-line
summary of what it measured (visible with ``-s`` or on failure).
"""

import json
import re
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np
import pytest
from conftest import HashedCentralizedStrategy, HashedMemberStrategy, random_model

from teamdp import (
    CentralizedTableStrategy,
    DecentralizedStrategy,
    InformationStructure,
    MemberTableStrategy,
    backup,
    compare_solutions,
    evaluate_member_value,
    evaluate_value,
    extract_views,
    member_belief,
    scenario_to_dict,
    solve_manager,
    solve_member,
    team_belief_from_history,
    view_key,
)
from teamdp import oracle
from teamdp.cli import run
from teamdp.model import history_key, prefix_view
from teamdp.sim import rollout

WALL_TIME = re.compile(r'^\s*"wall_time_s": [0-9.eE+-]+,?\n', re.MULTILINE)


def hashed_profile(model, structure, salt):
    return DecentralizedStrategy(
        model,
        structure,
        [
            HashedMemberStrategy(model, structure, k, salt=salt + 31 * k)
            for k in range(model.num_members)
        ],
    )


@lru_cache(maxsize=None)
def filter_instances():
    """50 delayed-sharing instances: |states| <= 4, K <= 2, binary actions
    and observations, horizon <= 3, delays in {1, 2}."""
    out = []
    for i in range(50):
        K = 1 + (i % 2)
        S = 2 + (i % 3)
        T = 1 + (i // 2) % 3
        delays = tuple(1 + ((i + j) % 2) for j in range(K))
        model = random_model(5000 + i, num_members=K, num_states=S, horizon=T)
        out.append((model, InformationStructure("delayed_sharing", delays=delays)))
    return tuple(out)


@lru_cache(maxsize=None)
def enumeration_instances():
    """20 instances small enough for the exhaustive centralized search:
    ten 2-member horizon-2 and ten 1-member horizon-2/3 problems."""
    out = []
    for i in range(10):
        model = random_model(7000 + i, num_members=2, num_states=2 + (i % 2), horizon=2)
        delays = (1 + (i % 2), 1 + ((i + 1) % 2))
        out.append((model, InformationStructure("delayed_sharing", delays=delays)))
    for i in range(10):
        model = random_model(7100 + i, num_members=1, num_states=2 + (i % 3), horizon=2 + (i % 2))
        out.append((model, InformationStructure("delayed_sharing", delays=(1 + (i % 2),))))
    return tuple(out)


# ---------------------------------------------------------------------------


def test_criterion_1_gaussian_example_reproduction(tmp_path):
    """Closed-form gains exact, Monte Carlo within 3 standard errors of
    0.1875 at one million samples, 0.01-step grid within 1e-3, both
    covariance signs reported; all in under 30 seconds."""
    started = time.perf_counter()
    out = tmp_path / "gaussian.json"
    code = run(
        [
            "gaussian-example",
            "--covariance",
            "-0.5",
            "--samples",
            "1000000",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    r = json.loads(out.read_text())["results"]
    assert r["closed_form"]["first_gain"] == 0.5
    assert r["closed_form"]["pooled_gain"] == 0.5
    assert r["closed_form"]["correction_gain"] == -0.25
    assert r["closed_form"]["optimal_cost"] == 0.1875
    mc = r["monte_carlo"]
    assert mc["samples"] == 1000000
    assert abs(mc["mean"] - 0.1875) <= 3.0 * mc["std_error"]
    assert abs(r["grid_search"]["cost"] - 0.1875) <= 1e-3
    # companion covariance sign produced alongside, discrepancy documented
    assert r["companion_sign"]["covariance"] == 0.5
    assert r["companion_sign"]["first_gain"] == 1.5
    assert r["companion_sign"]["pooled_gain"] == 0.5
    assert r["companion_sign"]["correction_gain"] == -0.75
    assert r["companion_sign"]["optimal_cost"] == 0.1875
    assert "1 + covariance" in r["sign_note"]
    assert elapsed < 30.0
    print(
        f"criterion 1: gains exact, mc {mc['mean']:.6f} +- {mc['std_error']:.6f}, "
        f"grid gap {r['grid_search']['gap_to_closed_form']:.2e}, {elapsed:.1f}s"
    )


def test_criterion_2_filter_exactness():
    """team_belief_from_history and member_belief match the conditioning
    oracle within 1e-12 max-entry error on 50 random instances, under 60
    seconds total."""
    started = time.perf_counter()
    worst = 0.0
    views_checked = 0
    for i, (model, structure) in enumerate(filter_instances()):
        profile = hashed_profile(model, structure, salt=i)
        traj = rollout(model, profile, seed=i).trajectory
        co_maps = [
            {j: profile.members[j] for j in range(model.num_members) if j != k}
            for k in range(model.num_members)
        ]
        for t in range(model.horizon + 1):
            team_views = extract_views(structure, traj, t, None)
            team = team_belief_from_history(model, structure, team_views)
            ref = oracle.exact_posterior(model, None, team_views)
            worst = max(worst, float(np.max(np.abs(team.probs - ref))))
            views_checked += 1
            for k in range(model.num_members):
                view = extract_views(structure, traj, t, k)
                mine = member_belief(model, structure, co_maps[k], view)
                ref = oracle.exact_posterior(model, profile, view)
                worst = max(worst, float(np.max(np.abs(mine.probs - ref))))
                views_checked += 1
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 60.0
    print(
        f"criterion 2: {views_checked} views on 50 instances, "
        f"worst filter error {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_3_dp_optimality_and_comparison_principle():
    """Manager root value equals the exhaustive centralized optimum within
    1e-9 on 20 instances, and lower-bounds the exact cost of 100 arbitrary
    full-history strategies per instance; under 5 minutes."""
    started = time.perf_counter()
    worst_match = 0.0
    worst_margin = -np.inf
    for i, (model, structure) in enumerate(enumeration_instances()):
        mgr = solve_manager(model, structure)
        best = oracle.enumerate_centralized(model, structure)
        worst_match = max(worst_match, abs(mgr.root_value - best.optimal_cost))
        assert abs(mgr.root_value - best.optimal_cost) <= 1e-9
        for salt in range(100):
            g = HashedCentralizedStrategy(model, salt=1000 * i + salt)
            cost = oracle.exact_cost(model, structure, g)
            worst_margin = max(worst_margin, mgr.root_value - cost)
            assert mgr.root_value <= cost + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"criterion 3: 20 instances, worst |root - oracle| {worst_match:.2e}, "
        f"max root-over-cost margin {worst_margin:.2e} (<= 0 expected), {elapsed:.1f}s"
    )


@pytest.mark.slow
def test_criterion_4_value_function_properties():
    """backup scales exactly (within 1e-12) under positive scaling of the
    belief for rho in {0.5, 2, 7.3} on 100 (belief, value_next) pairs, and
    the team and member values are concave within 1e-9 on 200 random
    mixtures per stage on each of three instances."""
    r = np.random.default_rng(99)
    # homogeneity of the one-stage backup
    worst_hom = 0.0
    for pair in range(100):
        model = random_model(8000 + pair % 5, num_states=3)
        coefs = r.uniform(0.0, 2.0, size=(3, model.num_states))
        vnext = lambda vec, c=coefs: min(float(row @ vec) for row in c)
        t = int(r.integers(model.horizon))
        b = r.uniform(0.05, 1.0, size=model.num_states)
        b /= b.sum()
        base, _ = backup(model, vnext, b, t)
        for rho in (0.5, 2.0, 7.3):
            scaled, _ = backup(model, vnext, rho * b, t)
            worst_hom = max(worst_hom, abs(scaled - rho * base))
            assert abs(scaled - rho * base) <= 1e-12
    # concavity of the team value in the belief
    worst_team = 0.0
    for seed in (41, 42, 43):
        model = random_model(seed, num_states=3)
        structure = InformationStructure("delayed_sharing", delays=(1, 1))
        for t in range(model.horizon):
            for _ in range(200):
                b1 = r.uniform(0.05, 1.0, size=model.num_states)
                b2 = r.uniform(0.05, 1.0, size=model.num_states)
                b1, b2 = b1 / b1.sum(), b2 / b2.sum()
                lam = float(r.uniform())
                mixed = evaluate_value(model, t, lam * b1 + (1.0 - lam) * b2)
                split = lam * evaluate_value(model, t, b1) + (
                    1.0 - lam
                ) * evaluate_value(model, t, b2)
                worst_team = max(worst_team, split - mixed)
                assert mixed >= split - 1e-9
    # concavity of the member value in the joint conditional
    worst_member = 0.0
    for seed in (51, 52, 53):
        model = random_model(seed, num_states=3)
        structure = InformationStructure("delayed_sharing", delays=(1, 1))
        co = {1: HashedMemberStrategy(model, structure, 1, salt=seed)}

        def particles(t):
            n = int(r.integers(2, 7))
            raw = []
            for _ in range(n):
                x = int(r.integers(model.num_states))
                obs = tuple(
                    tuple(int(r.integers(model.observation_sizes[m])) for m in range(2))
                    for _ in range(t)
                )
                act = tuple(
                    tuple(int(r.integers(model.action_sizes[m])) for m in range(2))
                    for _ in range(t)
                )
                raw.append((x, obs, act, float(r.uniform(0.1, 1.0))))
            z = sum(p[3] for p in raw)
            return tuple((x, o, a, w / z) for x, o, a, w in raw)

        for t in range(model.horizon):
            for _ in range(200):
                p1, p2 = particles(t), particles(t)
                lam = float(r.uniform())
                v1 = evaluate_member_value(model, structure, 0, co, (t, p1))
                v2 = evaluate_member_value(model, structure, 0, co, (t, p2))
                mix = tuple((x, o, a, lam * w) for x, o, a, w in p1) + tuple(
                    (x, o, a, (1.0 - lam) * w) for x, o, a, w in p2
                )
                mixed = evaluate_member_value(model, structure, 0, co, (t, mix))
                worst_member = max(worst_member, lam * v1 + (1.0 - lam) * v2 - mixed)
                assert mixed >= lam * v1 + (1.0 - lam) * v2 - 1e-9
    print(
        f"criterion 4: homogeneity worst {worst_hom:.2e}, concavity slack "
        f"team {worst_team:.2e} / member {worst_member:.2e} (<= 0 means never violated)"
    )


def test_criterion_5_strategy_independence():
    """Posteriors conditioned on two distinct strategies that produce the
    same realized history are bit-for-bit identical, on the team side and
    for each member's own strategy, across 50 random instances."""
    checked = 0
    for i, (model, structure) in enumerate(filter_instances()):
        profile = hashed_profile(model, structure, salt=100 + i)
        traj = rollout(model, profile, seed=1000 + i).trajectory
        T = model.horizon
        # team side: same realized history, different off-path behavior
        table = {
            history_key(traj.actions[:t], traj.observations[:t]): traj.actions[t]
            for t in range(T)
        }
        team_a = CentralizedTableStrategy(model, dict(table), default=(0,) * model.num_members)
        team_b = CentralizedTableStrategy(model, dict(table), default=(1,) * model.num_members)
        for t in range(T + 1):
            views = extract_views(structure, traj, t, None)
            post_a = oracle.exact_posterior(model, team_a, views)
            post_b = oracle.exact_posterior(model, team_b, views)
            np.testing.assert_array_equal(post_a, post_b)
            checked += 1
        # member side: swap member k's own component, keep co fixed
        for k in range(model.num_members):
            own_table = {
                view_key(extract_views(structure, traj, t, k)): traj.actions[t][k]
                for t in range(T)
            }
            variants = []
            for default in (0, 1):
                members = list(profile.members)
                members[k] = MemberTableStrategy(
                    model, structure, k, dict(own_table), default=default
                )
                variants.append(DecentralizedStrategy(model, structure, members))
            for t in range(T + 1):
                view = extract_views(structure, traj, t, k)
                post_a = oracle.exact_posterior(model, variants[0], view)
                post_b = oracle.exact_posterior(model, variants[1], view)
                np.testing.assert_array_equal(post_a, post_b)
                checked += 1
    print(f"criterion 5: {checked} posterior pairs bitwise identical on 50 instances")


def test_criterion_6_manager_member_equivalence_report():
    """compare_solutions completes on every criterion-3 instance and
    reports per-node agreement and the three costs; exact agreement is
    asserted only where information is classical (here: one member)."""
    single_member = 0
    for model, structure in enumeration_instances():
        report = compare_solutions(model, structure)
        d = report.to_json_dict()
        assert {
            "manager_root_value",
            "manager_cost",
            "member_profile_cost",
            "decentralized_optimal_cost",
            "members",
        } <= set(d)
        assert report.manager_root_value <= report.decentralized_optimal_cost + 1e-12
        assert report.decentralized_optimal_cost <= report.member_profile_cost + 1e-12
        for m in report.members:
            assert m.root_gap >= -1e-12
            assert 0.0 <= m.agreement_fraction <= 1.0
            assert all({"node", "time", "member_argmin"} <= set(n) for n in m.nodes)
        if model.num_members == 1:
            single_member += 1
            assert report.members[0].agreement_fraction == 1.0
            assert abs(report.members[0].root_gap) <= 1e-12
            assert abs(report.member_profile_cost - report.manager_root_value) <= 1e-12
    # classical degenerate instance: perfectly observed state, symmetric
    # sharing -- members must reproduce the manager node for node
    eye = np.eye(2)
    stage = np.array(
        [
            [[0.0, 0.8, 0.3, 1.0], [0.9, 0.2, 1.0, 0.4]],
            [[0.5, 0.1, 0.6, 0.2], [0.3, 0.7, 0.0, 0.9]],
        ]
    )
    from teamdp import TeamModel

    classical = TeamModel(
        num_members=2,
        horizon=2,
        states=("s0", "s1"),
        actions=(("l", "r"), ("l", "r")),
        observations=(("s0", "s1"), ("s0", "s1")),
        initial_dist=np.array([0.7, 0.3]),
        transition=np.array(
            [[[0.6, 0.4]] * 4, [[0.4, 0.6]] * 4]
        ),
        observation_kernels=(eye, eye.copy()),
        stage_cost=stage,
        terminal_cost=np.array([1.0, 0.0]),
    )
    report = compare_solutions(classical, InformationStructure("delayed_sharing", delays=(1, 1)))
    for m in report.members:
        assert m.agreement_fraction == 1.0
        assert abs(m.root_gap) <= 1e-12
    print(
        f"criterion 6: 20 comparison reports complete "
        f"({single_member} single-member exact, classical instance exact)"
    )


def _reproduce(model, structure):
    """Each member's best response to the other tables of the exhaustive
    decentralized optimum has the optimum's cost at its root, within
    1e-12, and plays the optimum's action at every view the optimum
    reaches with positive probability.  Returns the optimum and each
    member's number of on-path views."""
    best = oracle.enumerate_decentralized(model, structure)
    outcomes = oracle.enumerate_outcomes(model, best.strategy)
    counts = []
    for k, table in enumerate(best.strategy.members):
        others = {1 - k: best.strategy.members[1 - k]}
        sol = solve_member(model, structure, k, others)
        assert abs(sol.root_value - best.optimal_cost) <= 1e-12
        on_path = {}
        for outcome in outcomes:
            traj = outcome.trajectory
            for t in range(model.horizon):
                obs_seq, act_seq = traj.observations[:t], traj.actions[:t]
                view = prefix_view(structure, 2, obs_seq, act_seq, t, k)
                on_path[view_key(view)] = table.member_action(obs_seq, act_seq, t)
        for key, action in on_path.items():
            assert sol.strategy.table[key] == action, key
        counts.append(len(on_path))
    return best, counts


def test_each_member_reproduces_the_decentralized_optimum():
    """The paper's claim that each member's solution is the one derived
    for the team, in the form the repository can certify (``_reproduce``),
    on every two-member criterion-3 instance.  So it does at T = 3 under
    delays (1, 2), where the sharing rule shapes the views, with the
    optimum pinned by value: a layout that feeds a member the wrong data
    fails there on a number, not only on a key.  0.9-1.4 s on a shared
    2-vCPU host."""
    pinned = (
        random_model(1007, horizon=3, positive=False),
        InformationStructure("delayed_sharing", delays=(1, 2)),
    )
    checked = []
    for model, structure in [*enumeration_instances(), pinned]:
        if model.num_members == 2:
            best, counts = _reproduce(model, structure)
            checked += counts
    assert (best.num_strategies, best.optimal_cost.hex()) == (57_344, "0x1.a87a469d16dbap+0")
    assert sum(checked[:-2]) == 60  # on-path views of the 20 T = 2 member solves
    assert checked[-2:] == [7, 8]


# T = 3 instances of random_model(1007, positive=False) under the other
# delayed sharing rules: (variant, delays) -> (profiles, optimum, on-path
# views of each member).  Control sharing under (1, 2) has an optimum of
# its own; under (2, 1) it has delayed sharing's, as observation sharing
# had on every T = 3 instance tried, and a delay off by one moves it.
_SHARING_RULES = {
    ("delayed_control_sharing", (1, 2)): (35_840, "0x1.a8c1e9fde8246p+0", [7, 6]),
    ("delayed_control_sharing", (2, 1)): (35_840, "0x1.a2d42df8eb856p+0", [9, 6]),
    ("delayed_observation_sharing", (2, 1)): (57_344, "0x1.a2d42df8eb856p+0", [9, 6]),
}


@pytest.mark.parametrize(
    "rule", list(_SHARING_RULES), ids=lambda rule: "%s-%d%d" % (rule[0], *rule[1])
)
def test_each_member_reproduces_the_optimum_under_other_sharing_rules(rule):
    """``_reproduce`` holds where control sharing and observation sharing
    shape the views, each optimum pinned by value."""
    variant, delays = rule
    model = random_model(1007, horizon=3, positive=False)
    best, counts = _reproduce(model, InformationStructure(variant, delays=delays))
    assert (best.num_strategies, best.optimal_cost.hex(), counts) == _SHARING_RULES[rule]


@pytest.mark.slow
def test_criterion_7_reproducible_reports(toy2, tmp_path):
    """Byte-identical reports (timing line excluded) across consecutive
    invocations and across serial vs concurrent execution of the CLI."""
    model, structure = toy2
    scenario = tmp_path / "toy.json"
    scenario.write_text(json.dumps(scenario_to_dict(model, structure, name="toy")))
    invocations = [
        ["validate", "--scenario", str(scenario)],
        ["solve-manager", "--scenario", str(scenario)],
        ["solve-member", "--scenario", str(scenario), "--member", "0"],
        ["oracle-centralized", "--scenario", str(scenario)],
        ["oracle-decentralized", "--scenario", str(scenario)],
        ["compare", "--scenario", str(scenario)],
        ["simulate", "--scenario", str(scenario), "--samples", "200", "--seed", "5"],
        ["gaussian-example", "--samples", "2000", "--seed", "7", "--grid", "0:2:0.1,0:1:0.1,-1:0:0.1"],
    ]

    def serial(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "teamdp", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return WALL_TIME.sub("", proc.stdout)

    first = [serial(argv) for argv in invocations]
    second = [serial(argv) for argv in invocations]
    # all eight commands at once, racing each other
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "teamdp", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for argv in invocations
    ]
    concurrent = []
    for p in procs:
        out, err = p.communicate()
        assert p.returncode == 0, err
        concurrent.append(WALL_TIME.sub("", out))
    assert first == second
    assert first == concurrent
    print(f"criterion 7: {len(invocations)} commands byte-identical across 3 executions")
