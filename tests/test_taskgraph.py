import random

from helpers import load

from kanoa.taskgraph import debug_report, expand_mission, prune_subtrees

NESTED = """
world { loc room2 (0, 0) }
tasks {
  atomic at2_floor robots 1
  atomic at3_sanit robots 1
  atomic at4_notify robots 1
  compound ct1 = { at2_floor, at3_sanit }
  compound ct2 = ordered { at4_notify, ct1 }
}
robots {
  robot r1 at room2 velocity 1 {
    can at2_floor time 2 prob 1
    can at3_sanit time 2 prob 1
    can at4_notify time 1 prob 1
  }
}
mission { task ct2 at room2; time 50 }
"""


def test_ordered_compound_expansion():
    tree, pairs = expand_mission(load(NESTED))
    ids = [l.instance_id for l in tree.leaves()]
    assert ids == ["at4_notify_0", "at2_floor_0", "at3_sanit_0"]
    assert all(l.location == "room2" for l in tree.leaves())
    got = {(p.before, p.after) for p in pairs}
    assert got == {
        ("at4_notify_0", "at2_floor_0"),
        ("at4_notify_0", "at3_sanit_0"),
    }


def test_single_atomic_mission():
    v = load(
        "world { loc a (0,0) } tasks { atomic t robots 1 }"
        " robots { robot r at a velocity 1 { can t time 1 prob 1 } }"
        " mission { task t at a; time 5 }"
    )
    tree, pairs = expand_mission(v)
    assert [l.instance_id for l in tree.leaves()] == ["t_0"]
    assert pairs == []


def test_hospital_expansion(hospital):
    tree, pairs = expand_mission(hospital)
    leaves = tree.leaves()
    assert len(leaves) == 14  # 2 moves + 4 rooms x 3 cleaning steps
    moves = [l for l in leaves if l.type_id == "at1_move"]
    assert [m.instance_id for m in moves] == ["at1_move_0", "at1_move_1"]
    assert [m.location for m in moves] == ["room1", "room6"]
    assert len(pairs) == 8  # notify before floor and sanitise, per room
    # instances inherit their mission task's location
    notup = [l for l in leaves if l.type_id == "at4_notify"]
    assert [l.location for l in notup] == ["room2", "room3", "room4", "room5"]


def test_ordinals_count_per_type(hospital):
    tree, _ = expand_mission(hospital)
    floors = [l.instance_id for l in tree.leaves() if l.type_id == "at2_floor"]
    assert floors == [f"at2_floor_{i}" for i in range(4)]


def test_prune_singleton_leaf():
    v = load(
        "world { loc a (0,0) } tasks { atomic t robots 1 }"
        " robots { robot r at a velocity 1 { can t time 1 prob 1 } }"
        " mission { task t at a; time 5 }"
    )
    tree, _ = expand_mission(v)
    subs = prune_subtrees(tree)
    assert len(subs) == 1
    assert subs[0] == frozenset({"t_0"})


def test_prune_unordered_compound_descends():
    v = load(
        "world { loc a (0,0) } tasks { atomic x robots 1 atomic y robots 1"
        " atomic z robots 1 compound c = { x, y, z } }"
        " robots { robot r at a velocity 1 { can x time 1 prob 1"
        " can y time 1 prob 1 can z time 1 prob 1 } }"
        " mission { task c at a; time 9 }"
    )
    tree, _ = expand_mission(v)
    subs = prune_subtrees(tree)
    assert subs == [
        frozenset({"x_0"}),
        frozenset({"y_0"}),
        frozenset({"z_0"}),
    ]


def test_prune_hospital_shape(hospital):
    tree, _ = expand_mission(hospital)
    subs = prune_subtrees(tree)
    assert len(subs) == 6  # two joint moves + one ordered subtree per room
    sizes = sorted(len(s) for s in subs)
    assert sizes == [1, 1, 3, 3, 3, 3]


def test_partition_and_acyclicity(hospital):
    tree, pairs = expand_mission(hospital)
    subs = prune_subtrees(tree)
    union = set()
    total = 0
    for s in subs:
        total += len(s)
        union |= s
    assert union == {l.instance_id for l in tree.leaves()}
    assert total == len(union)  # pairwise disjoint
    assert _topo_sortable({l.instance_id for l in tree.leaves()}, pairs)


def test_constrained_pairs_share_subtree(hospital):
    tree, pairs = expand_mission(hospital)
    subs = prune_subtrees(tree)
    home = {}
    for k, s in enumerate(subs):
        for inst in s:
            home[inst] = k
    for p in pairs:
        assert home[p.before] == home[p.after]


def test_debug_report_round_trips_to_json(hospital):
    import json

    tree, pairs = expand_mission(hospital)
    payload = debug_report(tree, pairs)
    text = json.dumps(payload)
    assert json.loads(text) == payload
    assert len(payload["precedence"]) == len(pairs)


def test_nested_ordered_inside_unordered():
    v = load(
        "world { loc a (0,0) } tasks { atomic x robots 1 atomic y robots 1"
        " atomic z robots 1 compound inner = ordered { x, y }"
        " compound outer = ordered { inner, z } }"
        " robots { robot r at a velocity 1 { can x time 1 prob 1"
        " can y time 1 prob 1 can z time 1 prob 1 } }"
        " mission { task outer at a; time 20 }"
    )
    tree, pairs = expand_mission(v)
    got = {(p.before, p.after) for p in pairs}
    # inner chain plus last-of-inner -> z
    assert got == {("x_0", "y_0"), ("y_0", "z_0")}
    subs = prune_subtrees(tree)
    assert len(subs) == 1  # the ordered root swallows everything


def _topo_sortable(nodes, pairs):
    succ = {}
    indeg = {n: 0 for n in nodes}
    for p in pairs:
        succ.setdefault(p.before, []).append(p.after)
        indeg[p.after] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        n = ready.pop()
        seen += 1
        for m in succ.get(n, ()):
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    return seen == len(nodes)


def test_random_missions_partition_property():
    rng = random.Random(3)
    from helpers import random_problem_text

    for _ in range(40):
        try:
            v = load(random_problem_text(rng))
        except Exception:
            continue
        tree, pairs = expand_mission(v)
        subs = prune_subtrees(tree)
        union = set()
        for s in subs:
            assert not (union & s)
            union |= s
        assert union == {l.instance_id for l in tree.leaves()}
        assert _topo_sortable(union, pairs)
