#!/usr/bin/env python3
"""Game documents, exact rationals, validation, and the sequence order.

Run:  python demos/01_games_and_validation.py
"""

import json

from gametree import parse_game, serialize_game
from gametree.fixtures import fixture_text, load_game

print("=" * 72)
print("Parsing the bundled two-player upgrade/coordination game")
print("=" * 72)
ebos = load_game("ebos")
print(f"players:   {ebos.players}")
print(f"nodes:     {ebos.num_nodes} ({len(ebos.terminals)} terminals)")
for i, name in enumerate(ebos.players):
    ids = [iset.id for iset in ebos.infosets[i]]
    print(f"{name} infosets: {ids}")
# nodes link only down (infosets list no nodes), so count an infoset's nodes
# by walking from the root
p2, stack, spans = ebos.infosets[1][0], [ebos.root], 0
while stack:
    node = stack.pop()
    if node.kind == "decision" and node.infoset is p2:
        spans += 1
    if node.kind != "terminal":
        stack.extend(move[-1] for move in node.moves)
print("P2's single infoset spans", spans, "nodes: it moves without seeing P1's choices.")

print()
print("Sequences of P1 (the empty sequence, then one per infoset-action):")
for seq in ebos.sequences(0):
    print("  ", seq.label())
print("Order is precomputed: each infoset holds its own history as (infoset")
print("index, action) pairs (chain) and the infosets weakly after it (subtree):")
for iset in ebos.infosets[0]:
    history = [(ebos.infosets[0][j].id, a) for j, a in iset.chain]
    print(f"   {iset.id}: history {history}, "
          f"subtree {[j.id for j in iset.subtree]}")
root, after_u = ebos.infoset(0, "Root"), ebos.infoset(0, "AfterU")
print("so Root:U lies on the way to AfterU:X1 ->", (root.index, "U") in after_u.chain)

print()
print("=" * 72)
print("Validation reports defects as data, never as exceptions")
print("=" * 72)
broken = {
    "players": ["A"],
    "root": {"kind": "chance", "actions": [
        {"label": "l", "prob": "1/2",
         "child": {"kind": "terminal", "payoffs": ["1"]}},
        {"label": "r", "prob": "1/3",
         "child": {"kind": "terminal", "payoffs": ["0"]}},
    ]},
}
report = parse_game(json.dumps(broken)).validate()
print("ok:", report.ok)
for v in report.violations:
    print(f"  [{v.kind}] at {v.location}: {v.message}")

print()
print("=" * 72)
print("Serialization is canonical: parse -> serialize -> parse is a fixpoint")
print("=" * 72)
text = fixture_text("lrr.game.json")
once = serialize_game(parse_game(text))
twice = serialize_game(parse_game(once))
print("fixpoint:", once == twice)
print(once)
