"""Plain-text dump of an explicit model, for diffing and external tools.

Format (see docs/formats.md): a header, then one line per transition
``state action prob state' reward_travel reward_idle`` where the action's
rewards repeat on each of its probabilistic branches, then a label section
listing the state indices carrying each label.
"""

from __future__ import annotations

from .mdp import Mdp

# Choice.kind -> the action's name in the dump, from its robot and instance
_ACTION_NAMES = {
    "task": "do_{robot}_{instance}",
    "travel": "goto_{robot}_{instance}",
    "idle": "idle_{robot}",
    "recover": "recover_{robot}",
    "sync": "sync_{instance}",
}


def write_mdp_text(mdp: Mdp) -> str:
    lines = [f"mdp states={mdp.n_states} initial={mdp.initial}"]
    for s, choices in enumerate(mdp.choices):
        for choice in choices:
            action = _ACTION_NAMES[choice.kind].format(
                robot=choice.robot, instance=choice.step.instance
            )
            for prob, t in choice.branches:
                lines.append(
                    f"{s} {action} {prob!r} {t} "
                    f"{choice.travel_reward} {choice.idle_reward}"
                )
    for name in sorted(mdp.labels):
        ids = " ".join(str(i) for i in sorted(mdp.labels[name]))
        lines.append(f"label {name} {ids}")
    return "\n".join(lines) + "\n"
