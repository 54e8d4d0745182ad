"""Every interleaving of a small alphabet of events, each distinct state once.

The enumerated tests share this search.  A *scenario* supplies five
things:

* ``world()`` — the state a run starts from;
* ``enabled(world, trace)`` — the events that may happen next, after
  ``trace`` has happened;
* ``apply(world, event)`` — one event, in place;
* ``violations(world)`` — every spec the state breaks, as text;
* ``fingerprint(world)`` — a hashable digest of everything later events
  or the specs read, so that two states with one fingerprint have the
  same futures.

:func:`explore` walks every run depth first and stops at the first
violation; :func:`shrink` drops events from a violating trace while it
still violates; :func:`replay` runs a trace again from the start, so a
shrunk trace printed by :func:`check` reproduces the fault anywhere.
"""

from __future__ import annotations

import pickle
from typing import Any, List, Optional, Sequence, Set, Tuple

Event = Tuple[Any, ...]


def replay(scenario: Any, trace: Sequence[Event]) -> Optional[Any]:
    """Run ``trace`` from the start; None if some event is not enabled."""
    world = scenario.world()
    done: List[Event] = []
    for event in trace:
        if event not in scenario.enabled(world, done):
            return None
        scenario.apply(world, event)
        done.append(event)
    return world


def shrink(scenario: Any, trace: List[Event]) -> List[Event]:
    """Drop events one at a time while the run still breaks a spec."""
    changed = True
    while changed:
        changed = False
        for i in range(len(trace)):
            shorter = trace[:i] + trace[i + 1:]
            world = replay(scenario, shorter)
            if world is not None and scenario.violations(world):
                trace = shorter
                changed = True
                break
    return trace


def explore(scenario: Any) -> Tuple[int, Optional[List[Event]]]:
    """Depth-first over every interleaving of the alphabet, each distinct
    state once.  Returns the states seen and the first violating trace."""
    seen: Set[Any] = set()
    stack: List[Tuple[Any, List[Event]]] = [(scenario.world(), [])]
    while stack:
        world, trace = stack.pop()
        key = scenario.fingerprint(world)
        if key in seen:
            continue
        seen.add(key)
        if scenario.violations(world):
            return len(seen), trace
        events = scenario.enabled(world, trace)
        # One pickle of the parent serves every child but the first,
        # which, popped next, takes the parent's state itself.
        blob = pickle.dumps(world, pickle.HIGHEST_PROTOCOL) if len(events) > 1 else b""
        for i in range(len(events) - 1, -1, -1):
            child = world if i == 0 else pickle.loads(blob)
            scenario.apply(child, events[i])
            stack.append((child, trace + [events[i]]))
    return len(seen), None


def check(scenario: Any) -> int:
    """The states a violation-free scenario has; else an error naming
    the broken specs and a shrunk trace that :func:`replay` reproduces."""
    states, trace = explore(scenario)
    if trace is not None:
        small = shrink(scenario, trace)
        raise AssertionError(
            f"after {states} states: {scenario.violations(replay(scenario, small))} "
            f"on replay(scenario, {small})"
        )
    return states
