"""Tasks shared out among threads: item order, context copies, errors."""

import contextvars
import sys
import threading

import pytest

from nformpde.lanes import available_cpus, map_chains, map_in_lanes

LABEL = contextvars.ContextVar("label", default="default")


def test_one_lane_runs_every_task_on_the_calling_thread():
    caller = threading.get_ident()
    assert map_in_lanes(lambda item: (item, threading.get_ident()), "abc", 1) == [
        ("a", caller), ("b", caller), ("c", caller)]


def test_each_task_sees_a_copy_of_the_callers_context():
    def task(item):
        seen = LABEL.get()
        LABEL.set(item)  # lands in the task's own copy
        return seen

    token = LABEL.set("caller")
    try:
        assert map_in_lanes(task, range(6), 3) == ["caller"] * 6
        assert LABEL.get() == "caller"
    finally:
        LABEL.reset(token)


def test_every_item_runs_once_in_item_order_under_contention():
    # more lanes than cores and a short switch interval: an item handed out
    # twice or lost would show in the counts
    counts = [0] * 2000
    lock = threading.Lock()

    def task(item):
        with lock:
            counts[item] += 1
        return item * item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = map_in_lanes(task, range(len(counts)), available_cpus() + 1)
    finally:
        sys.setswitchinterval(interval)
    assert results == [item * item for item in range(len(counts))]
    assert counts == [1] * len(counts)


def test_a_failed_task_stops_the_hand_out_and_raises():
    ran = []

    def task(item):
        ran.append(item)
        if item == 0:
            raise ValueError("scripted")
        return item

    with pytest.raises(ValueError, match="scripted"):
        map_in_lanes(task, range(50), 1)
    assert ran == [0]
    with pytest.raises(ValueError, match="scripted"):
        map_in_lanes(task, range(50), 2)


def test_map_chains_hands_each_warm_start_to_the_next_item_of_its_chain():
    # a chain's first item starts cold, and a step that returns None as its
    # warm start starts the next item of its chain cold
    def step(item, warm):
        return (item, warm), None if item == "b" else item

    assert map_chains(step, ["abc", "de"], 2) == [
        [("a", None), ("b", "a"), ("c", None)], [("d", None), ("e", "d")]]
