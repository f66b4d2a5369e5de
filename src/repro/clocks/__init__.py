"""Clock data structures: vector clocks and tree clocks."""

from .base import (
    Clock,
    ClockContext,
    VectorTime,
    WorkCounter,
    clock_name,
    vt_equal,
    vt_get,
    vt_join,
    vt_leq,
)
from .render import render_clock, render_tree_clock, render_vector_time
from .tree_clock import TreeClock, TreeClockNode
from .vector_clock import VectorClock

__all__ = [
    "Clock",
    "ClockContext",
    "TreeClock",
    "TreeClockNode",
    "VectorClock",
    "VectorTime",
    "WorkCounter",
    "clock_name",
    "render_clock",
    "render_tree_clock",
    "render_vector_time",
    "vt_equal",
    "vt_get",
    "vt_join",
    "vt_leq",
]
