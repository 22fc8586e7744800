"""Spans recorded from perf's own files, around the calls into each layer.

The traced run replaces a handful of public functions with timing wrappers
(``Tracer.wrap``), keeps every span in memory and writes them out at exit.
A span is ``(id, name, start_ns, end_ns, parent, request)``; its name is
``"<layer>:<function>"`` and spans of one request share the id of their root.
A layer's *self* time is its spans' duration minus the part their direct
children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, str, int, int, Optional[int], int]
#: ``(span id, request id)`` — what a child needs to know about its parent.
Context = Tuple[int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: The span that is waiting on work it handed to another thread.
        self._handoff: Optional[Context] = None

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[Context] = None,
        adopt: bool = False,
        publish: bool = False,
    ) -> Iterator[Context]:
        """Time a block. The parent is the enclosing span on this thread, else
        ``parent``, else (``adopt``) the span another thread ``publish``-ed
        before blocking on this one's work."""
        stack = self._local.__dict__.setdefault("stack", [])
        if stack:
            parent = stack[-1]
        elif parent is None and adopt:
            parent = self._handoff
        span_id = next(self._ids)
        context = (span_id, parent[1] if parent else span_id)
        stack.append(context)
        if publish:
            previous, self._handoff = self._handoff, context
        start = time.perf_counter_ns()
        try:
            yield context
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if publish:
                self._handoff = previous
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent else None, context[1])
            )

    def wrap(self, owner: object, attr: str, name: str, **span_options: bool) -> None:
        """Replace ``owner.attr`` with a version that runs inside a span."""
        original = getattr(owner, attr)

        def traced(*args: object, **kwargs: object) -> object:
            with self.span(name, **span_options):
                return original(*args, **kwargs)

        self.patch(owner, attr, traced)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start_ns", "end_ns", "parent", "request")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def self_ns_by_span(spans: List[Span]) -> Dict[int, int]:
    """Each span's duration minus the durations of its direct children."""
    own = {span[0]: span[3] - span[2] for span in spans}
    for _, _, start, end, parent, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def layer_self_ns_per_request(
    spans: List[Span], keep: Optional[Callable[[int], bool]] = None
) -> Dict[int, Dict[str, int]]:
    """``{request: {layer: summed self ns}}`` for requests ``keep`` accepts."""
    own = self_ns_by_span(spans)
    out: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span_id, name, _, _, _, request in spans:
        if keep is None or keep(request):
            out[request][layer_of(name)] += own[span_id]
    return out


def durations_ns(spans: List[Span], name: str) -> List[int]:
    return [end - start for _, span_name, start, end, _, _ in spans if span_name == name]
