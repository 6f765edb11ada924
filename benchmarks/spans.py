"""In-memory spans around the public functions of nearproj, for the traced run.

A `Tracer` replaces a module attribute (the name through which the program
calls a function, e.g. `nearproj.study.classify_pair`) with a wrapper that
records a span: name, start, end and the index of its parent span.  No program
file changes; `restore()` puts the original functions back.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans.  Spans nest strictly (one thread), so the self times
of all spans below a root add up to the root's duration.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or None]
        self.counts = Counter()
        self.active = True
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def current(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, module, attr, name, after=None):
        """Record a span `name` around every call of `module.attr`.

        `after(tracer, real, args, result)` runs inside the span once the
        call has returned; it may count, or make child spans that call the
        unwrapped function `real` again.
        """
        real = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = real(*args, **kwargs)
                if after is not None and self.active:
                    after(self, real, args, result)
            return result

        wrapper.__wrapped__ = real
        self._patched.append((module, attr, real))
        setattr(module, attr, wrapper)

    def count_calls(self, module, attr, key, when):
        """Count calls of `module.attr` for which `when(tracer, args)` holds."""
        real = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if self.active and when(self, args):
                self.counts[key] += 1
            return real(*args, **kwargs)

        wrapper.__wrapped__ = real
        self._patched.append((module, attr, real))
        setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, real in reversed(self._patched):
            setattr(module, attr, real)
        self._patched.clear()

    def mark(self):
        """Position in the span and count records, for `since`."""
        return len(self.spans), Counter(self.counts)

    def since(self, mark):
        """Self time per span name and counts recorded after `mark`."""
        first, counts_before = mark
        spans = self.spans[first:]
        children = defaultdict(float)
        for _name, start, end, parent in spans:
            if parent is not None and parent >= first:
                children[parent] += end - start
        self_times = defaultdict(float)
        for k, (name, start, end, _parent) in enumerate(spans, start=first):
            self_times[name] += (end - start) - children[k]
        roots = sum(end - start for _n, start, end, parent in spans
                    if parent is None or parent < first)
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        return dict(self_times), roots, dict(counts)

    def dump(self):
        return [{"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans]
