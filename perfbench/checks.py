"""Answer comparison and the percentile rule used by the benchmark."""

from __future__ import annotations

# Timings in a report are not answers.
IGNORED_KEYS = frozenset({"wall_time_s"})

# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def differences(expected, actual, path: str = "$") -> list[str]:
    """Where ``actual`` departs from the stored ``expected`` answer.

    Every key the reference holds is compared, recursively.  Keys the
    reference lacks are ignored, so reports may gain fields (such as
    search statistics) without failing the check; ``wall_time_s`` is
    ignored wherever it appears.  Lists must match element by element.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in expected.items():
            if key in IGNORED_KEYS:
                continue
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(differences(value, actual[key], f"{path}.{key}"))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(differences(e, a, f"{path}[{i}]"))
        return out
    # bool is an int subclass: True must not pass for 1.
    if isinstance(expected, bool) != isinstance(actual, bool) \
            or expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


def tail_percentile(samples, pct: int):
    """The nearest-rank ``pct``-th percentile of ``samples``, or None when
    fewer than ``MIN_BEYOND`` samples lie above its rank."""
    n = len(samples)
    rank = -(-pct * n // 100)  # ceil(pct * n / 100) in exact arithmetic
    if rank < 1 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]
