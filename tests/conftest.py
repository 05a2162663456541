import numpy as np


def ks_distance_discrete(samples, cdf_fn):
    """KS distance between integer-valued samples and an exact CDF.

    For a discrete distribution the empirical CDF only jumps at observed
    support points, so the supremum is attained there.
    """
    samples = np.sort(np.asarray(samples))
    uniq = np.unique(samples)
    ecdf = np.searchsorted(samples, uniq, side="right") / samples.size
    exact = cdf_fn(uniq)
    return float(np.max(np.abs(ecdf - exact)))


def ks_band(n, level=0.01):
    """Asymptotic two-sided KS critical value; 1.628/sqrt(n) at 1%."""
    c = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}[level]
    return c / np.sqrt(n)


def reachable_arrays(obj):
    """Every numpy array reachable from `obj` through instance
    attributes, containers and bound methods, with its path."""
    found, seen, todo = [], set(), [("", obj)]
    while todo:
        path, o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found.append((path, o))
        elif isinstance(o, (list, tuple)):
            todo += [(f"{path}[{i}]", v) for i, v in enumerate(o)]
        elif isinstance(o, dict):
            todo += [(f"{path}[{k!r}]", v) for k, v in o.items()]
        elif hasattr(o, "__self__"):
            todo.append((f"{path}.__self__", o.__self__))
        elif hasattr(o, "__dict__") and not isinstance(o, type):
            todo += [(f"{path}.{k}", v) for k, v in vars(o).items()]
    return found
