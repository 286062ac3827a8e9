"""Shared numeric test helpers."""

import numpy as np

from tbcalib.nn.layers import Layer


def rel_err(a, b):
    """Relative error between two gradient arrays (norm form)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel())
    if na == 0.0 and nb == 0.0:
        return 0.0
    return float(np.linalg.norm((a - b).ravel()) / max(na, nb))


def numeric_grad(f, x, h=1e-6):
    """Central finite differences of scalar f() with respect to x, in place.

    f must read the current contents of x; every coordinate is perturbed.
    """
    g = np.zeros(x.shape, dtype=np.float64)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def reachable_layers(net):
    """Every Layer reachable from net through attributes, lists and tuples."""
    found, stack, seen = [], [net], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Layer):
            found.append(obj)
        for value in vars(obj).values():
            items = value if isinstance(value, (list, tuple)) else [value]
            stack.extend(v for v in items if isinstance(v, Layer))
    return found


def cached_arrays(net):
    """(layer attribute, value) for every array a layer holds outside its
    params and buffers, over every Layer reachable from the net."""
    found = []
    for layer in reachable_layers(net):
        for name, value in vars(layer).items():
            items = value if isinstance(value, (list, tuple)) else [value]
            if name not in ("params", "buffers") and any(
                    isinstance(v, np.ndarray) for v in items):
                found.append((f"{type(layer).__name__}.{name}", value))
    return found
