"""Central-difference gradient oracle shared by the unit and acceptance tests.

The oracle path is independent of the library's backward passes: it clones a
network with float64 parameters and differentiates the recomputed loss
numerically, coordinate by coordinate. Coordinates whose first estimate
disagrees are re-probed at smaller steps: piecewise-linear activations give
central differences a large truncation error whenever the step crosses a
kink, and shrinking the step isolates those artifacts from real gradient
bugs (which stay wrong at every scale).
"""

import copy

import numpy as np

FD_STEP = 1e-3
REFINE_DIVISORS = (16, 256)


def to_float64(net):
    """Deep-copy a network, widening every array attribute to float64."""
    twin = copy.deepcopy(net)
    for layer in twin.layers:
        for name, value in vars(layer).items():
            if isinstance(value, np.ndarray):
                setattr(layer, name, value.astype(np.float64))
    return twin


def central_diff(loss_fn, array, index, step):
    flat = array.reshape(-1)
    original = flat[index]
    flat[index] = original + step
    hi = loss_fn()
    flat[index] = original - step
    lo = loss_fn()
    flat[index] = original
    return (hi - lo) / (2.0 * step)


def numeric_gradient(loss_fn, array, indices, step=FD_STEP):
    """Plain central differences at the given flat indices of ``array``."""
    return {i: central_diff(loss_fn, array, i, step) for i in indices}


def relative_errors(analytic, numeric, floor=1e-4):
    """|analytic - numeric| / max(|analytic|, |numeric|, floor) per coordinate."""
    flat = np.asarray(analytic, dtype=np.float64).reshape(-1)
    errs = []
    for i, fd in numeric.items():
        a = flat[i]
        errs.append(abs(a - fd) / max(abs(a), abs(fd), floor))
    return errs


def sample_indices(rng, size, max_count):
    if size <= max_count:
        return list(range(size))
    return sorted(rng.choice(size, size=max_count, replace=False).tolist())


def _coordinate_error(loss_fn, array, index, analytic_value, step, floor):
    fd = central_diff(loss_fn, array, index, step)
    err = abs(analytic_value - fd) / max(abs(analytic_value), abs(fd), floor)
    for divisor in REFINE_DIVISORS:
        if err < 1e-3:
            break
        fd = central_diff(loss_fn, array, index, step / divisor)
        err = abs(analytic_value - fd) / max(abs(analytic_value), abs(fd), floor)
    return err


def gradient_errors(loss_fn, array, analytic, *, rng, max_coords=40,
                    step=FD_STEP, floor=1e-4):
    """Per-coordinate relative errors of ``analytic`` against the adaptive
    central-difference estimate of ``loss_fn`` with respect to ``array``."""
    flat_analytic = np.asarray(analytic, dtype=np.float64).reshape(-1)
    indices = sample_indices(rng, array.size, max_coords)
    return [
        _coordinate_error(loss_fn, array, i, flat_analytic[i], step, floor)
        for i in indices
    ]


def check_network_gradients(net, x, dy_coeff, analytic_grads, *, rng,
                            max_coords_per_tensor=40, step=FD_STEP, floor=1e-4):
    """Compare analytic parameter gradients of loss = sum(output * dy_coeff)
    against the float64 difference oracle. Returns per-coordinate errors."""
    twin = to_float64(net)
    x64 = np.asarray(x, dtype=np.float64)
    coeff64 = np.asarray(dy_coeff, dtype=np.float64)

    def loss64():
        y, _ = twin.forward(x64)
        return float((y * coeff64).sum())

    errors = []
    for param, grad in zip(twin.params(), analytic_grads):
        errors += gradient_errors(loss64, param, grad, rng=rng,
                                  max_coords=max_coords_per_tensor,
                                  step=step, floor=floor)
    return errors


def check_input_gradient(net, x, dy_coeff, analytic_dx, *, rng,
                         max_coords=60, step=FD_STEP, floor=1e-4):
    """Same comparison for the gradient with respect to the network input."""
    twin = to_float64(net)
    x64 = np.asarray(x, dtype=np.float64)
    coeff64 = np.asarray(dy_coeff, dtype=np.float64)

    def loss64():
        y, _ = twin.forward(x64)
        return float((y * coeff64).sum())

    return gradient_errors(loss64, x64, analytic_dx, rng=rng,
                           max_coords=max_coords, step=step, floor=floor)
