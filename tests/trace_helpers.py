"""Building :class:`sdred.solver.IterateTrace` objects row by row in tests."""


def record(trace, k, g_sq, g_hat_sq, obj, dist, quality):
    """Append the row of iterate ``k`` to ``trace``; a ``k`` not past the last row is ignored."""
    if trace.iters and k <= trace.iters[-1]:
        return
    trace.iters.append(k)
    trace.g_norm_sq.append(g_sq)
    trace.g_hat_norm_sq.append(g_hat_sq)
    trace.objective.append(obj)
    trace.dist_to_ref.append(dist)
    trace.psnr.append(quality)
