"""The noise fits of a held ensemble: every path fed to the fit's sums at once."""
from rmplab.tail import dt_fit_d, dt_fit_sums, green_kubo_d, green_kubo_sums


def green_kubo_of(zeta, window, **kwargs):
    """green_kubo_d of the noise ensemble zeta, its rows fed in one group."""
    sums = green_kubo_sums(zeta.grid, window, zeta.n_paths)
    sums.add(zeta.values, zeta.flagged)
    return green_kubo_d(sums, window, **kwargs)


def dt_fit_of(y, window, **kwargs):
    """dt_fit_d of the integrated-noise ensemble y, its rows fed in one group."""
    sums = dt_fit_sums(y.grid, window, y.n_paths)
    sums.add(y.values, y.flagged)
    return dt_fit_d(sums, window, **kwargs)
