"""Unit conversions used at the configuration boundary.

Everything inside the library works in linear units: powers and noise
variances in watt, compression coefficients in 1/watt.  Decibel values
appear only in configs and emitted tables, converted once on the way in
and once on the way out.
"""

import numpy as np

__all__ = ["db_to_linear", "linear_to_db", "dbm_to_watt", "watt_to_dbm"]

WATT_PER_DBM_REF = 1e-3


def db_to_linear(value_db):
    """Power ratio from its dB value."""
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)


def linear_to_db(value):
    """dB value of a positive power ratio."""
    return 10.0 * np.log10(np.asarray(value, dtype=float))


def dbm_to_watt(value_dbm):
    """Absolute power in watt from dBm."""
    return WATT_PER_DBM_REF * db_to_linear(value_dbm)


def watt_to_dbm(value_w):
    """dBm value of an absolute power in watt."""
    return linear_to_db(np.asarray(value_w, dtype=float) / WATT_PER_DBM_REF)
