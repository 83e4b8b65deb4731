"""The bundled per-d tables, the compact JSON of records and table rows, and the
exit statuses: a leaf module, which imports nothing from the package, so that
`quaddisc tables`, `--help` and usage errors start without the library."""

import json

# The exit statuses of a CLI process, as the cli module's docstring gives them.
EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_CEILING = 3
EXIT_IO = 4

# json.dumps with any option builds a new encoder on every call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def serialize_record(rec: dict) -> str:
    return _ENCODER.encode(rec)


# For each modulus d = 4..36: the least n beyond which the discriminator of the
# canonical sequence is certified to equal the predicted progression prime.
# d = 6 is corrected from the published 10 to 9: at n = 10 every residue
# c in {-5, -1, 1, 5} matches, and the last mismatch of any c is at n = 9
# (c = 1: 27 = 3^3 separates the terms, the predicted prime is 31).
PREDICTION_THRESHOLD = {
    4: 8, 5: 14,
    6: 9,  # published as 10
    7: 100, 8: 21, 9: 315, 10: 53,
    11: 1067, 12: 27, 13: 1074, 14: 122, 15: 809, 16: 329,
    17: 5115, 18: 95, 19: 5390, 20: 755, 21: 3672, 22: 640,
    23: 11193, 24: 220, 25: 12810, 26: 1207, 27: 7087,
    28: 2036, 29: 13250, 30: 177, 31: 24310, 32: 3678,
    33: 12794, 34: 5303, 35: 15628, 36: 551,
}

# Residue classes witnessing that the thresholds above are sharp: at n equal to
# the threshold, the discriminator for this residue is NOT the predicted prime.
COUNTEREXAMPLE_RESIDUE = {
    4: -3, 5: -1, 6: 1, 7: -5, 8: 1, 9: 2, 10: 3,
    11: -7, 12: 5, 13: -5, 14: -5, 15: -1, 16: 11,
    17: 15, 18: 1, 19: 6, 20: -9, 21: 1, 22: 5,
    23: 21, 24: 1, 25: 19, 26: -3, 27: 23,
    28: -9, 29: -1, 30: 17, 31: 3, 32: -1,
    33: -5, 34: 15, 35: 12, 36: 23,
}

# Relative error bounds for the weighted prime count over each progression,
# valid from 1e10 on; analytic input consumed as given constants.
THETA_ERROR_BOUND = {
    4: 0.002238, 5: 0.002785, 6: 0.002238, 7: 0.003248, 8: 0.002811,
    9: 0.003228, 10: 0.002785, 11: 0.004125, 12: 0.002781, 13: 0.004560,
    14: 0.003248, 15: 0.008634, 16: 0.008994, 17: 0.010746, 18: 0.003228,
    19: 0.011892, 20: 0.008501, 21: 0.009708, 22: 0.004125, 23: 0.012682,
    24: 0.008173, 25: 0.012214, 26: 0.004560, 27: 0.011579, 28: 0.009908,
    29: 0.014102, 30: 0.008634, 31: 0.014535, 32: 0.011103, 33: 0.011685,
    34: 0.010746, 35: 0.012809, 36: 0.009544,
}

# Least n from which every coprime residue class gets a prime inside the scan
# window (computed thresholds; the desk-scale check revisits a slice of them).
WINDOW_THRESHOLD = {
    4: 79, 5: 206, 6: 103, 7: 333, 8: 301, 9: 356, 10: 232,
    11: 1079, 12: 346, 13: 1166, 14: 806, 15: 1310, 16: 2183,
    17: 5153, 18: 1135, 19: 5402, 20: 2388, 21: 4059, 22: 2934,
    23: 11246, 24: 2480, 25: 13144, 26: 4775, 27: 11646,
    28: 5314, 29: 13478, 30: 5215, 31: 24334, 32: 8964,
    33: 15044, 34: 14748, 35: 16896, 36: 9847,
}
