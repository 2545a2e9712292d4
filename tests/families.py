"""Two generated families of structures on R^(2m+1), as manifest dicts.

Coordinates are x1..xm, y1..ym, z; phi = diag(1, ..., 1, -1, ..., -1, 0),
xi = d_z and eta = dz in both families, and the potential is xi.  Both are
pure functions of their arguments.  m = 1 gives the bundled fixtures
``ex1_r3_spacelike`` (Family 1, epsilon = +1), ``ex2_r3_timelike`` (Family
1, epsilon = -1) and ``warped_r3`` (Family 2, k = 1).
"""

from __future__ import annotations


def _manifest(name: str, m: int, diagonal: list[str], frame: list[str], epsilon: int) -> dict:
    """The manifest of a diagonal metric with a diagonal frame, the x's, y's and z in that order."""
    n = 2 * m + 1
    coords = ["x%d" % i for i in range(1, m + 1)] + ["y%d" % i for i in range(1, m + 1)] + ["z"]

    def matrix(entries: list[str]) -> list[list[str]]:
        return [[entries[i] if i == j else "0" for j in range(n)] for i in range(n)]

    unit = ["0"] * (n - 1) + ["1"]
    return {
        "name": name,
        "coordinates": coords,
        "base_point": ["0"] * n,
        "domain_box": [["-1", "1"]] * n,
        "epsilon": epsilon,
        "metric": matrix(diagonal),
        "phi": matrix(["1"] * m + ["-1"] * m + ["0"]),
        "xi": unit,
        "eta": unit,
        "frame": matrix(frame),
        "potential": "xi",
    }


def paracontact_example(m: int, epsilon: int) -> dict:
    """Family 1: g = sum e^(2 eps z) dx_i^2 + e^(-2 eps z) dy_i^2 + eps dz^2.

    The frame is (e^(-eps z) d_x_i, e^(eps z) d_y_i, d_z).
    """
    rate = 2 * epsilon
    return _manifest(
        "paracontact_example_n%d_eps%+d" % (2 * m + 1, epsilon),
        m,
        ["exp(%d*z)" % rate] * m + ["exp(%d*z)" % -rate] * m + [str(epsilon)],
        ["exp(%d*z)" % -epsilon] * m + ["exp(%d*z)" % epsilon] * m + ["1"],
        epsilon,
    )


def warped_soliton(m: int, k: int) -> dict:
    """Family 2: g = dz^2 + e^(2kz) sum (dx_i^2 + dy_i^2), an exact eta-Ricci soliton.

    The frame is e^(-kz) d on every x_i and y_i, plus d_z.
    """
    return _manifest(
        "warped_soliton_n%d_k%d" % (2 * m + 1, k),
        m,
        ["exp(%d*z)" % (2 * k)] * (2 * m) + ["1"],
        ["exp(%d*z)" % -k] * (2 * m) + ["1"],
        1,
    )
