"""Closed-form radial solutions on the unit disk, independent of the package.

With weight |x|^(2 alpha) centred at the origin (alpha = 0 is the constant
weight) and beta = 1 + alpha, the functions

    u_c(r) = log(8 beta^2 c / mu) - 2 log(1 + c r^(2 beta)),   c > -1,

solve -Delta u = mu |x|^(2 alpha) e^u with u = 0 on the circle, where

    mu(c)     = 8 beta^2 c / (1 + c)^2,
    lambda(c) = mu int h e^u = 8 pi beta c / (1 + c).

The fold of the (mu, E) diagram is at c = 1: mu* = 2 beta^2 and
lambda* = 4 pi beta.  The minimal branch is c in (-1, 1); negative c gives
mu < 0.  The mean-field energy is E = int |grad u|^2 / (2 lambda^2).
"""

import math


def fold(beta):
    """(lambda*, mu*) of the radial family."""
    return 4.0 * math.pi * beta, 2.0 * beta * beta


def c_of_mu(mu, beta):
    """Minimal-branch parameter c in (-1, 1) with mu(c) = mu, for mu < mu*.

    Root of mu c^2 + (2 mu - 8 beta^2) c + mu = 0, in the rationalized form
    that stays accurate as mu -> 0.
    """
    a = 8.0 * beta * beta - 2.0 * mu
    disc = a * a - 4.0 * mu * mu
    if disc < 0.0:
        raise ValueError(f"mu={mu!r} lies beyond the fold value {2 * beta * beta!r}")
    return 2.0 * mu / (a + math.sqrt(disc))


def lam_of_c(c, beta):
    return 8.0 * math.pi * beta * c / (1.0 + c)


def lam_of_mu(mu, beta):
    """lambda on the minimal branch at the given mu."""
    return lam_of_c(c_of_mu(mu, beta), beta)


def energy_of_lam(lam, beta):
    """Mean-field energy E(lambda) for lambda != 0 below the fold."""
    c = lam / (8.0 * math.pi * beta - lam)
    grad_sq = 16.0 * math.pi * beta * (math.log1p(c) - c / (1.0 + c))
    return grad_sq / (2.0 * lam * lam)


def energy_at_zero(beta):
    """lambda -> 0 limit of E(lambda): 1 / (16 pi beta)."""
    return 1.0 / (16.0 * math.pi * beta)
