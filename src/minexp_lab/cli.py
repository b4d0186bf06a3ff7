"""Command-line verification harness: the front that every process imports.

Importing it imports every layer the sweeps run (vfilt, koszul, derham and
minexp) and defines the model catalog, the bounds the commands check and
the library functions the commands call.  The command machinery (the config
keys, the verify sweeps, the handlers, the command line and the report
writers) is commands.py, whose docstring holds the command contract.  run()
and main() import it at call time, so a process that only sweeps never
compiles it.
"""

import itertools
import sys

from . import derham, koszul, minexp, vfilt  # noqa: F401  (every layer a sweep runs)
# the library functions commands.py calls, which it takes from here
from .divisors import jump_candidates, lct_from_resolution  # noqa: F401
from .rationals import format_rational, parse_rational  # noqa: F401
from .vfilt import v_member, v_order  # noqa: F401
from .weyl import MonomialModel, multidegree  # noqa: F401

DEFAULT_BOX = 6
DEFAULT_PMAX = 3
# Largest box volume (2R+1)^n a command accepts.  Work grows with the volume;
# the acceptance sweeps use 13^3 = 2197, while n = 40 at radius 1 never ends.
MAX_BOX_VOLUME = 10**6
# Largest pmax a command accepts.  Work grows steeply with it: verify-thm42 on
# (3, [1, 2, 2]) at radius 2 takes about 1.5 s at 32, 17 s at 64, and more
# than 120 s at 100; the catalog sweeps use pmax <= 4.
MAX_PMAX = 32
# Largest sample count verify-thm42 accepts.  Work is linear in it: 1,000
# samples of the monodromy check took 0.21 s on (1, [1]) and 0.60 s on
# (3, [2, 3, 4]) at one alpha; the catalog sweeps use the default 20.
MAX_SAMPLES = 1000
# Largest dt order of a vfilt element term.  Work grows about as its 3.5th
# power: y^(2m,3m) dy dt^m delta on (2, [2, 3]) took 0.02 s at m = 100 and
# 0.42 s at 400 with --alpha 1/2; without --alpha it took 0.05 s at 100 with
# the default cap 1, and 1.0 s (44 MB) at 100 and 15 s (334 MB) at 200 with
# cap 200, the largest that MAX_JUMPS admits there (2 CPUs, Python 3.11).
MAX_DT_ORDER = 100
# Largest number of jump candidates a command may list, bounded before any is
# listed: Σ a_i for a model (at most that many lie in (0, 1], where a command
# takes its default jumps), Σ(⌊hi·a_i⌋ − ⌊lo·a_i⌋) for a jumps range of a
# model or coeffs and Σ⌊cap·a_i⌋ for a vfilt cap.
# Work is linear in it: a cold jumps call listing 1,000 took 0.14 s and one
# listing 400,000 ((2, [2, 3]) up to hi = 10^5) took 1.7 s and 82 MB, and
# verify-thm42 on (1, [1000]) at box 0 swept its 1,000 default alphas in
# 4.2 s; catalog models have Σ a_i <= 12.
MAX_JUMPS = 1000


def catalog():
    """Standard test catalog: all models with n <= 3, r <= n, nondecreasing
    exponents a_i <= 4 (this includes the smooth model)."""
    models = []
    for n in range(1, 4):
        for r in range(1, n + 1):
            for a in itertools.combinations_with_replacement(range(1, 5), r):
                models.append(MonomialModel(n, a))
    return models


# -- the library calls of the commands --------------------------------------------
#
# commands.py takes every library function it calls from this module: the
# names imported above, and the minexp calls of its report commands below.
# bench/spans.py traces the cross-module calls it finds in the source of the
# layer modules, and commands is not one of them, so a call commands made
# straight into the library would be missing from every trace.

def minexp_report(model, pmax):
    """(minexp_monomial's result, the checks that its value is at least the
    lct), for the minexp command."""
    result = minexp.minexp_monomial(model, pmax)
    return result, minexp.lct_consistency(model, result.value)["checks"]


def psi_dims(model, alphas, ps, box):
    """[(alpha, p, minexp.psi_hodge_dim(p, alpha, box, model))] for each
    alpha, then each p, for the psi-dims command."""
    return [(alpha, p, minexp.psi_hodge_dim(p, alpha, box, model)) for alpha in alphas for p in ps]


def run(config, jobs=1):
    """Dispatch a JSON config to its command handler (commands.run); `jobs` is ignored."""
    from . import commands  # compiled only by a process that runs a command

    return commands.run(config)


def main(argv=None):
    """The minexp-lab entry point (commands.main): returns the exit code."""
    from . import commands

    return commands.main(argv)


if __name__ == "__main__":
    sys.exit(main())
