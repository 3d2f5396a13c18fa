"""Command-line front end: one scenario file, one task per invocation.

    corridors evolve scenario.ini --readout const:0.0
    corridors average scenario.ini --engine superpropagator
    corridors unitarity-check scenario.ini --mode exact
    corridors medium-compare scenario.ini --corpus 100
    corridors zeno-sweep scenario.ini --kappas 0.01,0.1,1,10,100
    corridors convergence scenario.ini --study tau --levels 4

Exit codes: 0 on success, 1 on a configuration problem, 2 when a
numerical check recorded in the manifest fails.
"""

import argparse
import os
import sys

# before numpy loads, BLAS on one thread unless the environment says otherwise:
# the sampler batches run one per core, and BLAS threads in each oversubscribe them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .scenario import CheckFailure, ConfigError, load_config, run_scenario  # noqa: E402


def _pair_indices(text):
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not 'i,j'") from None
    return (i, j)


def _kappa_list(text):
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="corridors",
        description="continuous-measurement simulator: selective and "
        "record-averaged evolution, unitarity audits, medium comparisons",
    )
    sub = parser.add_subparsers(dest="task", required=True)

    def add(name, help_text):
        # no option states a default: an option left out is not passed on,
        # so the task's signature holds the one default
        cmd = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        cmd.add_argument("scenario", help="scenario INI file")
        cmd.add_argument("--outdir", help="override the output directory")
        return cmd

    cmd = add("evolve", "conditioned (selective) evolution for one readout record")
    cmd.add_argument("--readout",
                     help="const:<x>, sample, or file:<path> (default const:0.0)")
    cmd.add_argument("--engine", choices=["auto", "ideal", "coarse", "mc"])
    cmd.add_argument("--samples", type=int, help="Monte-Carlo sample count")

    cmd = add("average", "record-averaged (non-selective) density-matrix evolution")
    cmd.add_argument("--engine", choices=["lindblad", "quadrature", "superpropagator"])
    cmd.add_argument("--mode", choices=["exact", "mc"])
    cmd.add_argument("--samples", type=int)
    cmd.add_argument("--pair", type=_pair_indices,
                     help="off-diagonal element to track, as 'i,j'")

    cmd = add("unitarity-check", "verify the record-integrated U^dag U is the identity")
    cmd.add_argument("--mode", choices=["exact", "mc"])
    cmd.add_argument("--samples", type=int)
    cmd.add_argument("--tol", type=float,
                     help="deviation tolerance (default 1e-10 exact, 5e-2 mc)")

    cmd = add("medium-compare", "first-order medium weight vs corridor weight on a corpus")
    cmd.add_argument("--corpus", type=int, help="number of random path pairs")
    cmd.add_argument("--n-slices", type=int)
    cmd.add_argument("--scale", type=float, help="path excursion scale")
    cmd.add_argument("--ell", type=float,
                     help="interaction range; adds an exact-weight column")

    cmd = add("zeno-sweep", "final packet variance vs measurement strength")
    cmd.add_argument("--kappas", type=_kappa_list,
                     help="comma-separated strengths (default: 4 decades around kappa)")

    cmd = add("convergence", "dt- or tau-halving distance study")
    cmd.add_argument("--study", choices=["dt", "tau"])
    cmd.add_argument("--levels", type=int)
    return parser


def _report(manifest, stream=None):
    stream = stream if stream is not None else sys.stdout
    for check in manifest.checks:
        status = "ok" if check["passed"] else "FAIL"
        tol = f" (tolerance {check['tolerance']:g})" if check["tolerance"] is not None else ""
        print(f"check {check['name']}: {check['value']:.6g}{tol} [{status}]", file=stream)
    for entry in manifest.outputs:
        print(f"wrote {entry['file']}  sha256 {entry['sha256'][:12]}", file=stream)
    print(f"manifest digest {manifest.digest()[:12]}", file=stream)


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    task = args.pop("task")
    scenario = args.pop("scenario")
    outdir = args.pop("outdir", None)
    try:
        config = load_config(scenario)
        manifest = run_scenario(config, task=task, outdir=outdir, **args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 1
    except CheckFailure as exc:
        manifest = getattr(exc, "manifest", None)
        if manifest is not None:
            _report(manifest)
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 2
    _report(manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
