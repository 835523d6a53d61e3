"""Command-line front end.

Three commands, all emitting a single JSON report:

* ``betti FILE``    Betti numbers of a finite-dimensional tracial algebra
                    loaded from a JSON description.
* ``catalog FILE``  Betti sequence of a quantum-group descriptor document.
* ``verify SUITE``  seeded randomized verification suites; each check is
                    reported with the two values that were compared.

Exit codes: 0 success, 1 unreadable input (bad JSON, bad rationals, CLI
usage), 2 structurally invalid input (inconsistent algebra, bad options),
3 resource ceiling exceeded, 4 at least one verification check failed.

Reports are deterministic for a fixed seed: the only varying key is
``timing``, which callers comparing reports should strip.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (
    AlgebraError,
    Coords,
    TracialAlgebra,
    algebra_from_dict,
    enveloping_algebra,
    group_algebra,
    multi_matrix_algebra,
)
from .catalog import CatalogError, betti_of, descriptor_from_dict
from .config import RunConfig
from .groups import cyclic_cayley
from .homology import (
    DepthTooLarge,
    betti_numbers,
    dim_multiplicativity_check,
    flip_for,
    induced_homology_map,
    kuenneth_betti_check,
    kuenneth_chain_check,
)
from .modules import (
    check_image_dim_descends_to_projective_part,
    dim_image,
    dim_image_l2,
    dim_image_l2_float,
)
from .rand import (
    random_algebra,
    random_chain_complex,
    random_chain_map,
    random_coords,
    random_module_map,
    random_presented_map,
    random_presented_module,
)
from .scalars import ParseError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_CEILING = 3
EXIT_CHECK = 4

SUITES = ("kuenneth-chain", "kuenneth-betti", "lemmas", "dim-mult")


class CliError(Exception):
    """Command-line usage error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # raise instead of sys.exit(2)
        raise CliError(message)


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------


def _check(name: str, left, right, equal: Optional[bool] = None) -> dict:
    ok = (left == right) if equal is None else bool(equal)
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "left": str(left),
        "right": str(right),
    }


def _degrees_str(per_degree: dict, key: str) -> str:
    return " ".join(f"{n}:{per_degree[n][key]}" for n in sorted(per_degree))


def _coords_str(coords: Coords) -> str:
    if not coords:
        return "0"
    return " ".join(f"{i}:{coords[i]}" for i in sorted(coords))


def _values_str(values: dict) -> str:
    return {str(n): str(values[n]) for n in sorted(values)}


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_kuenneth_chain(rng: random.Random, config: RunConfig) -> list[dict]:
    checks = []
    for t in range(config.trials):
        a = random_algebra(rng, max_dim=4)
        b = random_algebra(rng, max_dim=4)
        f = random_chain_complex(rng, a, max_length=3, max_rank=3)
        g = random_chain_complex(rng, b, max_length=3, max_rank=3)
        rep = kuenneth_chain_check(f, g)
        checks.append(
            _check(
                f"kuenneth-chain[{t}]",
                _degrees_str(rep["per_degree"], "direct"),
                _degrees_str(rep["per_degree"], "convolved"),
                equal=rep["all_equal"],
            )
        )
    return checks


def _suite_kuenneth_betti(rng: random.Random, config: RunConfig) -> list[dict]:
    pairs = [
        ("cyclic2 x cyclic3", group_algebra(cyclic_cayley(2)), group_algebra(cyclic_cayley(3))),
        ("cyclic2 x matrix2", group_algebra(cyclic_cayley(2)), multi_matrix_algebra([2], [Fraction(1, 2)])),
    ]
    checks = []
    for label, a, b in pairs:
        rep = kuenneth_betti_check(a, b, config.max_degree, ceiling=config.ceiling)
        checks.append(
            _check(
                f"kuenneth-betti[{label}]",
                _degrees_str(rep["per_degree"], "direct"),
                _degrees_str(rep["per_degree"], "convolved"),
                equal=rep["all_equal"],
            )
        )
        checks.append(
            _check(f"stabilized[{label}]", rep["stabilized"], True)
        )
    return checks


def _suite_lemmas(rng: random.Random, config: RunConfig) -> list[dict]:
    checks = []
    for t in range(config.trials):
        algebra = random_algebra(rng, max_dim=6)
        tmap = random_module_map(rng, algebra)
        exact = dim_image(tmap)
        if config.backend == "float":
            approx = dim_image_l2_float(tmap, tol=config.tolerance)
            checks.append(
                _check(
                    f"image-dim-gns-float[{t}]",
                    str(exact),
                    repr(approx),
                    equal=abs(float(exact) - approx) <= 1e-6,
                )
            )
        else:
            checks.append(
                _check(f"image-dim-gns[{t}]", exact, dim_image_l2(tmap))
            )

        f = random_presented_map(rng, algebra)
        rep = check_image_dim_descends_to_projective_part(f)
        checks.append(
            _check(
                f"projective-descent[{t}]",
                rep["dim_image"],
                rep["dim_image_projective"],
                equal=rep["equal"],
            )
        )

        small = random_algebra(rng, max_dim=4)
        cx = random_chain_complex(rng, small, max_length=2, max_rank=2)
        phi = random_chain_map(rng, cx)
        n = rng.randint(0, cx.top_degree)
        routes = induced_homology_map(phi, n)
        checks.append(
            _check(
                f"induced-map-routes[{t}]",
                f"plain={routes['plain']} reduced={routes['reduced']}",
                f"l2={routes['l2']}",
                equal=routes["equal"],
            )
        )
    return checks


def _suite_dim_mult(rng: random.Random, config: RunConfig) -> list[dict]:
    checks = []
    for t in range(config.trials):
        a = random_algebra(rng, max_dim=3 + (t & 1))
        b = random_algebra(rng, max_dim=3 + (t & 1))
        env_a = enveloping_algebra(a)
        env_b = enveloping_algebra(b)
        x = random_presented_module(rng, env_a, max_rank=2)
        y = random_presented_module(rng, env_b, max_rank=2)
        rep = dim_multiplicativity_check(x, y)
        checks.append(
            _check(f"dim-mult[{t}]", rep["tensor"], rep["product"], equal=rep["equal"])
        )

        iso = flip_for(env_a, env_b)
        u = random_coords(rng, env_a, density=0.5)
        u2 = random_coords(rng, env_a, density=0.5)
        v = random_coords(rng, env_b, density=0.5)
        v2 = random_coords(rng, env_b, density=0.5)
        checks.append(
            _check(
                f"flip-trace[{t}]",
                iso.target.trace_coords(iso.transport_coords(u, v)),
                env_a.trace_coords(u) * env_b.trace_coords(v),
            )
        )
        lhs = iso.target.mul_coords(
            iso.transport_coords(u, v), iso.transport_coords(u2, v2)
        )
        rhs = iso.transport_coords(env_a.mul_coords(u, u2), env_b.mul_coords(v, v2))
        checks.append(
            _check(f"flip-mult[{t}]", _coords_str(lhs), _coords_str(rhs))
        )
    return checks


_SUITE_RUNNERS = {
    "kuenneth-chain": _suite_kuenneth_chain,
    "kuenneth-betti": _suite_kuenneth_betti,
    "lemmas": _suite_lemmas,
    "dim-mult": _suite_dim_mult,
}


def run_suite(name: str, config: RunConfig) -> list[dict]:
    """Run one verification suite and return its check records."""
    runner = _SUITE_RUNNERS.get(name)
    if runner is None:
        raise CliError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    rng = random.Random(config.seed)
    return runner(rng, config)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def cmd_betti(path: str, config: RunConfig) -> tuple[dict, int]:
    algebra = algebra_from_dict(_load_json(path))
    result = betti_numbers(algebra, config.max_degree, ceiling=config.ceiling)
    report = {
        "command": "betti",
        "config": config.public_dict(),
        "algebra": algebra.description,
        "values": _values_str(result.values),
        "stabilized": result.stabilized,
    }
    return report, EXIT_OK


def cmd_catalog(path: str, config: RunConfig) -> tuple[dict, int]:
    document = _load_json(path)
    descriptor = descriptor_from_dict(
        document, base_dir=os.path.dirname(os.path.abspath(path))
    )
    sequence = betti_of(descriptor, config.max_degree, ceiling=config.ceiling)
    report = {
        "command": "catalog",
        "config": config.public_dict(),
        "descriptor": document,
        "betti": sequence.to_strings(),
    }
    return report, EXIT_OK


def cmd_verify(suite: str, config: RunConfig) -> tuple[dict, int]:
    checks = run_suite(suite, config)
    failures = sum(1 for c in checks if c["status"] != "pass")
    report = {
        "command": "verify",
        "config": config.public_dict(),
        "suite": suite,
        "checks": checks,
        "failures": failures,
    }
    return report, EXIT_CHECK if failures else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="l2betti", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--ceiling", type=int, default=RunConfig.ceiling)
        p.add_argument("--max-degree", type=int, default=RunConfig.max_degree)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    betti = sub.add_parser("betti", help="Betti numbers of an algebra description file")
    betti.add_argument("file", help="JSON algebra description")
    common(betti)

    catalog = sub.add_parser("catalog", help="Betti sequence of a descriptor file")
    catalog.add_argument("file", help="JSON quantum-group descriptor")
    common(catalog)

    verify = sub.add_parser("verify", help="run a randomized verification suite")
    verify.add_argument("suite", choices=SUITES)
    common(verify)
    verify.add_argument("--backend", choices=("exact", "float"), default=RunConfig.backend)
    verify.add_argument("--tolerance", type=float, default=RunConfig.tolerance)
    verify.add_argument("--seed", type=int, default=RunConfig.seed)
    verify.add_argument("--trials", type=int, default=RunConfig.trials)
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        backend=getattr(args, "backend", RunConfig.backend),
        tolerance=getattr(args, "tolerance", RunConfig.tolerance),
        ceiling=args.ceiling,
        seed=getattr(args, "seed", RunConfig.seed),
        trials=getattr(args, "trials", RunConfig.trials),
        max_degree=args.max_degree,
        out=args.out,
    )


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        config = _config_from(args)
        if args.command == "betti":
            report, code = cmd_betti(args.file, config)
        elif args.command == "catalog":
            report, code = cmd_catalog(args.file, config)
        else:
            report, code = cmd_verify(args.suite, config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DepthTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CEILING
    except (ParseError, CatalogError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report["timing"] = {"seconds": round(time.perf_counter() - started, 3)}
    _emit(report, config.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
