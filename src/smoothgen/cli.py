"""Command-line front end: parsing, dispatch, and CSV/JSON emission.

Exit codes: 0 on success, 2 when a computation rejects its inputs
(infeasible targets, malformed specs), 1 on I/O failures.  All outputs
are deterministic for a fixed invocation: CSV rows come in computation
order with repr-formatted floats, and the seed is recorded in JSON
artifacts but never drawn from.

Every JSON artifact is exactly ``json.dumps(obj, indent=2,
sort_keys=True)`` followed by a newline, where ``obj`` holds labels as
lists and exact rationals as strings, so ``python -m json.tool
--sort-keys --indent 2`` reproduces it byte for byte.  :func:`_render`
builds that text by joining, since ``json.dumps`` falls back to the
stdlib's pure-Python encoder whenever ``indent`` is set, and a map's
labels are rendered from one table of their base's label texts.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .distributions import FiniteDistribution, expand, iid_power, parse_source
from .errors import SmoothgenError
from .fdiv import check_conditions, f_divergence, parse_generator
from .intrinsic import build_extractor
from .resolvability import _rate_sweep, build_resolvability_map
from .smooth_entropy import smooth_max_entropy, smooth_min_entropy
from .spectrum import equivalence_report

__all__ = ["main"]


def _parse_int_list(text: str) -> list[int]:
    try:
        out = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise SmoothgenError(f"expected a comma-separated integer list, got {text!r}")
    if not out:
        raise SmoothgenError("n list must be nonempty")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise SmoothgenError(f"n list must be strictly increasing, got {out}")
    return out


def _parse_float_list(text: str) -> list[float]:
    try:
        out = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise SmoothgenError(f"expected a comma-separated number list, got {text!r}")
    if not out:
        raise SmoothgenError("nu list must be nonempty")
    return out


class _Text(str):
    """JSON text already rendered at depth 0, written as is."""


def _render(obj, pad: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``.

    A value's text at depth L is its depth-0 text with every newline
    followed by L indents, since a JSON string never holds a raw newline;
    ``pad`` is a newline and the indents of ``obj``'s depth.  Containers
    join their items' texts, scalars go through ``json.dumps``.  A
    ``Fraction`` is written as its string, a tuple as a list and a
    :class:`_Text` as it stands.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items())
        if not all(isinstance(key, str) for key, _ in items):
            raise TypeError("JSON object keys must be str")
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [json.dumps(key) + ": " + _render(value, inner) for key, value in items]
        ) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_render(x, inner) for x in obj]) + pad + "]"
    if isinstance(obj, _Text):
        return obj.replace("\n", pad)
    return json.dumps(str(obj) if isinstance(obj, Fraction) else obj)


def _label_text(source):
    """Map a label of ``source`` to what :func:`_render` writes for it.

    A view's label is a tuple of its base's labels, which are unique
    under ``==``, so each base label is rendered once into a table and a
    label's text is the table's entries joined.
    """
    if isinstance(source, FiniteDistribution):
        return lambda label: label
    table = {lab: _render(lab, "\n  ") for lab in source.base.labels}
    return lambda label: _Text("[\n  " + ",\n  ".join(map(table.__getitem__, label)) + "\n]")


def _write_json(obj, path: Optional[str]) -> None:
    text = _render(obj)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(header: list[str], rows: list[list], path: Optional[str]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if cell is None else _cell(cell) for cell in row])
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _source_at(spec: str, n: int):
    base = parse_source(spec)
    return base if n == 1 else iid_power(base, n)


def _emit_map(args, payload: dict, summary: str) -> None:
    """Write a construction to ``--emit``, then print JSON or the summary line."""
    if args.emit:
        _write_json(payload, args.emit)
    if args.json and not args.emit:
        _write_json(payload, None)
    elif not args.json:
        print(summary)


def cmd_divergence(args) -> int:
    f = parse_generator(args.f)
    p_src = _source_at(args.p, args.n)
    q_src = _source_at(args.q, args.n)
    p = expand(p_src) if not isinstance(p_src, FiniteDistribution) else p_src
    q = expand(q_src) if not isinstance(q_src, FiniteDistribution) else q_src
    value = f_divergence(f, p, q)
    payload = {
        "f": f.name,
        "finite": value.finite,
        "value": float(value),
        "value_exact": str(value.value) if isinstance(value.value, Fraction) else None,
        "seed": args.seed,
    }
    if args.conditions:
        rep = check_conditions(f)
        payload["conditions"] = {
            "c1": rep.c1,
            "c2": rep.c2,
            "c2_prime": rep.c2_prime,
            "c3": rep.c3,
            "c3_prime": rep.c3_prime,
            "c_f_estimate": rep.c_f_estimate,
            "warnings": list(rep.warnings),
        }
    if args.json:
        _write_json(payload, None)
    else:
        print(f"D_{f.name}(P||Q) = {float(value)!r}" + ("" if value.finite else " (infinite)"))
        if args.conditions:
            rep = payload["conditions"]
            print(
                "conditions: C1=%s C2=%s C2'=%s C3=%s C3'=%s"
                % (rep["c1"], rep["c2"], rep["c2_prime"], rep["c3"], rep["c3_prime"])
            )
    return 0


def cmd_entropy(args) -> int:
    source = _source_at(args.source, args.n)
    fn = smooth_max_entropy if args.order == "max" else smooth_min_entropy
    result = fn(source, args.delta)
    if args.json:
        witness = {}
        if args.order == "max":
            witness = {"set_size": result.witness.set_size, "mass": result.witness.mass}
        else:
            witness = {
                "beta": float(result.witness.beta),
                "log_beta": result.witness.log_beta,
                "residual": float(result.witness.residual),
            }
        _write_json(
            {
                "order": args.order,
                "delta": args.delta,
                "n": args.n,
                "value": result.value,
                "witness": witness,
                "seed": args.seed,
            },
            None,
        )
    else:
        print(f"H_{args.order}(delta={args.delta:g}) = {result.value!r} nats")
    return 0


def cmd_resolve(args) -> int:
    f = parse_generator(args.f)
    source = _source_at(args.source, args.n)
    map_ = build_resolvability_map(source, f, args.D, args.gamma, M=args.M)
    p = map_.params
    text = _label_text(source)
    payload = {
        "M": map_.M,
        "n": p.n,
        "f": p.f_name,
        "D": p.D,
        "gamma": p.gamma,
        "seed": args.seed,
        "achieved": float(map_.achieved_divergence),
        "achieved_exact": (
            str(map_.achieved_divergence.value)
            if isinstance(map_.achieved_divergence.value, Fraction)
            else None
        ),
        "image": [{"sequence": text(lab), "count": k} for lab, k in map_.image],
        "bound": p.bound,
        "slack": p.slack,
        "pr_b": p.pr_b,
        "b_size": p.b_size,
        "m_from_formula": p.m_from_formula,
    }
    _emit_map(
        args,
        payload,
        f"M = {map_.M}; achieved D_f = {float(map_.achieved_divergence)!r} "
        f"(target {p.D:g}, certified bound {p.bound!r}, slack {p.slack!r})",
    )
    return 0


def cmd_extract(args) -> int:
    f = parse_generator(args.f)
    source = _source_at(args.source, args.n)
    map_ = build_extractor(source, f, args.Delta, args.gamma, M=args.M)
    p = map_.params
    text = _label_text(source)
    payload = {
        "M": map_.M,
        "n": p.n,
        "f": p.f_name,
        "Delta": p.Delta,
        "gamma": p.gamma,
        "seed": args.seed,
        "achieved": float(map_.achieved_divergence),
        "achieved_exact": (
            str(map_.achieved_divergence.value)
            if isinstance(map_.achieved_divergence.value, Fraction)
            else None
        ),
        "beta0": p.beta0,
        "A_n": p.a_n,
        "bins": [list(map(text, b)) for b in map_.bins],
        "induced": [float(m) for m in map_.induced.masses],
        "bound": p.bound,
        "delta_n": p.delta_n,
        "m_from_formula": p.m_from_formula,
    }
    _emit_map(
        args,
        payload,
        f"M = {map_.M}; achieved D_f = {float(map_.achieved_divergence)!r} "
        f"(target {p.Delta:g}, certified bound {p.bound!r}, delta_n {p.delta_n!r})",
    )
    return 0


def _rates_rows(args, f, base) -> tuple[list[str], list[list]]:
    # The whole sweep runs before the first construction, so a sweep error
    # is reported before any construction warning.  Without --gamma no
    # view is kept and zip_longest pairs each evaluation with None.
    views: list = []
    evals = _rate_sweep(
        base, args.n, f, args.D, tuple(args.nu), args.R,
        "max" if args.kind == "resolvability" else "min",
        on_view=views.append if args.gamma is not None else None,
    )

    header = ["n", "nu", "first_order [nats]", "second_order [nats]", "achieved_Df", "M"]
    if args.kind == "intrinsic":
        header += ["beta0", "A_n"]
    rows: list[list] = []
    for ev, view in itertools.zip_longest(evals, views):
        for j, nu in enumerate(ev.nu_ladder):
            achieved: Optional[float] = None
            m_val: Optional[int] = None
            beta0: Optional[float] = None
            a_n: Optional[float] = None
            if args.gamma is not None:
                try:
                    if args.kind == "resolvability":
                        built = build_resolvability_map(
                            view, f, args.D + nu, args.gamma
                        )
                    else:
                        built = build_extractor(view, f, args.D + nu, args.gamma)
                        beta0 = built.params.beta0
                        a_n = built.params.a_n
                    achieved = float(built.achieved_divergence)
                    m_val = built.M
                except SmoothgenError as exc:
                    print(
                        f"warning: n={ev.n} nu={nu}: construction skipped: "
                        f"{type(exc).__name__}: {exc}",
                        file=sys.stderr,
                    )
            row: list = [
                ev.n,
                nu,
                ev.first_order[j],
                ev.second_order[j] if ev.second_order is not None else None,
                achieved,
                m_val,
            ]
            if args.kind == "intrinsic":
                row += [beta0, a_n]
            rows.append(row)
    return header, rows


def cmd_rates(args) -> int:
    f = parse_generator(args.f)
    base = parse_source(args.source)
    header, rows = _rates_rows(args, f, base)
    if args.json:
        keys = [h.split(" ")[0] for h in header]
        _write_json(
            {
                "kind": args.kind,
                "seed": args.seed,
                "rows": [dict(zip(keys, row)) for row in rows],
            },
            args.out,
        )
    else:
        _write_csv(header, rows, args.out)
    return 0


def cmd_equivalence(args) -> int:
    f = parse_generator(args.f)
    base = parse_source(args.source)
    report = equivalence_report(base, f, args.D, args.nu, args.n)
    header = [
        "n",
        "nu",
        "h0_rate [nats]",
        "hinf_rate [nats]",
        "kbar [nats]",
        "kunder [nats]",
        "gap0 [nats]",
        "gapinf [nats]",
    ]
    data = [
        [r.n, r.nu, r.h0_rate, r.hinf_rate, r.kbar, r.kunder, r.gap0, r.gapinf]
        for r in report.rows
    ]
    if args.json:
        keys = [h.split(" ")[0] for h in header]
        _write_json(
            {
                "seed": args.seed,
                "rows": [dict(zip(keys, row)) for row in data],
                "warnings": list(report.warnings),
            },
            args.out,
        )
    else:
        _write_csv(header, data, args.out)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="smoothgen",
        description="Finite-blocklength divergence, smooth entropy, synthesis, and extraction",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=0, help="recorded in artifacts")

    p = sub.add_parser("divergence", help="D_f between two distributions")
    p.add_argument("--p", required=True, help="source spec: uniform:M, bernoulli:p, or a JSON path")
    p.add_argument("--q", required=True)
    p.add_argument("--f", required=True, help="generator, e.g. half-variational or alpha:0.5")
    p.add_argument("--n", type=int, default=1, help="i.i.d. power applied to both sides")
    p.add_argument("--conditions", action="store_true", help="include the condition report")
    common(p)
    p.set_defaults(fn=cmd_divergence)

    p = sub.add_parser("entropy", help="smooth max or min entropy")
    p.add_argument("--order", choices=("max", "min"), required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--n", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("resolve", help="synthesize a uniform-seed map toward a source")
    p.add_argument("--source", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--f", required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--M", type=int, default=None, help="override the seed size formula")
    p.add_argument("--emit", default=None, help="write the map as JSON here")
    common(p)
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser("extract", help="build a near-uniform extractor from a source")
    p.add_argument("--source", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--f", required=True)
    p.add_argument("--Delta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--emit", default=None, help="write the extractor as JSON here")
    common(p)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("rates", help="finite-n first/second order rate sweep (CSV)")
    p.add_argument("--kind", choices=("resolvability", "intrinsic"), default="resolvability")
    p.add_argument("--source", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--nu", type=_parse_float_list, default=[0.1, 0.01, 0.001])
    p.add_argument("--n", type=_parse_int_list, required=True, help="comma list, e.g. 8,16,32")
    p.add_argument("--R", type=float, default=None, help="reference rate for second order")
    p.add_argument("--gamma", type=float, default=None, help="also construct maps per row")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    common(p)
    p.set_defaults(fn=cmd_rates)

    p = sub.add_parser("equivalence", help="entropy-vs-spectrum gap table (CSV)")
    p.add_argument("--source", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--nu", type=float, default=0.01)
    p.add_argument("--n", type=_parse_int_list, required=True)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(fn=cmd_equivalence)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SmoothgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
