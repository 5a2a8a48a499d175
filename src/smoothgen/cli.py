"""Command-line front end: parsing, dispatch, and CSV/JSON emission.

Every subcommand reports through :func:`_report`.  By default it writes
its summary: a text line, or a CSV table for ``rates`` and
``equivalence``.  ``--json`` writes JSON instead, to stdout or, for
``rates`` and ``equivalence``, to ``--out`` when given.  ``--emit``
writes a map as JSON to its path, and ``--emit`` with ``--json`` leaves
stdout empty.

Exit codes: 0 on success, 2 when a computation rejects its inputs
(infeasible targets, malformed specs, a D, Delta, nu, R or gamma that
is nan or infinite, a gamma that is not positive), 1 on I/O failures.
A usage error (an unknown option, a missing required option, a number
option that does not parse) exits 2 from the shell; in-process it
raises ``SystemExit(2)`` after writing the usage to stderr, as argparse
does.  All outputs are deterministic for a fixed invocation: CSV rows
come in computation order with repr-formatted floats, and the seed is
recorded in JSON artifacts but never drawn from.

:func:`main` may be called any number of times in one process.  It
builds its parser on the first call and parses every later argv with
that parser, so a call's output depends on its argv alone.

Every JSON artifact is exactly ``json.dumps(obj, indent=2,
sort_keys=True)`` followed by a newline, where ``obj`` holds labels as
lists and exact rationals as strings, so ``python -m json.tool
--sort-keys --indent 2`` reproduces it byte for byte.  :func:`_render`
builds that text by joining, since ``json.dumps`` falls back to the
stdlib's pure-Python encoder whenever ``indent`` is set.  A map's
labels are rendered from two tables of half-label texts, and a
resolvability map's image entries from one template.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence, Union

from .distributions import FiniteDistribution, expand, iid_power, parse_source
from .errors import SmoothgenError
from .fdiv import check_conditions, f_divergence, parse_generator
from .intrinsic import build_extractor
from .resolvability import _check_gamma, _rate_sweep, build_resolvability_map
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


def _float_text(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


# The text json.dumps writes for a scalar of exactly these types.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _render(obj, pad: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``.

    A value's text at depth L is its depth-0 text with every newline
    followed by L indents, since a JSON string never holds a raw newline;
    ``pad`` is a newline and the indents of ``obj``'s depth.  Containers
    join their items' texts, so a list of :class:`_Text` alone is joined
    first and indented once, and add their brackets in one step, so a
    long body is copied once.  A map's labels (:func:`_label_text`) and
    image entries (:func:`_image_entry`) come as :class:`_Text`, so its
    label lists and its image take that join; every other payload goes
    through the object and scalar paths.  Scalars of the plain types are
    written by the encoder's own functions, any other through
    ``json.dumps``.  A ``Fraction`` is written as its string, a tuple as
    a list and a :class:`_Text` as it stands.
    """
    scalar = _SCALAR_TEXT.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if isinstance(obj, _Text):
        return obj.replace("\n", pad)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(map(isinstance, obj, itertools.repeat(str))):
            raise TypeError("JSON object keys must be str")
        inner = pad + "  "
        items = sorted(obj.items())
        body = ("," + inner).join(
            [encode_basestring_ascii(key) + ": " + _render(value, inner) for key, value in items]
        )
        return f"{{{inner}{body}{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        if set(map(type, obj)) == {_Text}:
            body = ",\n".join(obj).replace("\n", inner)
        else:
            body = ("," + inner).join([_render(x, inner) for x in obj])
        return f"[{inner}{body}{pad}]"
    return json.dumps(str(obj) if isinstance(obj, Fraction) else obj)


def _label_text(source):
    """Map a label of ``source`` to what :func:`_render` writes for it.

    A view's label is a tuple of n base labels, which are unique under
    ``==``.  Each base label is rendered once, then every prefix of
    length floor(n/2) and every suffix of length ceil(n/2) over the
    base's labels (zero-mass ones too) is rendered once into a half
    table, the opening bracket and the separator on the prefix side and
    the closing bracket on the suffix side.  A label's text is then two
    lookups and one concatenation.  Each table holds at most
    s^ceil(n/2) texts for s base labels, under the 2^20 atom cap about a
    thousand times sqrt(s).  A plain distribution's label is its own text.
    """
    if isinstance(source, FiniteDistribution):
        return lambda label: label
    labels = source.base.labels
    symbols = [_render(lab, "\n  ") for lab in labels]
    half = source.n // 2

    def table(k: int, head: str, tail: str) -> dict:
        return {
            key: head + ",\n  ".join(texts) + tail
            for key, texts in zip(
                itertools.product(labels, repeat=k), itertools.product(symbols, repeat=k)
            )
        }

    prefix = table(half, "[\n  ", ",\n  " if half else "")
    suffix = table(source.n - half, "", "\n]")
    return lambda label: _Text(prefix[label[:half]] + suffix[label[half:]])


def _write(text: str, path: Optional[str]) -> None:
    """Write ``text`` to the file at ``path``, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, payload: dict, summary: Union[str, tuple[list[str], list[list]]]) -> None:
    """Write a subcommand's result: ``payload`` as JSON under ``--json``, else ``summary``.

    A summary is a text line, or a (header, rows) table written as CSV
    whose rows join the payload keyed by their header's first words.
    Output goes to ``--out`` where a subcommand has it, else to stdout.
    A map is written to ``--emit`` first, and ``--json`` then adds nothing.
    """
    emit, out = getattr(args, "emit", None), getattr(args, "out", None)
    if emit:
        _write(_render(payload) + "\n", emit)
    if isinstance(summary, tuple):
        header, rows = summary
        keys = [h.split(" ")[0] for h in header]
        payload["rows"] = [dict(zip(keys, row)) for row in rows]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        summary = buf.getvalue()
    else:
        summary += "\n"
    if not args.json:
        _write(summary, out)
    elif not emit:
        _write(_render(payload) + "\n", out)


def _exact(value) -> Optional[str]:
    """The string of a divergence's exact value, or None for a float one."""
    return str(value.value) if isinstance(value.value, Fraction) else None


def _source_at(spec: str, n: int):
    base = parse_source(spec)
    return base if n == 1 else iid_power(base, n)


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
        "value_exact": _exact(value),
        "seed": args.seed,
    }
    summary = f"D_{f.name}(P||Q) = {float(value)!r}" + ("" if value.finite else " (infinite)")
    if args.conditions:
        rep = check_conditions(f)
        verdicts = {
            "c1": rep.c1,
            "c2": rep.c2,
            "c2_prime": rep.c2_prime,
            "c3": rep.c3,
            "c3_prime": rep.c3_prime,
        }
        payload["conditions"] = {
            **verdicts, "c_f_estimate": rep.c_f_estimate, "warnings": rep.warnings
        }
        summary += "\nconditions: C1=%s C2=%s C2'=%s C3=%s C3'=%s" % tuple(verdicts.values())
    _report(args, payload, summary)
    return 0


def cmd_entropy(args) -> int:
    source = _source_at(args.source, args.n)
    fn = smooth_max_entropy if args.order == "max" else smooth_min_entropy
    result = fn(source, args.delta)
    w = result.witness
    if args.order == "max":
        witness = {"set_size": w.set_size, "mass": w.mass}
    else:
        witness = {"beta": float(w.beta), "log_beta": w.log_beta, "residual": float(w.residual)}
    payload = {
        "order": args.order,
        "delta": args.delta,
        "n": args.n,
        "value": result.value,
        "witness": witness,
        "seed": args.seed,
    }
    _report(args, payload, f"H_{args.order}(delta={args.delta:g}) = {result.value!r} nats")
    return 0


def _report_map(args, map_, target: str, last: str, fields: dict) -> None:
    """Report a construction: the artifact fields every map has, then ``fields``.

    The summary line names the divergence target ``fields[target]`` and
    the certificate's ``fields[last]``.
    """
    p = map_.params
    achieved = float(map_.achieved_divergence)
    payload = {
        "M": map_.M,
        "n": p.n,
        "f": p.f_name,
        "gamma": p.gamma,
        "seed": args.seed,
        "achieved": achieved,
        "achieved_exact": _exact(map_.achieved_divergence),
        "bound": p.bound,
        "m_from_formula": p.m_from_formula,
        **fields,
    }
    _report(
        args,
        payload,
        f"M = {map_.M}; achieved D_f = {achieved!r} (target {fields[target]:g}, "
        f"certified bound {p.bound!r}, {last} {fields[last]!r})",
    )


def _image_entry(text):
    """Map an image pair (label, count) to the text of its artifact entry.

    An entry is ``{"count": k, "sequence": label}``, written from one
    template with its keys in sorted order, so a map's image is a list
    of :class:`_Text` that :func:`_render` joins in one step.  The label
    is rendered from ``text`` (see :func:`_label_text`) at the entry's
    depth, so a plain distribution's labels keep any JSON value's text.
    """
    return lambda lab, k: _Text(
        '{\n  "count": ' + _render(k) + ',\n  "sequence": ' + _render(text(lab), "\n  ") + "\n}"
    )


def cmd_resolve(args) -> int:
    """Build and report a resolvability map.

    Each image entry is one text from :func:`_image_entry`'s template,
    its label looked up in :func:`_label_text`'s two half tables.
    """
    f = parse_generator(args.f)
    source = _source_at(args.source, args.n)
    map_ = build_resolvability_map(source, f, args.D, args.gamma, M=args.M)
    p = map_.params
    entry = _image_entry(_label_text(source))
    fields = {
        "D": p.D,
        "image": list(itertools.starmap(entry, map_.image)),
        "slack": p.slack,
        "pr_b": p.pr_b,
        "b_size": p.b_size,
    }
    _report_map(args, map_, "D", "slack", fields)
    return 0


def cmd_extract(args) -> int:
    f = parse_generator(args.f)
    source = _source_at(args.source, args.n)
    map_ = build_extractor(source, f, args.Delta, args.gamma, M=args.M)
    p = map_.params
    text = _label_text(source)
    fields = {
        "Delta": p.Delta,
        "beta0": p.beta0,
        "A_n": p.a_n,
        "bins": [list(map(text, b)) for b in map_.bins],
        "induced": [float(m) for m in map_.induced.masses],
        "delta_n": p.delta_n,
    }
    _report_map(args, map_, "Delta", "delta_n", fields)
    return 0


def _construction_cells(args, f, view, n: int, nu: float) -> list:
    """The achieved_Df and M cells (and beta0, A_n) of one rates row, built at D + nu.

    They are empty without ``--gamma``, and when the construction is
    refused, which is named on stderr.
    """
    intrinsic = args.kind == "intrinsic"
    if args.gamma is not None:
        build = build_extractor if intrinsic else build_resolvability_map
        try:
            built = build(view, f, args.D + nu, args.gamma)
            cells = [float(built.achieved_divergence), built.M]
            return cells + [built.params.beta0, built.params.a_n] if intrinsic else cells
        except SmoothgenError as exc:
            print(
                f"warning: n={n} nu={nu}: construction skipped: {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
    return [None] * (4 if intrinsic else 2)


def _rates_rows(args, f, base) -> tuple[list[str], list[list]]:
    # A gamma no row could build with is refused before the sweep.  The
    # whole sweep runs before the first construction, so a sweep error
    # is reported before any construction warning.  Without --gamma no
    # view is kept and zip_longest pairs each evaluation with None.
    if args.gamma is not None:
        _check_gamma(args.gamma)
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
            second = ev.second_order[j] if ev.second_order is not None else None
            cells = _construction_cells(args, f, view, ev.n, nu)
            rows.append([ev.n, nu, ev.first_order[j], second, *cells])
    return header, rows


def cmd_rates(args) -> int:
    f = parse_generator(args.f)
    base = parse_source(args.source)
    _report(args, {"kind": args.kind, "seed": args.seed}, _rates_rows(args, f, base))
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
    rows = [
        [r.n, r.nu, r.h0_rate, r.hinf_rate, r.kbar, r.kunder, r.gap0, r.gapinf]
        for r in report.rows
    ]
    _report(args, {"seed": args.seed, "warnings": report.warnings}, (header, rows))
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first :func:`main` call.

    Every later call parses with the same parser, so every call shares
    its default objects, and these are immutable.  The ``cmd_*``
    functions are bound as each subcommand's ``fn`` at this first build;
    the library names they read, such as ``iid_power``, are looked up
    when they run.
    """
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
    p.add_argument("--nu", type=_parse_float_list, default=(0.1, 0.01, 0.001))
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
