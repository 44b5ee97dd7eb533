"""Command line front end: build, verify, branch, rmatrix, energy."""

import contextlib
import json
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii

import click

from .branching import branch_hat, expected_branching, verify_branching
from .cartan import ScopeError, make_datum
from .crystal import VerificationError, pair_ids, tensor, tensor_many
from .fixedpoint import (build_hat_crystal, check_string_identities,
                         verify_main_theorem)
from .intertwine import compute_r_matrix, energy_on_tensor, orbit_factors
from .models import classical_highest_node, kr_crystal

# every instance the verification suite is expected to cover
SCOPE_INSTANCES = (
    [("a", 2, i, s) for i in (1, 2) for s in (1, 2)]
    + [("a", 3, i, s) for i in (1, 2, 3) for s in (1, 2)]
    + [("b", 1, 1, s) for s in (1, 2)]
    + [("b", 2, i, s) for i in (1, 2) for s in (1, 2)]
    + [("c", 3, 1, 1), ("c", 3, 1, 2), ("c", 3, 3, 1)]
    + [("d", 3, 1, 1), ("d", 3, 1, 2), ("d", 3, 2, 1)])


@contextlib.contextmanager
def _boundary():
    try:
        yield
    except ScopeError as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(2)
    except (VerificationError, ValueError) as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(1)


def _emit(chunks, out):
    """Write the output's chunks, in order, to the file out or to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        for chunk in chunks:
            click.echo(chunk, nl=False)


def _json_map(name, left_ids, right_ids, values):
    """The chunks of json.dumps({name: dict(zip(pair_ids(left_ids, right_ids),
    values))}, sort_keys=True, indent=2) + "\n", a block of lines per left id.

    Written directly: with indent set, json.dumps runs its pure Python
    encoder. Renders the same bytes for string ids and for values that are
    all strings or all ints, one per pair in pair order. The pair ids must
    ascend strictly, which is checked before any chunk from the ids alone:
    the right ids ascend, and the last pair of each left id sorts below the
    first pair of the next. Block by block, neither the keys nor the whole
    text are ever held.
    """
    firsts = [x + "*" + right_ids[0] for x in islice(left_ids, 1, None)]
    lasts = [x + "*" + right_ids[-1] for x in left_ids]
    if not (all(map(str.__lt__, right_ids, islice(right_ids, 1, None)))
            and all(map(str.__lt__, lasts, firsts))):
        raise ValueError("keys of the %s map do not ascend strictly" % name)
    render = encode_basestring_ascii if isinstance(values[0], str) else int.__repr__
    # the quoted pair id is the quoted left id + "*", less its closing quote,
    # then the quoted right id, less its opening quote
    right = [encode_basestring_ascii(y)[1:] + ": " for y in right_ids]
    width = len(right)

    def chunks():
        sep = "{\n  %s: {\n    " % encode_basestring_ascii(name)
        for a, x in enumerate(left_ids):
            prefix = encode_basestring_ascii(x + "*")[:-1]
            row = map(render, values[a * width:(a + 1) * width])
            yield sep + ",\n    ".join(map(prefix.__add__, map(str.__add__, right, row)))
            sep = ",\n    "
        yield "\n  }\n}\n"
    return chunks()


def _release_freed_heap():
    """Hand the pages of freed heap blocks back to the OS where the C library
    offers malloc_trim (glibc); elsewhere do nothing.

    glibc keeps freed heap pages resident and places later blocks among
    them by the history of the process, so a process that goes on after
    B (x) B is freed, as a library user or many commands run in one
    interpreter, reaches a peak resident size that varies from run to run:
    on perfbench's parent-full workload (a 2-vCPU x86 VM), 92 to 101 MB
    over runs of the same requests, and within 0.5 MB with the pages
    handed back.
    """
    import ctypes  # imported here: only energy frees a heap this large
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def _energy_values(datum, crys, i, s):
    """The energy on crys (x) crys, over its pairs; the tensor is freed on return."""
    top = classical_highest_node(datum, crys, i, s)
    prod = tensor(crys, crys)
    return energy_on_tensor(prod, prod.at(top, top))


def _instance_options(fn):
    for opt in (
            click.option("--s", "s", type=int, default=1, show_default=True),
            click.option("--i", "i", type=int, default=1, show_default=True),
            click.option("--n", "n", type=int, default=3, show_default=True),
            click.option("--case", "case_", default=None,
                         type=click.Choice(["a", "b", "c", "d"]))):
        fn = opt(fn)
    return fn


def _require_case(case_):
    # not enforced by click: --all-scope sweeps run without an instance
    if case_ is None:
        raise ScopeError("--case is required")


def _sweep_scope(check):
    """One pass/FAIL row per scope instance, by check(datum, i, s); exit 1 on a FAIL."""
    rows, oks = [], []
    for c_, n_, i_, s_ in SCOPE_INSTANCES:
        oks.append(check(make_datum(c_, n_), i_, s_))
        rows.append("case %s n=%d i=%d s=%d %s"
                    % (c_, n_, i_, s_, "pass" if oks[-1] else "FAIL"))
    click.echo("\n".join(rows))
    sys.exit(0 if all(oks) else 1)


@click.group()
def main():
    """Exact combinatorics for folded affine crystal graphs."""


@main.command()
@_instance_options
@click.option("--target", type=click.Choice(["kr", "tilde", "hat"]),
              default="hat", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "dot", "text"]),
              default="text", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def build(case_, n, i, s, target, fmt, out):
    """Construct one crystal graph and print or save it."""
    with _boundary():
        _require_case(case_)
        datum = make_datum(case_, n)
        if target == "kr":
            crys = kr_crystal(datum, i, s)
        elif target == "tilde":
            crys = tensor_many(orbit_factors(datum, i, s))
        else:
            crys = build_hat_crystal(datum, i, s).crystal
        ref = "%s:n=%d:i=%d:s=%d:%s" % (case_, n, i, s, target)
        if fmt == "json":
            payload = json.dumps(crys.to_json(datum_ref=ref),
                                 sort_keys=True, indent=2) + "\n"
        elif fmt == "dot":
            payload = crys.to_dot(ref)
        else:
            lines = ["%s nodes=%d" % (ref, len(crys))]
            for b, wt in zip(crys.ids, crys.weights):
                lines.append("%s wt=%s" % (b, ",".join(map(str, wt))))
            for j in range(crys.ncolors):
                for idx, t in enumerate(crys.f[j]):
                    if t != -1:
                        lines.append("f%d %s -> %s" % (j, crys.ids[idx], crys.ids[t]))
            payload = "\n".join(lines) + "\n"
        _emit((payload,), out)


@main.command()
@_instance_options
@click.option("--full-regularity", is_flag=True)
@click.option("--all-scope", is_flag=True)
def verify(case_, n, i, s, full_regularity, all_scope):
    """Run the full verification stack on one instance or the whole scope."""
    with _boundary():
        if all_scope:
            def check(d_, i_, s_):
                rep = verify_main_theorem(d_, i_, s_, full_regularity=full_regularity)
                strings = check_string_identities(d_, i_, s_)
                return rep.ok and strings.ok
            _sweep_scope(check)
        _require_case(case_)
        datum = make_datum(case_, n)
        report = verify_main_theorem(datum, i, s, full_regularity=full_regularity)
        strings = check_string_identities(datum, i, s)
        click.echo(report.to_text())
        click.echo(strings.to_text())
        sys.exit(0 if report.ok and strings.ok else 1)


@main.command()
@_instance_options
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="text", show_default=True)
@click.option("--all-scope", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def branch(case_, n, i, s, fmt, all_scope, out):
    """Decompose the folded crystal and compare with the closed formula."""
    with _boundary():
        if all_scope:
            _sweep_scope(lambda d_, i_, s_: verify_branching(d_, i_, s_).ok)
        _require_case(case_)
        datum = make_datum(case_, n)
        got = branch_hat(datum, i, s)
        note = ""
        match = True
        try:
            match = got.multiset() == expected_branching(datum, i, s)
        except ScopeError as exc:
            note = str(exc)
        card = "cardinality: sum of mult*dim = %d = size" % got.total
        if fmt == "json":
            doc = got.to_json()
            doc["cardinality_ok"] = True
            doc["matches_formula"] = None if note else match
            if note:
                doc["note"] = note
            payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        else:
            payload = got.to_text() + "\n" + card + "\n"
            if note:
                payload += "note: %s\n" % note
            elif not match:
                payload += "MISMATCH with the closed formula\n"
        _emit((payload,), out)
        sys.exit(0 if match else 1)


@main.command()
@_instance_options
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="text", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def rmatrix(case_, n, i, s, fmt, out):
    """Exchange map between column i and its twist image, as a pair table."""
    with _boundary():
        _require_case(case_)
        datum = make_datum(case_, n)
        left = kr_crystal(datum, i, s)
        right = kr_crystal(datum, datum.omega[i], s)
        rmat = compute_r_matrix(datum, (i, s), (datum.omega[i], s))
        # a code is a node of right (x) left
        values = list(map(list(pair_ids(right.ids, left.ids)).__getitem__, rmat.codes))
        if fmt == "json":
            chunks = _json_map("map", left.ids, right.ids, values)
        else:
            chunks = ["".join(map("%s -> %s\n".__mod__,
                                  zip(pair_ids(left.ids, right.ids), values)))]
        _emit(chunks, out)


@main.command()
@_instance_options
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="text", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def energy(case_, n, i, s, fmt, out):
    """Energy table on the self tensor square of one column crystal."""
    with _boundary():
        _require_case(case_)
        datum = make_datum(case_, n)
        crys = kr_crystal(datum, i, s)
        values = _energy_values(datum, crys, i, s)
        _release_freed_heap()
        if fmt == "json":
            chunks = _json_map("H", crys.ids, crys.ids, values)
        else:
            chunks = ["".join(map("H %s %d\n".__mod__, zip(pair_ids(crys.ids, crys.ids), values)))]
        _emit(chunks, out)


if __name__ == "__main__":
    main()
