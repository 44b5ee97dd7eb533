"""Command line front end: build, verify, branch, rmatrix, energy."""

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from .branching import branch_hat, expected_branching, verify_branching
from .cartan import ScopeError, make_datum
from .crystal import (VerificationError, pair_ids, pair_order_witness, tensor,
                      tensor_many)
from .fixedpoint import (build_hat_crystal, check_string_identities,
                         verify_main_theorem)
from .intertwine import compute_r_matrix, energy_on_tensor, orbit_column, orbit_factors
from .models import classical_highest_node, kr_crystal

# every instance the verification suite is expected to cover
SCOPE_INSTANCES = (
    [("a", 2, i, s) for i in (1, 2) for s in (1, 2)]
    + [("a", 3, i, s) for i in (1, 2, 3) for s in (1, 2)]
    + [("b", 1, 1, s) for s in (1, 2)]
    + [("b", 2, i, s) for i in (1, 2) for s in (1, 2)]
    + [("c", 3, 1, 1), ("c", 3, 1, 2), ("c", 3, 3, 1)]
    + [("d", 3, 1, 1), ("d", 3, 1, 2), ("d", 3, 2, 1)])


def _emit(chunks, out):
    """Write the output's chunks, in order, to the file out or to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()


def _json_map(name, left_ids, right_ids, values):
    """The chunks of json.dumps({name: dict(zip(pair_ids(left_ids, right_ids),
    values))}, sort_keys=True, indent=2) + "\n", a block of lines per left id.

    Written directly: with indent set, json.dumps runs its pure Python
    encoder. Renders the same bytes for string ids and for values that are
    all strings or all ints, one per pair in pair order. The pair ids must
    ascend strictly, which pair_order_witness checks before any chunk.
    Block by block, neither the keys nor the whole text are ever held.
    """
    if pair_order_witness(left_ids, right_ids) is not None:
        raise ValueError("keys of the %s map do not ascend strictly" % name)
    if isinstance(values[0], str):
        render = encode_basestring_ascii
    else:  # few distinct ints: each repr is made once
        render = {v: repr(v) for v in set(values)}.__getitem__
    # the quoted pair id is the quoted left id + "*", less its closing quote,
    # then the quoted right id, less its opening quote; the left part goes
    # into the separator between the entries of its block
    right = [encode_basestring_ascii(y)[1:] + ": " for y in right_ids]
    width = len(right)

    def chunks():
        sep = "{\n  %s: {\n    " % encode_basestring_ascii(name)
        for a, x in enumerate(left_ids):
            prefix = encode_basestring_ascii(x + "*")[:-1]
            row = map(render, values[a * width:(a + 1) * width])
            yield sep + prefix + (",\n    " + prefix).join(map(str.__add__, right, row))
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


def _sweep_scope(check):
    """One pass/FAIL row per scope instance, by check(datum, i, s); exit 1 on a FAIL."""
    rows, oks = [], []
    for c_, n_, i_, s_ in SCOPE_INSTANCES:
        oks.append(check(make_datum(c_, n_), i_, s_))
        rows.append("case %s n=%d i=%d s=%d %s"
                    % (c_, n_, i_, s_, "pass" if oks[-1] else "FAIL"))
    print("\n".join(rows), flush=True)
    sys.exit(0 if all(oks) else 1)


def build(case_, n, i, s, target, fmt, out):
    """Construct one crystal graph and print or save it."""
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


def verify(case_, n, i, s, full_regularity, all_scope):
    """Run the full verification stack on one instance or the whole scope."""
    if all_scope:
        def check(d_, i_, s_):
            rep = verify_main_theorem(d_, i_, s_, full_regularity=full_regularity)
            strings = check_string_identities(d_, i_, s_)
            return rep.ok and strings.ok
        _sweep_scope(check)
    datum = make_datum(case_, n)
    report = verify_main_theorem(datum, i, s, full_regularity=full_regularity)
    strings = check_string_identities(datum, i, s)
    print(report.to_text())
    print(strings.to_text(), flush=True)
    sys.exit(0 if report.ok and strings.ok else 1)


def branch(case_, n, i, s, fmt, all_scope, out):
    """Decompose the folded crystal and compare with the closed formula."""
    if all_scope:
        _sweep_scope(lambda d_, i_, s_: verify_branching(d_, i_, s_).ok)
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


def rmatrix(case_, n, i, s, fmt, out):
    """Exchange map between column i and its twist image, as a pair table."""
    datum = make_datum(case_, n)
    left = kr_crystal(datum, i, s)
    right = orbit_column(datum, i, datum.omega[i], s)
    rmat = compute_r_matrix(datum, (i, s), (datum.omega[i], s))
    # a code is a node of right (x) left
    values = list(map(list(pair_ids(right.ids, left.ids)).__getitem__, rmat.codes))
    if fmt == "json":
        chunks = _json_map("map", left.ids, right.ids, values)
    else:
        chunks = ["".join(map("%s -> %s\n".__mod__,
                              zip(pair_ids(left.ids, right.ids), values)))]
    _emit(chunks, out)


def energy(case_, n, i, s, fmt, out):
    """Energy table on the self tensor square of one column crystal."""
    datum = make_datum(case_, n)
    crys = kr_crystal(datum, i, s)
    values = _energy_values(datum, crys, i, s)
    _release_freed_heap()
    if fmt == "json":
        chunks = _json_map("H", crys.ids, crys.ids, values)
    else:
        chunks = ["".join(map("H %s %d\n".__mod__, zip(pair_ids(crys.ids, crys.ids), values)))]
    _emit(chunks, out)


# each command with its options past the instance's, and the choices of its --format
COMMANDS = (
    (build, ("--target", "--format", "--out"), ("json", "dot", "text")),
    (verify, ("--full-regularity", "--all-scope"), ()),
    (branch, ("--format", "--all-scope", "--out"), ("json", "text")),
    (rmatrix, ("--format", "--out"), ("json", "text")),
    (energy, ("--format", "--out"), ("json", "text")),
)

OPTIONS = {
    "--target": dict(choices=("kr", "tilde", "hat"), default="hat", help="default: hat"),
    "--format": dict(dest="fmt", help="default: text"),
    "--full-regularity": dict(action="store_true"),
    "--all-scope": dict(action="store_true"),
    "--out": dict(metavar="PATH"),
}

# options parsed with the default None, in the order an --all-scope sweep
# refuses them when given, as it would drop them; then each takes this default
SWEEP_REFUSED = (("--case", "case_", None), ("--n", "n", 3), ("--i", "i", 1),
                 ("--s", "s", 1), ("--format", "fmt", "text"), ("--out", "out", None))


def _parser():
    """The parser of every command line; options are never abbreviated."""
    kw = dict(allow_abbrev=False, add_help=False)
    parser = argparse.ArgumentParser(
        prog="crystalfold", description="Exact combinatorics for folded affine crystal graphs.",
        **kw)
    parser.add_argument("--help", action="help", help="show this message and exit")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for run, flags, formats in COMMANDS:
        sub = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__, **kw)
        sub.set_defaults(run=run)
        sub.add_argument("--case", dest="case_", choices=("a", "b", "c", "d"))
        for flag, dest, default in SWEEP_REFUSED[1:4]:  # --n, --i, --s
            sub.add_argument(flag, type=int, metavar="INTEGER", help="default: %d" % default)
        for flag in flags:
            choices = {"choices": formats} if flag == "--format" else {}
            sub.add_argument(flag, **OPTIONS[flag], **choices)
        sub.add_argument("--help", action="help", help="show this message and exit")
    return parser


PARSER = _parser()


def main(args=None, prog_name=None):
    """Run one command line, the words args or else sys.argv[1:]. prog_name
    is ignored: it is accepted for the call made through main.main."""
    opts = vars(PARSER.parse_args(args))
    run = opts.pop("run")
    try:
        for flag, dest, default in SWEEP_REFUSED:
            if dest not in opts:
                continue
            if opts[dest] is None:
                opts[dest] = default
            elif opts.get("all_scope"):
                raise ScopeError("%s cannot be combined with --all-scope" % flag)
        # not required by the parser: --all-scope sweeps run without an instance
        if opts["case_"] is None and not opts.get("all_scope"):
            raise ScopeError("--case is required")
        run(**opts)
    except ScopeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(2)
    except (VerificationError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(1)
    except OSError as exc:  # the file of --out, or standard output closed early
        where = "standard output" if exc.filename is None else exc.filename
        print("error: cannot write %s: %s" % (where, exc.strerror), file=sys.stderr)
        sys.exit(2)


# perfbench/run.py calls main.main(args=..., prog_name=...), the entry point
# of the click command this function replaced
main.main = main


if __name__ == "__main__":
    main()
