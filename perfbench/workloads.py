"""The three workloads: seeded inputs, references and output checks.

Each ``setup_*`` function imports twkit, draws its inputs from the seed,
computes the references the checks compare against, and returns the
workload's groups (see harness.py).  twkit only ever sees the generated
command lines and documents.

Why these workloads:

* ``link``: ``twkit link`` is the main user command and builds large,
  sparse cube complexes; the d^2 = 0 check inside ``GradedComplex``,
  ``first_differential`` and ``homology_field`` carry it.  Validation,
  elimination and front-end construction changes must show here.
* ``twobraid``: one two-term differential, so validation and decompose
  do almost nothing and mod-a homology and projection in ``exactla``
  take the time.  A validation-only change must not move it; a kernel or
  elimination change must.
* ``corpus``: the README's pipe use on many small conjugated complex
  documents; hundreds of thousands of tiny exact reductions, so per-call
  overhead decides it, along with JSON parsing and dense validation.
"""

from __future__ import annotations

import importlib.util
import json
import random
from fractions import Fraction
from functools import partial

from harness import Command, Group

# nonzero potential coefficients the seed draws from
COEFFICIENTS = tuple(sorted({Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)}))

# -- link ---------------------------------------------------------------

# braid word, strands, budget in seconds (about 4x this ladder's time
# on a 2-core 2.1 GHz Xeon VM with the pure kernel)
LINK_LADDER = (
    ("1 1 1", 2, 5.0),
    ("1 -2 1 -2", 3, 5.0),
    ("1 1 1 1 1", 2, 20.0),
    ("1 1 1 2 -1 2", 3, 60.0),
)


def load_oracles(root):
    """tests/oracles.py, the independent Khovanov homology oracle."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_link(oracle, out):
    rep = json.loads(out)
    hn = {}
    for i, s, dim in rep["hn"]:
        if (i, s) in hn:
            return "hn lists (%d, %d) twice" % (i, s)
        hn[(i, s)] = dim
    if hn != oracle:
        return "hn differs from the oracle"
    dec = rep["decomposition"]
    if len(dec["free"]) + 2 * len(dec["torsion"]) != sum(hn.values()):
        return "|free| + 2|torsion| != dim hn"
    return None


def setup_link(seed, root):
    oracles = load_oracles(root)
    coefficient = random.Random(seed).choice(COEFFICIENTS)
    groups = []
    for n, (word, strands, budget) in enumerate(LINK_LADDER):
        letters = [int(x) for x in word.split()]
        # the front end's (i, s) is the oracle's (i, -q) on the mirror
        oracle = {
            (i, -q): dim
            for (i, q), dim in oracles.khovanov_of_mirror_braid(letters, strands).items()
        }
        argv = ["link", "--braid", word, "--strands", str(strands), "--lambdas", "1=%s" % coefficient]
        command = Command(argv, partial(check_link, oracle), budget)
        groups.append(Group(word, [command], largest=n == len(LINK_LADDER) - 1))
    return groups


# -- twobraid -----------------------------------------------------------

TWOBRAID_LADDER = ((10, 5.0), (20, 15.0), (25, 20.0))
DELTA_N = 7
DELTA_BUDGET = 10.0


def check_twobraid(N, i, out):
    """Closed form for P = x^(N+1) + b x^i: N free pieces at degree 0,
    N(N-1) at degree 4, i-1 free pairs at degrees 2 and 3, and N-i
    width-one torsion pieces at degree 3."""
    dec = json.loads(out)["decomposition"]
    free = {}
    for degree, _ in dec["free"]:
        free[degree] = free.get(degree, 0) + 1
    want = {0: N, 2: i - 1, 3: i - 1, 4: N * (N - 1)}
    if free != {d: c for d, c in want.items() if c}:
        return "free pieces by degree %r, expected %r" % (free, want)
    if len(dec["torsion"]) != N - i:
        return "%d torsion pieces, expected %d" % (len(dec["torsion"]), N - i)
    if any((degree, m) != (3, 1) for degree, m, _ in dec["torsion"]):
        return "torsion pieces not all width one at degree 3"
    return None


def check_delta(N, out):
    data = json.loads(out)
    if data["ok"] is not True:
        return "battery verdict is not ok"
    want = {str(i): N - i for i in range(1, N + 1)}
    if data["ranks"] != want:
        return "ranks %r, expected %r" % (data["ranks"], want)
    return None


def setup_twobraid(seed, root):
    coefficient = random.Random(seed).choice(COEFFICIENTS)
    groups = []
    for N, budget in TWOBRAID_LADDER:
        i = N // 2
        # "--coefficient=-3/2": argparse would read a separate "-3/2" as an option
        argv = ["twobraid", "--N", str(N), "--i", str(i), "--coefficient=%s" % coefficient]
        command = Command(argv, partial(check_twobraid, N, i), budget)
        groups.append(Group("N=%d" % N, [command], largest=N == TWOBRAID_LADDER[-1][0]))
    command = Command(["delta", "--N", str(DELTA_N)], partial(check_delta, DELTA_N), DELTA_BUDGET)
    groups.append(Group("delta N=%d" % DELTA_N, [command]))
    return groups


# -- corpus -------------------------------------------------------------

CORPUS_DOCS = 16
CORPUS_MIN_GENERATORS = 20
CORPUS_MAX_GENERATORS = 60
CONJUGATION_OPS = 16
# the largest document's decomposition is drawn from this fixed seed
# (its conjugation still comes from the workload seed), since
# largest_s times that one document: a decomposition redrawn with
# each seed moved its cost by 12% (interquartile range over median)
LARGEST_DECOMPOSITION_SEED = 0
VERIFY_COUNT = 40
DOC_BUDGET = 10.0
VERIFY_BUDGET = 30.0


def _draw_decomposition(rng, k, generators, torsion=None):
    """A corpus.random_decomposition with exactly this k, generator
    count and (when given) torsion piece count, by rejection, so every
    seed gets the same size ladder."""
    from twkit.corpus import random_decomposition

    while True:
        d = random_decomposition(rng, max_generators=generators)
        if (
            d.k == k
            and len(d.free_pieces) + 2 * len(d.torsion_pieces) == generators
            and torsion in (None, len(d.torsion_pieces))
        ):
            return d


def _expected_pages(d):
    """The pages document `twkit pages` prints, from the closed forms
    on the generating decomposition."""
    from twkit import jsonio
    from twkit.pages import assembled_pages
    from twkit.recover import pages_from_decomposition

    count = len(pages_from_decomposition(d))
    tables = [
        assembled_pages(d, True, 2 * d.k * (r - 1) + 1).table().to_hom_poly()
        for r in range(1, count + 1)
    ]
    return jsonio.raw_pages_to_data(d.k, tables)


def _expected_couple(d):
    """{r: entries} of `twkit couple`: derived-couple page r at (p, q)
    equals the closed-form hat page 2k(r-1)+1 (criterion 3)."""
    from twkit.decompose import torsion_width
    from twkit.pages import assembled_pages

    return {
        r: {(p, q): dim for (p, q), dim in assembled_pages(d, True, 2 * d.k * (r - 1) + 1).table().items()}
        for r in range(1, torsion_width(d) + 3)
    }


def check_decomposition(expected, out):
    """expected: (k, sorted free pieces, sorted torsion pieces)."""
    data = json.loads(out)
    got = data["k"], sorted(map(tuple, data["free"])), sorted(map(tuple, data["torsion"]))
    if got != expected:
        return "not the generating decomposition"
    return None


def check_pages(expected, out):
    if json.loads(out) != expected:
        return "pages differ from the closed form"
    return None


def check_couple(expected, out):
    got = {}
    for line in out.splitlines():
        page = json.loads(line)
        got[page["r"]] = {(p, q): dim for p, q, dim in page["entries"]}
    if got != expected:
        return "couple pages differ from the closed-form hat pages"
    return None


def check_verify(count, out):
    data = json.loads(out)
    if data["count"] != count or data["passed"] != count or data["failures"]:
        return "verify passed %r of %r" % (data["passed"], data["count"])
    return None


def corpus_documents(rng):
    """[(decomposition, complex document text)]: k cycles through 1..3
    and sizes climb evenly to the largest, which comes last and whose
    decomposition is the same for every seed."""
    from twkit import jsonio
    from twkit.corpus import conjugate
    from twkit.decompose import reassemble

    span = CORPUS_MAX_GENERATORS - CORPUS_MIN_GENERATORS
    docs = []
    for n in range(CORPUS_DOCS):
        doc_rng = random.Random(rng.randrange(2**63))
        generators = CORPUS_MIN_GENERATORS + span * n // (CORPUS_DOCS - 1)
        if n == CORPUS_DOCS - 1:
            # the largest document sets largest_s on its own, so its
            # decomposition is pinned (as many free as torsion pieces)
            fixed = random.Random(LARGEST_DECOMPOSITION_SEED)
            d = _draw_decomposition(fixed, 1 + n % 3, generators, generators // 3)
        else:
            d = _draw_decomposition(doc_rng, 1 + n % 3, generators)
        c = conjugate(doc_rng, reassemble(d), CONJUGATION_OPS)
        docs.append((d, jsonio.dumps(jsonio.complex_to_data(c))))
    return docs


def setup_corpus(seed, root):
    rng = random.Random(seed)
    groups = []
    docs = corpus_documents(rng)
    for n, (d, doc) in enumerate(docs):
        same = partial(check_decomposition, (d.k, sorted(d.free_pieces), sorted(d.torsion_pieces)))
        pages = partial(check_pages, _expected_pages(d))
        commands = [
            Command(["decompose", doc], same, DOC_BUDGET),
            Command(["pages", doc], pages, DOC_BUDGET),
            Command(["recover", "-"], same, DOC_BUDGET, stdin_from=1),
            Command(["pages", "--generic", doc], pages, DOC_BUDGET),
            Command(["couple", doc], partial(check_couple, _expected_couple(d)), DOC_BUDGET),
        ]
        groups.append(Group("doc %d" % n, commands, largest=n == len(docs) - 1))
    verify_seed = rng.randrange(2**31)
    argv = ["verify", "--count", str(VERIFY_COUNT), "--seed", str(verify_seed)]
    groups.append(Group("verify", [Command(argv, partial(check_verify, VERIFY_COUNT), VERIFY_BUDGET)]))
    return groups


SETUP = {"link": setup_link, "twobraid": setup_twobraid, "corpus": setup_corpus}
