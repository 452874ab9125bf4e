"""The benchmark's fixed workloads, their reference outputs and the
independent oracles that check them.

Nothing here imports classpoly: the oracles (class number, unit count mod
N, coset count) are written from their textbook definitions so that they
do not share code with the program under test.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from math import gcd

from mpmath import mpf

# Coefficients of the level-5 class polynomial at D = -52, highest degree
# first: the repository's golden reference, copied here so the benchmark
# does not read the test suite.
GOLDEN_MINUS_52_LEVEL_5_DESC = (
    1, 82, -996, 968, 1051, 1422, -96, -24912, 7896, 16722, 28844, 13658,
    -114024, -13658, 28844, -16722, 7896, 24912, -96, -1422, 1051, -968,
    -996, -82, 1,
)
# Classical Hilbert class polynomials (ascending), for the level-5 j jobs,
# whose irreducible factor must be H_D.
HILBERT_ASC = {
    -52: (-567663552000000, -6896880000, 1),
    -20: (-681472000, -1264000, 1),
}

RR = "rogers-ramanujan"
KLEIN = "klein-quotient:1/5,0|2/5,0"


@dataclass(frozen=True)
class Reference:
    """What a job gives at the commit the benchmark was defined on.

    A succeeding job stores the degree of the rounded product, the exponent
    and the SHA-256 of the irreducible coefficients; a failing one stores
    the exception class it fails with.
    """

    degree: int = 0
    exponent: int = 0
    digest: str = ""
    failure: str = ""


@dataclass(frozen=True)
class ComputeJob:
    """One `conjugates.run` call."""

    disc: int
    level: int
    function: str
    bits: int
    ref: Reference

    @property
    def label(self) -> str:
        return f"{self.function}@({self.disc},{self.level},{self.bits})"


@dataclass(frozen=True)
class TableJob:
    """One `classpoly table` invocation through `cli.main`; the reference is
    the SHA-256 of everything it prints."""

    disc: int
    level: int
    fmt: str
    digest: str

    @property
    def label(self) -> str:
        return f"table@({self.disc},{self.level},{self.fmt})"

    def argv(self) -> list:
        return ["table", "--disc", str(self.disc), "--level", str(self.level),
                "--format", self.fmt]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    smoke: tuple  # one tiny job of the same kind, for --smoke


def _ok(degree, exponent, digest):
    return Reference(degree=degree, exponent=exponent, digest=digest)


def _rr(disc, bits, ref, function=RR):
    return ComputeJob(disc, 5, function, bits, ref)


WORKLOADS = {
    w.name: w
    for w in (
        # Degrees 16 to 48 and no escalation: the exact squarefree/power
        # certificate over Fraction is most of the pass.
        Workload(
            name="rr-ladder",
            jobs=(
                _rr(-24, 256, _ok(16, 1,
                    "59eb02d402cf0854ff63ea4b5e8c3d08e8b8cf7f6a9fee6d8199b2c229db45cf")),
                _rr(-20, 256, _ok(20, 1,
                    "63dc5b6df9ac21e9f1198654cb44d4895d78faaeed572385cb33fa902ce15515")),
                _rr(-40, 256, _ok(20, 1,
                    "12d09f5e5ca2ef635fdfb8d9eedd7bef30965031890ce6b5714e6d318e224a8d")),
                _rr(-7, 256, _ok(24, 1,
                    "a8e70bb80b80cd0f8cfb6f6cbdeb4b5fa8834a56a1d07b8192453ba271ef02b5")),
                _rr(-43, 256, _ok(24, 1,
                    "9495200085aa8d087c97e56c30335de87619d4fafd25632e96ab7495f8b42a9f")),
                _rr(-52, 320, _ok(24, 1,
                    "efab665531027e304ae0c181be619e17b65e07fb903f89c5538cffdb5b967f08")),
                _rr(-56, 256, _ok(32, 1,
                    "03c65fe3062007352865b0da7b72eefd4790744881c02317f2d90075c1b7d4eb")),
                _rr(-84, 256, _ok(32, 1,
                    "7c26d5b3da9fa3225a1b0debafe2e4b7b79726ff3aec758da88e2d02827a48d6")),
                _rr(-68, 320, _ok(48, 1,
                    "30fe8c2a1d85cc478f17f8144ba88dfa3296365c195f590ed1ab49f6f22e1b6a")),
            ),
            smoke=(_rr(-24, 256, _ok(16, 1,
                    "59eb02d402cf0854ff63ea4b5e8c3d08e8b8cf7f6a9fee6d8199b2c229db45cf")),),
        ),
        # The same polynomials (-52 is the golden one) from a Klein-form
        # quotient whose q-products run at 5*tau without argument reduction:
        # modfunc evaluation is most of the pass.
        Workload(
            name="klein-unreduced",
            jobs=(
                _rr(-52, 320, _ok(24, 1,
                    "efab665531027e304ae0c181be619e17b65e07fb903f89c5538cffdb5b967f08"), KLEIN),
                _rr(-43, 256, _ok(24, 1,
                    "9495200085aa8d087c97e56c30335de87619d4fafd25632e96ab7495f8b42a9f"), KLEIN),
                _rr(-40, 256, _ok(20, 1,
                    "12d09f5e5ca2ef635fdfb8d9eedd7bef30965031890ce6b5714e6d318e224a8d"), KLEIN),
            ),
            smoke=(_rr(-24, 128, _ok(16, 1,
                    "59eb02d402cf0854ff63ea4b5e8c3d08e8b8cf7f6a9fee6d8199b2c229db45cf"), KLEIN),),
        ),
        # j at levels 5 and 1: 18 precision escalations per pass, and
        # (-1351, 1) fails today with PoleError, so a fix shows as a higher
        # success share.
        Workload(
            name="j-escalate",
            jobs=(
                ComputeJob(-52, 5, "j", 256, _ok(24, 12,
                    "d2de4ff8f9c6ecf353531f24f2d1a765c5ccbdda7223ac3f97d5058fb904ddf1")),
                ComputeJob(-56, 5, "j", 256, _ok(32, 8,
                    "ab9ca0a415a65ae293c0861c3cf1ae0b30bf0fc4eff4eca1317e9a298d07955a")),
                ComputeJob(-20, 5, "j", 256, _ok(20, 10,
                    "fecd00cac43341d6af74589d5326581a590147765984772269069fddf1a90dbb")),
                ComputeJob(-391, 1, "j", 256, _ok(14, 1,
                    "153cda15a822cd2078fcf8cd1153edaa522e848b928b426615004c71f727a523")),
                ComputeJob(-191, 1, "j", 256, _ok(13, 1,
                    "ac816505d423f673e41b0040d099e49fac808ad42aa07d5cd897db9a6e671e16")),
                ComputeJob(-299, 1, "j", 256, _ok(8, 1,
                    "4411d3e5aff87417fe29d485761c8b69c73fa872ce788c76e45ed5e7dbd71a8c")),
                ComputeJob(-167, 1, "j", 256, _ok(11, 1,
                    "4d0c3913e3a089543148351f2c0bd4eb901114634c639c7e02671554cc7b5e3d")),
                ComputeJob(-151, 1, "j", 256, _ok(7, 1,
                    "1ab02bb4f91188b06df704f4277f6f9277f2b211ddf1f802a1f0b6075809aec9")),
                ComputeJob(-103, 1, "j", 256, _ok(5, 1,
                    "c6eaebfb96dc109eb445d5660b230c98f1a3b4a1492bcf83a7d8b9fd404324cb")),
                ComputeJob(-68, 1, "j", 256, _ok(4, 1,
                    "05ee9d6878dc236b95664901303953e2f090c19d1648b21ff45d27316fe713c7")),
                ComputeJob(-231, 1, "j", 256, _ok(12, 1,
                    "1e7d5434d154f89df03fff25acf17fee42ff5f08d9ef1dd3136294cdbd03a0f3")),
                ComputeJob(-1351, 1, "j", 256, Reference(failure="PoleError")),
            ),
            smoke=(ComputeJob(-20, 5, "j", 256, _ok(20, 10,
                    "fecd00cac43341d6af74589d5326581a590147765984772269069fddf1a90dbb")),),
        ),
        # The table subcommand: grid walk, coset enumeration and rendering of
        # 8-18 MB of text per job, with no evaluation.
        Workload(
            name="class-grid",
            jobs=(
                TableJob(-1351, 120, "text",
                         "d7a5419955386b126f5870ceeac6f5df862b81d1c85924e3f91b3d7f5304ecd3"),
                TableJob(-1351, 120, "json",
                         "1e943a4103be10e3e925c368047407fb0d3984b810284fb377047eb1c13618e1"),
                TableJob(-4079, 60, "text",
                         "2359e99b6b1867a3f060106e60ea588d6a4f90891beb06014e9450931dbb8d01"),
                TableJob(-4079, 60, "json",
                         "669fcc6c07e50dcb588f752db71ecb0c0ec4105dcca231f1200c2b2b890a2b0f"),
            ),
            smoke=(TableJob(-52, 5, "json",
                         "98bda92338f8bfb4385545256e29621a0c2090b86a75a647c28f048ae5b2740c"),),
        ),
    )
}


# ----------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------

def digest_ints(coeffs) -> str:
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def class_number(d: int) -> int:
    """Number of reduced primitive positive definite forms of discriminant d."""
    h = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(1 - a, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a or (b < 0 and a == c) or gcd(gcd(a, b), c) != 1:
                continue
            h += 1
        a += 1
    return h


def _prime_powers(n: int):
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
        p += 1
    if n > 1:
        yield n, 1


def _kronecker(d: int, p: int) -> int:
    if p == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    r = pow(d % p, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


def _is_fundamental(d: int) -> bool:
    if d % 4 == 1:
        m = -d
    elif d % 16 in (8, 12):
        m = -d // 4
    else:
        return False
    return all(e == 1 for _, e in _prime_powers(m))


def unit_quotient(d: int, n: int) -> int:
    """|(O/nO)^*| / |{+-1}| for the maximal order of discriminant d: the
    number of extended classes per reduced form at level n."""
    if not _is_fundamental(d):
        raise ValueError(f"oracle covers fundamental discriminants only, got {d}")
    if n == 1:
        return 1
    count = 1
    for p, e in _prime_powers(n):
        local = {1: (p - 1) ** 2, -1: p * p - 1, 0: p * (p - 1)}[_kronecker(d, p)]
        count *= local * p ** (2 * (e - 1))
    return count // (1 if n <= 2 else 2)


def coset_count(n: int) -> int:
    """Primitive vectors mod n up to sign: n^2 prod (1 - p^-2), halved above 2."""
    count = n * n
    for p, _ in _prime_powers(n):
        count = count // (p * p) * (p * p - 1)
    return count // (1 if n <= 2 else 2)


# ----------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output holds
# ----------------------------------------------------------------------

def check_compute(job: ComputeJob, result) -> list:
    """Check a `RunResult` against the job's reference and the oracles.

    Every success is held to the oracles and the certificates; a job that
    failed when the benchmark was defined and succeeds now counts only on
    those, and one that has a reference must also match its digest.
    """
    problems = []
    irr = tuple(result.irreducible.coeffs)
    poly = tuple(result.polynomial.coeffs)
    h = class_number(job.disc)
    classes = h * unit_quotient(job.disc, job.level)
    if result.class_count != classes:
        problems.append(f"class count {result.class_count} != h*units {classes}")
    if len(poly) - 1 not in (classes, 2 * classes):
        problems.append(f"degree {len(poly) - 1} is not {classes} or twice it")
    if (len(irr) - 1) * result.exponent != len(poly) - 1:
        problems.append("irreducible degree times exponent != degree")
    if result.irreducible ** result.exponent != result.polynomial or irr[-1] != 1:
        problems.append("polynomial is not a monic exact power of its factor")
    limit = mpf(2) ** -(result.precision_bits_used // 4)
    if not (result.max_rounding_residual < limit and result.value_residual < limit):
        problems.append("a residual is not below 2^-(bits/4)")
    if job.function == "j" and len(irr) - 1 != h:
        problems.append(f"j factor degree {len(irr) - 1} != h(D) = {h}")
    if job.function == "j" and job.disc in HILBERT_ASC and irr != HILBERT_ASC[job.disc]:
        problems.append("j factor differs from the Hilbert class polynomial")
    if job.function in (RR, KLEIN) and (job.disc, job.level) == (-52, 5):
        if irr != tuple(reversed(GOLDEN_MINUS_52_LEVEL_5_DESC)):
            problems.append("differs from the golden degree-24 polynomial")
    ref = job.ref
    if ref.digest:
        got = (len(poly) - 1, result.exponent, digest_ints(irr))
        if got != (ref.degree, ref.exponent, ref.digest):
            problems.append(f"(degree, exponent, digest) {got[:2]} differs from reference")
    return problems


_GRID_LINE = re.compile(r"^grid \((\d+) pairs, (\d+) pass the filter\):$", re.M)
_JSON_CLASS_COUNT = re.compile(r'"class_count": (\d+)')


def check_table(job: TableJob, text: str) -> list:
    """Check the printed table against the oracles and the stored digest.

    JSON output is scanned, not parsed: parsing 18 MB would add the
    checker's own object tree to the peak memory the run reports.
    """
    h = class_number(job.disc)
    want = (h * coset_count(job.level), h * unit_quotient(job.disc, job.level))
    problems = []
    if job.fmt == "json":
        match = _JSON_CLASS_COUNT.search(text)
        got = (text.count('"passes_filter"'), match and int(match.group(1)))
    else:
        match = _GRID_LINE.search(text)
        got = match and (int(match.group(1)), int(match.group(2)))
        forms = text.count("\n  i=")
        if forms != h:
            problems.append(f"{forms} reduced forms != h(D) = {h}")
    if got != want:
        problems.append(f"(pairs, classes) {got} != oracle {want}")
    if job.digest and digest_text(text) != job.digest:
        problems.append("output digest differs from reference")
    return problems
