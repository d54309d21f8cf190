import pytest

from condfix.minilang import parse_program
from condfix.testkit import parse_suite

# Buggy gcd: the product comparison overflows for large operands.
GCD_BUGGY = """\
fn gcd(u: int, v: int) -> int {
  if (u * v == 0) {
    return absInt(u) + absInt(v);
  }
  let a: int = absInt(u);
  let b: int = absInt(v);
  while (b != 0) {
    let t: int = b;
    b = a % b;
    a = t;
  }
  return a;
}

fn absInt(x: int) -> int {
  if (x < 0) {
    return 0 - x;
  }
  return x;
}
"""

GCD_SUITE = """\
zero_u: gcd(0, 6) -> 6
coprime: gcd(3, 5) -> 1
overflow: gcd(4294967296, 4294967296) -> 4294967296
"""

# Parity: the condition needs x % 2, which no component offers, so no rung
# of the ladder can repair it.
EVEN_BUGGY = """\
fn even(x: int) -> bool {
  if (x < 0) {
    return true;
  }
  return false;
}
"""

EVEN_SUITE = "".join(
    f"t{i}: even({x}) -> {'true' if x % 2 == 0 else 'false'}\n"
    for i, x in enumerate(range(-5, 6))
)

# h(n) should return n. When k reaches 3 (while s < 4) the body undoes its
# increment once, so h returns n + 1 for n > 3. Forcing the condition true
# loops until the step budget, so each forced run takes a million steps.
H_BUGGY = """\
fn h(n: int) -> int {
  let k: int = 0;
  let s: int = 0;
  while (k < n) {
    if (k == 3 && s < 4) {
      k = k - 1;
    }
    k = k + 1;
    s = s + 1;
  }
  return s;
}
"""

H_SUITE = "".join(f"t{n}: h({n}) -> {n}\n" for n in range(40))

# MiniLang type-checks parameters only, so a let or a constant may bind a
# value of another type. Each program binds one name so and should read
# ``if (0 < x)`` at location 2. By name: (program, suite, the trace columns
# at location 2 once the mistyped name's are dropped).
MISTYPED = {
    "str-holds-int": (
        "fn f(x: int) -> int { let s: Str = x; if (x < 0) { return 1; } return 0; }\n",
        "t1: f(5) -> 1\nt2: f(-3) -> 0\nt3: f(7) -> 1\nt4: f(-8) -> 0\n",
        ["x", "0", "-1", "1"],
    ),
    "int-holds-str": (
        "fn f(s: Str, x: int) -> int { let n: int = s; if (x < 0) { return 1; } return 0; }\n",
        't1: f(Str("a"), 5) -> 1\nt2: f(Str("b"), -3) -> 0\n'
        't3: f(Str(""), 7) -> 1\nt4: f(Str("d"), -8) -> 0\n',
        ["x", "0", "-1", "1", "s == null", "s.isEmpty()", "s.length()"],
    ),
    "str-const-holds-int": (
        "const K: Str = 1;\n"
        "fn f(x: int) -> int { let y: int = x; if (x < 0) { return 1; } return 0; }\n",
        "t1: f(5) -> 1\nt2: f(-3) -> 0\nt3: f(7) -> 1\nt4: f(-8) -> 0\n",
        ["x", "y", "0", "-1", "1"],
    ),
}

# A state query on a record of a class that has none: s is declared Str
# but holds a Foo, so s.length() throws TypeMismatch at run time.
FOREIGN_QUERY = (
    "fn f(a: Foo, n: int) -> int {\n"
    "  let s: Str = a;\n"
    "  if (n > 0) { return s.length(); }\n"
    "  return 0;\n"
    "}\n",
    'zero: f(Foo("x"), 0) -> 1\none: f(Foo("x"), 1) -> 1\n',
)

# A call used as a statement (location 4) and an else-if chain (the if at
# 7 is the whole else block of the if at 5); sign throws TooBig for x > 2.
CALLS = """\
fn check(x: int) -> bool {
  if (x > 2) {
    throw TooBig;
  }
  return true;
}

fn sign(x: int) -> int {
  check(x);
  if (x < 0) {
    return -1;
  } else if (x == 0) {
    return 0;
  }
  return 1;
}
"""

PROBE_FIXTURE = """\
fn peek(n: int, s: Str) -> int {
  let doubled: int = n + n;
  return doubled;
}
"""


@pytest.fixture
def gcd_program():
    return parse_program(GCD_BUGGY)


@pytest.fixture
def gcd_suite():
    return parse_suite(GCD_SUITE)


@pytest.fixture
def probe_program():
    return parse_program(PROBE_FIXTURE)


@pytest.fixture
def even_program():
    return parse_program(EVEN_BUGGY)


@pytest.fixture
def even_suite():
    return parse_suite(EVEN_SUITE)


@pytest.fixture
def h_program():
    return parse_program(H_BUGGY)


@pytest.fixture
def h_suite():
    return parse_suite(H_SUITE)
