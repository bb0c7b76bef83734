#include "linalg/rational.h"

#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

namespace riot {
namespace {

TEST(RationalTest, DefaultIsZero) {
  Rational r;
  EXPECT_TRUE(r.IsZero());
  EXPECT_TRUE(r.IsInteger());
  EXPECT_EQ(r.ToInt64(), 0);
}

TEST(RationalTest, NormalizationReduces) {
  Rational r(6, 8);
  EXPECT_EQ(r, Rational(3, 4));
  EXPECT_EQ(r.ToString(), "3/4");
}

TEST(RationalTest, NegativeDenominatorNormalizes) {
  Rational r(3, -4);
  EXPECT_TRUE(r.IsNegative());
  EXPECT_EQ(r, Rational(-3, 4));
}

TEST(RationalTest, Arithmetic) {
  Rational a(1, 2), b(1, 3);
  EXPECT_EQ(a + b, Rational(5, 6));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 6));
  EXPECT_EQ(a / b, Rational(3, 2));
  EXPECT_EQ(-a, Rational(-1, 2));
}

TEST(RationalTest, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_GE(Rational(7), Rational(7));
  EXPECT_NE(Rational(1, 3), Rational(1, 4));
}

TEST(RationalTest, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).Floor(), 3);
  EXPECT_EQ(Rational(7, 2).Ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).Floor(), -4);
  EXPECT_EQ(Rational(-7, 2).Ceil(), -3);
  EXPECT_EQ(Rational(4).Floor(), 4);
  EXPECT_EQ(Rational(4).Ceil(), 4);
  EXPECT_EQ(Rational(-4).Floor(), -4);
}

TEST(RationalTest, Abs) {
  EXPECT_EQ(Rational(-5, 3).Abs(), Rational(5, 3));
  EXPECT_EQ(Rational(5, 3).Abs(), Rational(5, 3));
}

TEST(RationalTest, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 4).ToDouble(), 0.25);
  EXPECT_DOUBLE_EQ(Rational(-3, 2).ToDouble(), -1.5);
}

// Property-style sweep: field axioms on a grid of small rationals.
class RationalPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RationalPropertyTest, FieldProperties) {
  auto [n, d] = GetParam();
  Rational a(n, d);
  Rational b(d, 7);
  Rational c(n - d, 5);
  // Commutativity / associativity / distributivity.
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  // Inverses.
  EXPECT_TRUE((a - a).IsZero());
  if (!a.IsZero()) EXPECT_EQ(a / a, Rational(1));
  // Floor/Ceil bracket the value.
  EXPECT_LE(Rational(a.Floor()), a);
  EXPECT_GE(Rational(a.Ceil()), a);
  EXPECT_LE((a - Rational(a.Floor())).ToDouble(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RationalPropertyTest,
    ::testing::Combine(::testing::Values(-17, -5, -1, 0, 3, 12, 40),
                       ::testing::Values(-9, -2, 1, 4, 15)));

TEST(RationalTest, LargeValuesNoOverflow) {
  Rational big(int64_t{1} << 40);
  Rational r = big * Rational(3, 7);
  EXPECT_EQ(r, Rational((int64_t{3} << 40), 7));
  EXPECT_EQ(r / big, Rational(3, 7));
}

// Integer fast path (both denominators 1): no gcd, still range-checked.
TEST(RationalFastPathTest, IntegerArithmeticNearRangeLimit) {
  const Rational half_limit(int64_t{2305843009213693952});  // 2^61
  const Rational max_value(int64_t{4611686018427387903});   // 2^62 - 1
  Rational sum = half_limit + Rational(int64_t{2305843009213693951});
  EXPECT_EQ(sum.ToString(), "4611686018427387903");
  EXPECT_TRUE(sum.IsInteger());
  Rational diff = max_value - Rational(int64_t{4611686018427387901});
  EXPECT_EQ(diff.ToString(), "2");
  Rational neg = Rational(int64_t{-4611686018427387903}) - Rational(0);
  EXPECT_EQ(neg.ToString(), "-4611686018427387903");
  // 2^31 * (2^30 + 1) = 2^61 + 2^31.
  Rational prod =
      Rational(int64_t{2147483648}) * Rational(int64_t{1073741825});
  EXPECT_EQ(prod.ToString(), "2305843011361177600");
  EXPECT_EQ((max_value * Rational(-1)).ToString(), "-4611686018427387903");
  EXPECT_TRUE((Rational(12345) - Rational(12345)).IsZero());
  EXPECT_TRUE(Rational(7) < Rational(8));
  EXPECT_FALSE(Rational(-3) < Rational(-3));
}

TEST(RationalFastPathTest, IntegerResultsStillRangeChecked) {
  const Rational half_limit(int64_t{2305843009213693952});  // 2^61
  EXPECT_DEATH(half_limit + half_limit, "overflow");
  EXPECT_DEATH(Rational(int64_t{-2305843009213693952}) - half_limit,
               "overflow");
  EXPECT_DEATH(Rational(int64_t{2147483648}) * Rational(int64_t{2147483648}),
               "overflow");
}

TEST(RationalFastPathTest, MixedIntegerAndFraction) {
  EXPECT_EQ((Rational(3) + Rational(1, 2)).ToString(), "7/2");
  EXPECT_EQ((Rational(1, 2) + Rational(3)).ToString(), "7/2");
  EXPECT_EQ((Rational(3) - Rational(1, 2)).ToString(), "5/2");
  EXPECT_EQ((Rational(1, 3) - Rational(2)).ToString(), "-5/3");
  EXPECT_EQ((Rational(4) * Rational(3, 8)).ToString(), "3/2");
  EXPECT_EQ((Rational(1, 2) * Rational(6)).ToString(), "3");
  EXPECT_EQ((Rational(5, 3) + Rational(1, 3)).ToString(), "2");
  EXPECT_TRUE((Rational(5, 3) + Rational(1, 3)).IsInteger());
  EXPECT_EQ((Rational(6) / Rational(4)).ToString(), "3/2");
  EXPECT_TRUE(Rational(5, 2) < Rational(3));
  EXPECT_TRUE(Rational(-3) < Rational(-5, 2));
}

TEST(RationalFastPathTest, NegativeIntegerTimesFractionReducesToInteger) {
  Rational r = Rational(-6) * Rational(5, 3);
  EXPECT_TRUE(r.IsInteger());
  EXPECT_EQ(r.ToInt64(), -10);
  EXPECT_EQ(r.ToString(), "-10");
  Rational s = Rational(-4) * Rational(-3, 4);
  EXPECT_TRUE(s.IsInteger());
  EXPECT_EQ(s.ToInt64(), 3);
  EXPECT_EQ((Rational(-9) * Rational(2, 3)).ToString(), "-6");
}

// Reduction through the gcd's 64-bit path (both operands fit in int64_t)
// and its 128-bit path (an operand above INT64_MAX).
TEST(RationalFastPathTest, GcdOnEachSideOfInt64Max) {
  const int128 int64_max = INT64_MAX;  // 2^63 - 1, a multiple of 7
  // Both fit: gcd(2^63 - 1, (2^63 - 1) / 7) = (2^63 - 1) / 7.
  Rational a = Rational::FromInt128(int64_max, int64_max / 7);
  EXPECT_EQ(a.ToString(), "7");
  // Both fit: (2^63 - 2) / (2^62 - 1) = 2.
  Rational b = Rational::FromInt128(int64_max - 1, int64_max / 2);
  EXPECT_EQ(b.ToString(), "2");
  // Numerator just above INT64_MAX: 2^63 / 2^62 = 2.
  Rational c =
      Rational::FromInt128(int64_max + 1, int128{4611686018427387904});
  EXPECT_EQ(c.ToString(), "2");
  // Both above INT64_MAX: 3 * (2^63 + 1) / (2^63 + 1) = 3, and
  // 3 * 2^64 / 2^65 = 3/2.
  Rational d = Rational::FromInt128(3 * (int64_max + 2), int64_max + 2);
  EXPECT_EQ(d.ToString(), "3");
  Rational e = Rational::FromInt128(int128{3} << 64, int128{1} << 65);
  EXPECT_EQ(e.ToString(), "3/2");
  // Mixed: 5 * 2^62 / 10 = 2^61, and the negative sign survives.
  Rational f = Rational::FromInt128(int128{5} << 62, 10);
  EXPECT_EQ(f.ToString(), "2305843009213693952");
  Rational g = Rational::FromInt128(-(int128{5} << 62), 10);
  EXPECT_EQ(g.ToString(), "-2305843009213693952");
}

// The arithmetic every operation used to do, as the oracle for Knuth's
// gcd-minimal add and multiply and the binary gcd: form the unreduced
// result in 128 bits, then divide out a Euclid gcd.
int128 EuclidGcd(int128 a, int128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

using Pair = std::pair<int128, int128>;  // (num, den), den > 0, reduced

Pair Reduce(int128 n, int128 d) {
  if (d < 0) {
    n = -n;
    d = -d;
  }
  if (n == 0) return {0, 1};
  const int128 g = EuclidGcd(n, d);
  return {n / g, d / g};
}

Pair Of(const Rational& r) { return {r.num(), r.den()}; }
Pair RefAdd(const Rational& x, const Rational& y) {
  return Reduce(x.num() * y.den() + y.num() * x.den(), x.den() * y.den());
}
Pair RefSub(const Rational& x, const Rational& y) {
  return Reduce(x.num() * y.den() - y.num() * x.den(), x.den() * y.den());
}
Pair RefMul(const Rational& x, const Rational& y) {
  return Reduce(x.num() * y.num(), x.den() * y.den());
}
Pair RefDiv(const Rational& x, const Rational& y) {
  return Reduce(x.num() * y.den(), x.den() * y.num());
}
bool InRange(const Pair& p) {
  const int128 limit = int128{1} << 62;
  return p.first < limit && p.first > -limit && p.second < limit;
}

// Operands from every regime the simplex meets: integers, fractions over
// coprime and over shared denominators (including equal ones), and
// numerators or denominators near the 2^62 range limit.
std::vector<Rational> Operands(uint32_t seed) {
  std::mt19937_64 rng(seed);
  auto below = [&rng](int64_t n) {
    return static_cast<int64_t>(rng() % static_cast<uint64_t>(n));
  };
  const int64_t near_limit = (int64_t{1} << 62) - 1;
  std::vector<Rational> v = {Rational(0), Rational(1), Rational(-1),
                             Rational(near_limit),
                             Rational(-near_limit, 3),
                             Rational(1, near_limit),
                             Rational(near_limit - 2, near_limit)};
  const int64_t shared[] = {2, 3, 4, 6, 12, 30, 60, 210};
  for (int i = 0; i < 60; ++i) {
    const int64_t num = below(41) - 20;
    switch (i % 5) {
      case 0: v.emplace_back(num); break;
      case 1: v.emplace_back(num, 1 + below(19)); break;
      case 2: v.emplace_back(num, shared[below(8)]); break;
      case 3:  // large coprime-ish denominators
        v.emplace_back(num, (int64_t{1} << (20 + below(21))) + below(97));
        break;
      default:  // a numerator near the limit over a small denominator
        v.emplace_back((below(2) == 0 ? 1 : -1) * (near_limit - below(1000)),
                       1 + below(7));
        break;
    }
  }
  return v;
}

class RationalKnuthTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RationalKnuthTest, MatchesNormalizeEverythingArithmetic) {
  const std::vector<Rational> ops = Operands(GetParam());
  int compared = 0, zero_results = 0;
  for (const Rational& x : ops) {
    for (const Rational& y : ops) {
      // Only in-range results: an out-of-range one aborts (death test
      // below), exactly as it did before.
      const Pair sum = RefAdd(x, y);
      if (InRange(sum)) {
        ASSERT_EQ(Of(x + y), sum) << x << " + " << y;
        zero_results += sum.first == 0;
        ++compared;
      }
      const Pair diff = RefSub(x, y);
      if (InRange(diff)) {
        ASSERT_EQ(Of(x - y), diff) << x << " - " << y;
        zero_results += diff.first == 0;
      }
      const Pair prod = RefMul(x, y);
      if (InRange(prod)) {
        ASSERT_EQ(Of(x * y), prod) << x << " * " << y;
        zero_results += prod.first == 0;
      }
      if (!y.IsZero()) {
        const Pair quot = RefDiv(x, y);
        if (InRange(quot)) {
          ASSERT_EQ(Of(x / y), quot) << x << " / " << y;
        }
      }
    }
    ASSERT_EQ(Of(-x), Reduce(-x.num(), x.den())) << "-" << x;
    ASSERT_EQ(Of(-(-x)), Of(x));
  }
  EXPECT_GT(compared, 1500);
  EXPECT_GT(zero_results, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalKnuthTest, ::testing::Range(1u, 9u));

// The binary gcd behind every reduction (FromInt128 normalizes with it)
// against Euclid: odd and even common factors, powers of two, zero
// numerators, signs, and operands above INT64_MAX that take the 128-bit
// Euclid steps first.
TEST(RationalGcdTest, BinaryGcdMatchesEuclid) {
  std::mt19937_64 rng(62);
  for (int i = 0; i < 20000; ++i) {
    const int128 a = static_cast<int128>(rng() % (uint64_t{1} << 40));
    const int128 b = 1 + static_cast<int128>(rng() % (uint64_t{1} << 40));
    int128 g;
    switch (i % 4) {
      case 0: g = 1; break;
      case 1: g = int128{1} << (rng() % 22); break;
      case 2: g = 1 + static_cast<int128>(rng() % (uint64_t{1} << 22)); break;
      default:  // lifts both operands above INT64_MAX
        g = (int128{1} << 60) + static_cast<int128>(rng() % 1000);
        break;
    }
    const int128 n = (i % 3 == 0 ? -1 : 1) * a * g;
    const int128 d = (i % 5 == 0 ? -1 : 1) * b * g;
    ASSERT_EQ(Of(Rational::FromInt128(n, d)), Reduce(n, d)) << i;
  }
}

TEST(RationalGcdTest, ResultsNearTheRangeLimit) {
  const int64_t max_value = (int64_t{1} << 62) - 1;  // divisible by 3
  // Equal denominators: the sum's gcd comes from gcd(t, d) alone.
  EXPECT_EQ((Rational(max_value - 1, 3) + Rational(1, 3)).ToString(),
            Rational(max_value, 3).ToString());
  // Coprime denominators whose product is just below the limit.
  const int64_t p = (int64_t{1} << 31) - 1, q = (int64_t{1} << 31) + 1;
  EXPECT_EQ((Rational(1, p) + Rational(1, q)).ToString(),
            Rational(2 * (int64_t{1} << 31), p * q).ToString());
  // A cross-reduced product of large factors lands back on an integer.
  EXPECT_EQ((Rational(max_value, 7) * Rational(7, max_value)).ToString(), "1");
  EXPECT_EQ((Rational(-max_value) / Rational(max_value, 5)).ToString(), "-5");
}

// Fractions whose exact sum, difference or product leaves the range still
// abort, as before the gcd-lean arithmetic.
TEST(RationalGcdTest, FractionOverflowStillAborts) {
  const Rational big = Rational::FromInt128((int128{1} << 62) - 1, 5);
  EXPECT_DEATH(big + big, "overflow");
  EXPECT_DEATH(big * Rational(2), "overflow");
  EXPECT_DEATH(-big - big, "overflow");
  const int64_t two31 = int64_t{1} << 31;
  EXPECT_DEATH(Rational(1, two31) * Rational(1, two31), "overflow");
  EXPECT_DEATH(Rational(1, two31) + Rational(1, two31 + 1), "overflow");
  EXPECT_DEATH(Rational(2, 3) / Rational(1, int64_t{1} << 61), "overflow");
}

}  // namespace
}  // namespace riot
