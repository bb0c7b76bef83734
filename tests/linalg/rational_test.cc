#include "linalg/rational.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace riot
