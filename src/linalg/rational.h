// Exact rational arithmetic on 128-bit integers.
//
// The optimizer manipulates polyhedra and simplex tableaux whose entries must
// be exact; floating point would silently corrupt emptiness tests and
// schedule legality. Numerators/denominators are kept reduced; overflow of
// the 2^62 range aborts (it indicates a modeling bug, not a data-size
// issue, since all quantities here are schedule coefficients and small loop
// bounds).
//
// The exact simplex spends most of its time here, so each operation does
// only the gcds its result needs. Integer operands (den 1) take an inline
// path with no gcd at all. Fractions use Knuth's gcd-minimal algorithms
// (TAOCP vol. 2, 4.5.1): a product of cross-reduced factors is already
// reduced, and a sum needs one gcd of its numerator with gcd(b, d). Unary
// minus and reciprocals never need one. Every result is the same canonical
// pair a full normalization would give.
#ifndef RIOTSHARE_LINALG_RATIONAL_H_
#define RIOTSHARE_LINALG_RATIONAL_H_

#include <cstdint>
#include <iosfwd>
#include <numeric>
#include <string>

#include "util/logging.h"

namespace riot {

using int128 = __int128;

/// \brief An exact rational number num/den with den > 0, always reduced.
class Rational {
 public:
  Rational() : num_(0), den_(1) {}
  Rational(int64_t n) : num_(n), den_(1) {}  // NOLINT implicit
  Rational(int64_t n, int64_t d) : num_(n), den_(d) { Normalize(); }

  static Rational FromInt128(int128 n, int128 d) {
    Rational r;
    r.num_ = n;
    r.den_ = d;
    r.Normalize();
    return r;
  }

  int128 num() const { return num_; }
  int128 den() const { return den_; }

  bool IsZero() const { return num_ == 0; }
  bool IsInteger() const { return den_ == 1; }
  bool IsNegative() const { return num_ < 0; }
  bool IsPositive() const { return num_ > 0; }

  /// Integer value; requires IsInteger().
  int64_t ToInt64() const {
    RIOT_CHECK(den_ == 1) << "not an integer: " << ToString();
    RIOT_CHECK(num_ <= INT64_MAX && num_ >= INT64_MIN);
    return static_cast<int64_t>(num_);
  }

  double ToDouble() const {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }

  /// Largest integer <= this.
  int64_t Floor() const;
  /// Smallest integer >= this.
  int64_t Ceil() const;

  /// Negation keeps a reduced pair reduced.
  Rational operator-() const {
    Rational r;
    r.num_ = -num_;
    r.den_ = den_;
    return r;
  }
  Rational operator+(const Rational& o) const {
    if (den_ == 1 && o.den_ == 1) return FromInteger(num_ + o.num_);
    return Add(num_, den_, o.num_, o.den_);
  }
  Rational operator-(const Rational& o) const {
    if (den_ == 1 && o.den_ == 1) return FromInteger(num_ - o.num_);
    return Add(num_, den_, -o.num_, o.den_);
  }
  Rational operator*(const Rational& o) const {
    if (den_ == 1 && o.den_ == 1) return FromInteger(num_ * o.num_);
    return Mul(num_, den_, o.num_, o.den_);
  }
  Rational operator/(const Rational& o) const;
  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  bool operator==(const Rational& o) const {
    return num_ == o.num_ && den_ == o.den_;
  }
  bool operator!=(const Rational& o) const { return !(*this == o); }
  bool operator<(const Rational& o) const;
  bool operator<=(const Rational& o) const { return !(o < *this); }
  bool operator>(const Rational& o) const { return o < *this; }
  bool operator>=(const Rational& o) const { return !(*this < o); }

  Rational Abs() const { return num_ < 0 ? -*this : *this; }

  std::string ToString() const;

 private:
  // Bound chosen so that products of two in-range values stay within
  // __int128.
  static constexpr int128 kRangeLimit = int128(1) << 62;

  void Normalize();
  /// Integer-valued result (den 1): range-checked, no gcd needed.
  static Rational FromInteger(int128 n) {
    CheckRange(n);
    Rational r;
    r.num_ = n;
    return r;
  }
  /// a/b + c/d and (a/b) * (c/d) for reduced operands with b, d > 0.
  static Rational Add(int128 a, int128 b, int128 c, int128 d);
  static Rational Mul(int128 a, int128 b, int128 c, int128 d);
  static int128 Gcd(int128 a, int128 b);
  static void CheckRange(int128 v) {
    if (v >= kRangeLimit || v <= -kRangeLimit) RangeOverflow(v);
  }
  [[noreturn]] static void RangeOverflow(int128 v);

  int128 num_;
  int128 den_;  // > 0
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

}  // namespace riot

#endif  // RIOTSHARE_LINALG_RATIONAL_H_
