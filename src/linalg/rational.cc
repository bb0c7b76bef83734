#include "linalg/rational.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace riot {

namespace {
// Bound chosen so that products of two in-range values stay within __int128.
const int128 kRangeLimit = (int128(1) << 62);

std::string Int128ToString(int128 v) {
  if (v == 0) return "0";
  bool neg = v < 0;
  // Careful with INT128_MIN; our range checks keep us far from it.
  if (neg) v = -v;
  std::string s;
  while (v > 0) {
    s.push_back(static_cast<char>('0' + static_cast<int>(v % 10)));
    v /= 10;
  }
  if (neg) s.push_back('-');
  std::reverse(s.begin(), s.end());
  return s;
}

// a / g for a divisor g > 0 of a, on the hardware 64-bit divide when both
// fit (the 128-bit one is a software routine).
int128 DivExact(int128 a, int128 g) {
  if (g == 1) return a;
  if (a >= INT64_MIN && a <= INT64_MAX && g <= INT64_MAX) {
    return static_cast<int64_t>(a) / static_cast<int64_t>(g);
  }
  return a / g;
}
}  // namespace

void Rational::CheckRange(int128 v) {
  RIOT_CHECK(v < kRangeLimit && v > -kRangeLimit)
      << "rational overflow; value magnitude exceeds 2^62";
}

int128 Rational::Gcd(int128 a, int128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  // Euclid in 128 bits only while an operand exceeds 64 bits: one step
  // leaves a remainder below the smaller operand, and the rest runs on the
  // hardware 64-bit remainder instead of the software 128-bit one.
  while (b != 0 && (a > INT64_MAX || b > INT64_MAX)) {
    int128 t = a % b;
    a = b;
    b = t;
  }
  if (b == 0) return a;
  uint64_t x = static_cast<uint64_t>(a);
  uint64_t y = static_cast<uint64_t>(b);
  while (y != 0) {
    uint64_t t = x % y;
    x = y;
    y = t;
  }
  return x;
}

void Rational::Normalize() {
  RIOT_CHECK(den_ != 0) << "zero denominator";
  if (den_ == 1) {
    CheckRange(num_);
    return;
  }
  if (den_ < 0) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_ == 0) {
    den_ = 1;
    return;
  }
  int128 g = Gcd(num_, den_);
  num_ = DivExact(num_, g);
  den_ = DivExact(den_, g);
  CheckRange(num_);
  CheckRange(den_);
}

int64_t Rational::Floor() const {
  int128 q = num_ / den_;
  if (num_ % den_ != 0 && num_ < 0) q -= 1;
  return static_cast<int64_t>(q);
}

int64_t Rational::Ceil() const {
  int128 q = num_ / den_;
  if (num_ % den_ != 0 && num_ > 0) q += 1;
  return static_cast<int64_t>(q);
}

Rational Rational::FromInteger(int128 n) {
  CheckRange(n);
  Rational r;
  r.num_ = n;
  return r;
}

Rational Rational::operator+(const Rational& o) const {
  if (den_ == 1 && o.den_ == 1) return FromInteger(num_ + o.num_);
  // Reduce cross terms first to limit growth.
  int128 g = Gcd(den_, o.den_);
  int128 lcm_part = DivExact(o.den_, g);
  return FromInt128(num_ * lcm_part + o.num_ * DivExact(den_, g),
                    den_ * lcm_part);
}

Rational Rational::operator-(const Rational& o) const {
  if (den_ == 1 && o.den_ == 1) return FromInteger(num_ - o.num_);
  return *this + (-o);
}

Rational Rational::operator*(const Rational& o) const {
  if (den_ == 1 && o.den_ == 1) return FromInteger(num_ * o.num_);
  int128 g1 = Gcd(num_, o.den_);
  int128 g2 = Gcd(o.num_, den_);
  return FromInt128(DivExact(num_, g1) * DivExact(o.num_, g2),
                    DivExact(den_, g2) * DivExact(o.den_, g1));
}

Rational Rational::operator/(const Rational& o) const {
  RIOT_CHECK(!o.IsZero()) << "division by zero";
  return *this * FromInt128(o.den_, o.num_);
}

bool Rational::operator<(const Rational& o) const {
  if (den_ == 1 && o.den_ == 1) return num_ < o.num_;
  // num_/den_ < o.num_/o.den_  <=>  num_*o.den_ < o.num_*den_ (dens > 0).
  return num_ * o.den_ < o.num_ * den_;
}

std::string Rational::ToString() const {
  if (den_ == 1) return Int128ToString(num_);
  return Int128ToString(num_) + "/" + Int128ToString(den_);
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.ToString();
}

}  // namespace riot
