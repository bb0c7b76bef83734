#include "linalg/rational.h"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <utility>

namespace riot {

namespace {

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

void Rational::RangeOverflow(int128 v) {
  RIOT_CHECK(false) << "rational overflow; value magnitude exceeds 2^62: "
                    << Int128ToString(v);
  std::abort();  // unreachable: a failed RIOT_CHECK aborts
}

int128 Rational::Gcd(int128 a, int128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  // Euclid in 128 bits only while an operand exceeds 64 bits: one step
  // leaves a remainder below the smaller operand, and the rest runs in
  // 64 bits instead of on the software 128-bit remainder.
  while (b != 0 && (a > INT64_MAX || b > INT64_MAX)) {
    int128 t = a % b;
    a = b;
    b = t;
  }
  if (a == 0) return b;
  if (b == 0) return a;
  // Binary (Stein) gcd: shifts and subtractions instead of divisions.
  uint64_t x = static_cast<uint64_t>(a);
  uint64_t y = static_cast<uint64_t>(b);
  const int shift = __builtin_ctzll(x | y);
  x >>= __builtin_ctzll(x);
  do {
    y >>= __builtin_ctzll(y);
    if (x > y) std::swap(x, y);
    y -= x;
  } while (y != 0);
  return static_cast<int128>(x << shift);
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

Rational Rational::Add(int128 a, int128 b, int128 c, int128 d) {
  Rational r;
  const int128 d1 = (b == 1 || d == 1) ? 1 : Gcd(b, d);
  if (d1 == 1) {
    // Coprime denominators: a*d + b*c shares no factor with b*d.
    r.num_ = a * d + b * c;
    r.den_ = b * d;
  } else {
    // Any common factor of t and b*d/d1 divides d1 (Knuth 4.5.1). A zero
    // sum has b == d == d1, so it comes out as 0/1.
    const int128 t = a * DivExact(d, d1) + c * DivExact(b, d1);
    const int128 d2 = Gcd(t, d1);
    r.num_ = DivExact(t, d2);
    r.den_ = DivExact(b, d1) * DivExact(d, d2);
  }
  CheckRange(r.num_);
  CheckRange(r.den_);
  return r;
}

Rational Rational::Mul(int128 a, int128 b, int128 c, int128 d) {
  Rational r;
  if (a == 0 || c == 0) return r;
  // Cross-reduce: a/g1 and c/g2 share no factor with b/g2 and d/g1, so
  // the product is already reduced.
  const int128 g1 = d == 1 ? 1 : Gcd(a, d);
  const int128 g2 = b == 1 ? 1 : Gcd(c, b);
  r.num_ = DivExact(a, g1) * DivExact(c, g2);
  r.den_ = DivExact(b, g2) * DivExact(d, g1);
  CheckRange(r.num_);
  CheckRange(r.den_);
  return r;
}

Rational Rational::operator/(const Rational& o) const {
  RIOT_CHECK(!o.IsZero()) << "division by zero";
  // The reciprocal of a reduced pair is reduced; only its sign moves.
  const int128 rn = o.num_ < 0 ? -o.den_ : o.den_;
  const int128 rd = o.num_ < 0 ? -o.num_ : o.num_;
  if (den_ == 1 && rd == 1) return FromInteger(num_ * rn);
  return Mul(num_, den_, rn, rd);
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
