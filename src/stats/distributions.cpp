#include "stats/distributions.hpp"

#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace wehey::stats {
namespace {

constexpr double kSqrt2 = 1.41421356237309504880;

// std::lgamma stores the sign of Γ(x) in the global `signgam`, a data race
// when trials run concurrently. lgamma_r is the same glibc routine with the
// sign returned through an out-parameter, so values are bit-identical.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

// Continued-fraction part of the incomplete beta function (Numerical
// Recipes-style modified Lentz algorithm).
double beta_cf(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-14;
  constexpr double kFpMin = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double normal_cdf(double x) { return 0.5 * std::erfc(-x / kSqrt2); }

double normal_sf(double x) { return 0.5 * std::erfc(x / kSqrt2); }

double normal_quantile(double p) {
  WEHEY_EXPECTS(p > 0.0 && p < 1.0);
  // Peter Acklam's rational approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;
  double q, r;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > p_high) {
    q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  q = p - 0.5;
  r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double incomplete_beta(double a, double b, double x) {
  WEHEY_EXPECTS(a > 0.0 && b > 0.0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_beta =
      log_gamma(a + b) - log_gamma(a) - log_gamma(b);
  const double front =
      std::exp(ln_beta + a * std::log(x) + b * std::log(1.0 - x));
  // Use the continued fraction directly when it converges fast, i.e. when
  // x < (a+1)/(a+b+2); otherwise use the symmetry relation.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cf(a, b, x) / a;
  }
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

double student_t_cdf(double t, double df) {
  WEHEY_EXPECTS(df > 0.0);
  if (std::isinf(t)) return t > 0 ? 1.0 : 0.0;
  const double x = df / (df + t * t);
  const double tail = 0.5 * incomplete_beta(df / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

double student_t_two_sided_p(double t, double df) {
  const double x = df / (df + t * t);
  return incomplete_beta(df / 2.0, 0.5, x);
}

double kolmogorov_sf(double lambda) {
  if (lambda <= 0.0) return 1.0;
  double sum = 0.0;
  double sign = 1.0;
  for (int j = 1; j <= 101; ++j) {
    const double term = std::exp(-2.0 * j * j * lambda * lambda);
    sum += sign * term;
    if (term < 1e-12 * std::fabs(sum) || term == 0.0) break;
    sign = -sign;
  }
  const double p = 2.0 * sum;
  if (p < 0.0) return 0.0;
  if (p > 1.0) return 1.0;
  return p;
}

}  // namespace wehey::stats
