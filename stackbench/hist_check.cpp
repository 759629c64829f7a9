// Unit check of the span histogram's percentiles (workload.hpp), run by
// selfcheck.py. Exits nonzero and names the case on a mismatch.

#include <cmath>
#include <cstdio>

#include "workload.hpp"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want, double tol) {
  if (std::fabs(got - want) > tol) {
    std::fprintf(stderr, "hist_check: %s: got %.4f want %.4f\n", what, got,
                 want);
    ++failures;
  }
}

}  // namespace

int main() {
  stackbench::Hist empty;
  expect_near("empty median", empty.pct(0.5), 0.0, 0.0);

  // 1..1000 ns, one sample each: exact buckets, interpolated ranks.
  stackbench::Hist h;
  for (int v = 1; v <= 1000; ++v) h.add(static_cast<std::uint64_t>(v));
  expect_near("uniform count", static_cast<double>(h.count()), 1000, 0);
  expect_near("uniform median", h.pct(0.5), 500.5, 1.0);
  expect_near("uniform p99", h.pct(0.99), 990.0, 1.5);
  expect_near("uniform min", h.pct(0.0), 1.0, 1.0);

  // A constant lands inside its own bucket at every quantile.
  stackbench::Hist c;
  for (int i = 0; i < 100; ++i) c.add(42);
  expect_near("constant p50", c.pct(0.5), 42.0, 1.0);
  expect_near("constant p99", c.pct(0.99), 42.0, 1.0);

  // Log buckets: relative error stays within one bucket (1/32).
  stackbench::Hist big;
  for (int i = 0; i < 99; ++i) big.add(100000);
  big.add(5000000);
  expect_near("log-bucket median", big.pct(0.5), 100000, 100000 / 32.0);
  expect_near("log-bucket max", big.pct(1.0), 5000000, 5000000 / 32.0);

  // Merging equals adding everything to one histogram.
  stackbench::Hist a, b, ab;
  for (int v = 0; v < 5000; v += 7) {
    a.add(v);
    ab.add(v);
  }
  for (int v = 3; v < 9000; v += 11) {
    b.add(v);
    ab.add(v);
  }
  a.merge(b);
  expect_near("merge median", a.pct(0.5), ab.pct(0.5), 0.0);
  expect_near("merge p99", a.pct(0.99), ab.pct(0.99), 0.0);

  if (failures == 0) std::puts("hist_check: ok");
  return failures == 0 ? 0 : 1;
}
