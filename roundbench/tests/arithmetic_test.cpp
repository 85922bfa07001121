// Self-test of the benchmark's own arithmetic: percentiles and their tail
// rule, span union and share over overlapping spans recorded from 4
// threads, and self time under nested spans. Exits 1 on the first failure.
//
//   ./.bench_build/roundbench/roundbench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "spans.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (ok) return;
  std::printf("FAIL: %s\n", what);
  ++failures;
}

bool near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

using namespace roundbench;

void test_percentiles() {
  check(near(median({3.0, 1.0, 2.0}), 2.0), "odd median");
  check(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median");
  check(near(percentile({5.0}, 0.9), 5.0), "single-sample percentile");
  // 1..11: position 0.9 * 10 = 9 -> the 10th value.
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(i);
  check(near(percentile(v, 0.9), 10.0), "p90 on a rank");
  check(near(percentile(v, 0.0), 1.0), "p0 is the minimum");
  check(near(percentile(v, 1.0), 11.0), "p100 is the maximum");
  // 1..10: position 0.9 * 9 = 8.1 -> 9 + 0.1 * (10 - 9).
  v.pop_back();
  check(near(percentile(v, 0.9), 9.1), "p90 interpolates");
  bool threw = false;
  try {
    percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "empty sample throws");
  check(percentile_has_tail(100, 0.9), "p90 of 100 has 10 beyond");
  check(percentile_has_tail(99, 0.9), "p90 of 99 has 10 above rank 88.2");
  check(!percentile_has_tail(90, 0.9), "p90 of 90 has 9 above rank 80.1");
  check(percentile_has_tail(200, 0.95), "p95 of 200 has 10 beyond");
  check(!percentile_has_tail(0, 0.5), "no tail in an empty sample");
}

void test_union_and_share() {
  // Disjoint, nested, touching and window-clipped intervals.
  check(near(union_length({{0, 1}, {2, 3}}, {0, 10}), 2.0), "disjoint union");
  check(near(union_length({{0, 4}, {1, 2}}, {0, 10}), 4.0), "nested union");
  check(near(union_length({{0, 1}, {1, 2}}, {0, 10}), 2.0), "touching union");
  check(near(union_length({{-1, 2}, {9, 12}}, {0, 10}), 3.0), "clipped union");
  check(near(union_length({}, {0, 10}), 0.0), "empty union");

  // 4 threads each record 3 spans of one layer into a shared recorder:
  // thread t covers [t, t + 2), [10 + t/4, 11 + t/4) and [20, 21). The
  // union is [0, 5) + [10, 11.75) + [20, 21) = 7.75 s of a 25 s window.
  SpanRecorder recorder(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&recorder, t] {
      recorder.record(Layer::kEncode, t, t + 2.0, recorder.open());
      recorder.record(Layer::kEncode, 10.0 + 0.25 * t, 11.0 + 0.25 * t,
                      recorder.open());
      recorder.record(Layer::kEncode, 20.0, 21.0, recorder.open());
    });
  for (std::thread& th : threads) th.join();
  const std::vector<Span> spans = recorder.spans();
  check(spans.size() == 12, "12 spans recorded from 4 threads");
  const Interval window{0.0, 25.0};
  check(near(busy_seconds(spans, Layer::kEncode, window), 4 * 4.0),
        "busy sums overlapping spans");
  check(near(layer_share(spans, Layer::kEncode, window), 7.75 / 25.0),
        "share counts overlap once");
  check(near(layer_share(spans, Layer::kDecode, window), 0.0),
        "share of an absent layer");
  check(near(uncovered_seconds(spans, window), 25.0 - 7.75), "uncovered time");
  // A span belongs to the window its start lies in.
  check(near(busy_seconds(spans, Layer::kEncode, {10.0, 30.0}), 4 * 2.0),
        "busy by start time");

  SpanRecorder off(false);
  check(off.open() == 0, "disabled recorder hands out id 0");
  off.record(Layer::kTrain, 0, 1, 0);
  check(off.spans().empty(), "disabled recorder records nothing");
}

void test_self_time() {
  // root [0, 10) with children [1, 4) and [3, 6) (overlapping, 5 s) and
  // [8, 12) (sticking out: 2 s inside); grandchild [1, 2) under the first
  // child does not count against root.
  SpanRecorder recorder(true);
  const std::uint32_t root = recorder.open();
  const std::uint32_t a = recorder.open();
  const std::uint32_t b = recorder.open();
  const std::uint32_t c = recorder.open();
  const std::uint32_t g = recorder.open();
  recorder.record(Layer::kTrain, 0, 10, root);
  recorder.record(Layer::kEncode, 1, 4, a, root);
  recorder.record(Layer::kEncode, 3, 6, b, root);
  recorder.record(Layer::kWire, 8, 12, c, root);
  recorder.record(Layer::kDecode, 1, 2, g, a);
  const std::vector<Span> spans = recorder.spans();
  check(near(self_seconds(spans, root), 10.0 - 5.0 - 2.0), "root self time");
  check(near(self_seconds(spans, a), 3.0 - 1.0), "child self time");
  check(near(self_seconds(spans, g), 1.0), "leaf self time is its duration");
}

}  // namespace

int main() {
  test_percentiles();
  test_union_and_share();
  test_self_time();
  if (failures == 0) std::printf("roundbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
