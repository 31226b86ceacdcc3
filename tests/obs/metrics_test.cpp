#include "dut/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dut::obs {
namespace {

// The registry is process-global, so every test uses its own instrument
// names ("test.<case>.*") and never assumes a fresh table.

TEST(Metrics, CounterAccumulates) {
  Counter& c = counter("test.counter.basic");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, SameNameReturnsSameInstrument) {
  Counter& a = counter("test.counter.same");
  Counter& b = counter("test.counter.same");
  EXPECT_EQ(&a, &b);
  Histogram& ha = histogram("test.hist.same");
  Histogram& hb = histogram("test.hist.same");
  EXPECT_EQ(&ha, &hb);
}

TEST(Metrics, NameIsOneFlatNamespaceAcrossKinds) {
  counter("test.kind.clash");
  EXPECT_THROW(gauge("test.kind.clash"), std::invalid_argument);
  EXPECT_THROW(histogram("test.kind.clash"), std::invalid_argument);
}

TEST(Metrics, GaugeHoldsLastValue) {
  Gauge& g = gauge("test.gauge.basic");
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.set(1234);
  EXPECT_EQ(g.value(), 1234);
}

TEST(Metrics, HistogramBucketGeometry) {
  // bucket b holds values with bit_width == b: {0}, {1}, [2,4), [4,8), ...
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}),
            Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(Histogram::bucket_floor(2), 2u);
  EXPECT_EQ(Histogram::bucket_floor(3), 4u);
  for (std::size_t b = 1; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_floor(b)), b);
  }
}

TEST(Metrics, HistogramBucketBoundariesAtEveryPowerOfTwo) {
  // Exhaustive boundary sweep: each power of two 2^i opens bucket i+1, and
  // 2^i - 1 (all-ones below it) still lands in bucket i. Covers the full
  // 64-bit range up to UINT64_MAX, so off-by-one drift in bit_width-based
  // indexing cannot hide at any scale.
  for (unsigned i = 0; i < 64; ++i) {
    const std::uint64_t p = std::uint64_t{1} << i;
    EXPECT_EQ(Histogram::bucket_index(p), i + 1) << "value 2^" << i;
    EXPECT_EQ(Histogram::bucket_floor(i + 1), p) << "bucket " << i + 1;
    if (p > 1) {
      EXPECT_EQ(Histogram::bucket_index(p - 1), i) << "value 2^" << i
                                                   << " - 1";
    }
  }
  EXPECT_EQ(Histogram::bucket_index(UINT64_MAX), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::kBuckets, 65u)
      << "one bucket per possible bit_width, 0 through 64";

  // Recording the extremes keeps exact moments (sum wraps are the caller's
  // concern; min/max/count must be exact).
  Histogram& h = histogram("test.hist.extremes");
  h.reset();
  h.record(0);
  h.record(UINT64_MAX);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), UINT64_MAX);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 1u);
}

TEST(Metrics, HistogramExactMoments) {
  Histogram& h = histogram("test.hist.moments");
  h.reset();
  for (const std::uint64_t v : {0u, 1u, 5u, 5u, 100u}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 111u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket(Histogram::bucket_index(0)), 1u);
  EXPECT_EQ(h.bucket(Histogram::bucket_index(5)), 2u);
  EXPECT_EQ(h.bucket(Histogram::bucket_index(100)), 1u);
}

TEST(Metrics, SnapshotCarriesValuesAndNormalizesEmptyMin) {
  counter("test.snap.counter").reset();
  counter("test.snap.counter").add(3);
  gauge("test.snap.gauge").set(-9);
  Histogram& h = histogram("test.snap.hist");
  h.reset();
  h.record(6);
  h.record(9);
  Histogram& empty = histogram("test.snap.hist.empty");
  empty.reset();

  const MetricsSnapshot snap = snapshot();
  EXPECT_EQ(snap.counter("test.snap.counter"), 3u);
  EXPECT_EQ(snap.counter("test.snap.absent"), 0u);
  EXPECT_EQ(snap.gauges.at("test.snap.gauge"), -9);

  const HistogramData& data = snap.histograms.at("test.snap.hist");
  EXPECT_EQ(data.count, 2u);
  EXPECT_EQ(data.sum, 15u);
  EXPECT_EQ(data.min, 6u);
  EXPECT_EQ(data.max, 9u);
  EXPECT_DOUBLE_EQ(data.mean(), 7.5);
  // Only non-empty buckets, ascending lower edges.
  ASSERT_EQ(data.buckets.size(), 2u);
  EXPECT_EQ(data.buckets[0].first, 4u);
  EXPECT_EQ(data.buckets[0].second, 1u);
  EXPECT_EQ(data.buckets[1].first, 8u);
  EXPECT_EQ(data.buckets[1].second, 1u);

  const HistogramData& none = snap.histograms.at("test.snap.hist.empty");
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.min, 0u) << "empty min is normalized from the sentinel";
  EXPECT_DOUBLE_EQ(none.mean(), 0.0);
}

TEST(Metrics, ApproxQuantileIsBucketUpperEdgeClampedToMax) {
  Histogram& h = histogram("test.hist.quantile");
  h.reset();
  // 90 values in bucket [4,8), 10 in [64,128).
  for (int i = 0; i < 90; ++i) h.record(5);
  for (int i = 0; i < 10; ++i) h.record(70);
  const MetricsSnapshot snap = snapshot();
  const HistogramData& data = snap.histograms.at("test.hist.quantile");
  EXPECT_EQ(data.approx_quantile(0.5), 7u);   // inside [4,8) -> edge 7
  EXPECT_EQ(data.approx_quantile(0.99), 70u); // clamped to observed max
  EXPECT_EQ(data.approx_quantile(1.0), 70u);
}

TEST(Metrics, ResetKeepsRegistrationsAndReferences) {
  Counter& c = counter("test.reset.counter");
  c.add(5);
  Registry::instance().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // the old reference still writes the live instrument
  EXPECT_EQ(snapshot().counter("test.reset.counter"), 2u);
}

TEST(Metrics, ConcurrentCounterAndHistogramAreExact) {
  Counter& c = counter("test.concurrent.counter");
  Histogram& h = histogram("test.concurrent.hist");
  c.reset();
  h.reset();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), static_cast<std::uint64_t>(kThreads - 1));
}

TEST(Metrics, SnapshotWhileWritersAreLiveIsRaceFreeAndSane) {
  // snapshot() may run concurrently with writers (the bench main thread
  // reports while trial workers still record). Under TSan this test proves
  // the reads are data-race-free; everywhere it proves the snapshot is
  // internally sane (monotone counts, min <= max, buckets sum to count)
  // even when taken mid-write.
  Counter& c = counter("test.live.counter");
  Histogram& h = histogram("test.live.hist");
  c.reset();
  h.reset();
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> workers;
  workers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 1; i <= kPerThread; ++i) {
        c.add();
        h.record(i + static_cast<std::uint64_t>(t));
      }
    });
  }
  std::uint64_t last_count = 0;
  for (int pass = 0; pass < 50; ++pass) {
    const MetricsSnapshot snap = snapshot();
    const auto it = snap.histograms.find("test.live.hist");
    if (it == snap.histograms.end()) continue;
    const HistogramData& data = it->second;
    EXPECT_GE(data.count, last_count) << "histogram count went backwards";
    last_count = data.count;
    if (data.count > 0) EXPECT_LE(data.min, data.max);
    std::uint64_t bucket_total = 0;
    for (const auto& [floor, n] : data.buckets) bucket_total += n;
    // The count is taken from the same bucket read, so the two agree
    // exactly even mid-write.
    EXPECT_EQ(bucket_total, data.count);
  }
  for (auto& w : workers) w.join();
  const MetricsSnapshot final_snap = snapshot();
  EXPECT_EQ(final_snap.counter("test.live.counter"), kWriters * kPerThread);
  EXPECT_EQ(final_snap.histograms.at("test.live.hist").count,
            kWriters * kPerThread);
}

}  // namespace
}  // namespace dut::obs
