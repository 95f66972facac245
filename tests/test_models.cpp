// Unit tests for src/models: the programming-model API layers and the host
// execution pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "models/culike/cuda.hpp"
#include "models/host_pool.hpp"
#include "models/kokkoslike/kokkos.hpp"
#include "models/launcher.hpp"
#include "models/ocllike/opencl.hpp"
#include "models/offload/offload.hpp"
#include "models/omp3/omp3.hpp"
#include "models/rajalike/raja.hpp"

namespace s = tl::sim;

namespace {
s::LaunchInfo tiny_launch(std::size_t items = 64) {
  s::LaunchInfo info;
  info.items = items;
  info.bytes_read = items * 8;
  info.bytes_written = items * 8;
  info.working_set_bytes = items * 16;
  return info;
}
}  // namespace

// ---------------------------------------------------------------------------
// HostPool
// ---------------------------------------------------------------------------

TEST(HostPool, CoversRangeExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    models::HostPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, 1000, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(HostPool, EmptyRangeIsNoop) {
  models::HostPool pool(4);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(HostPool, ReduceSumDeterministicAcrossThreadCounts) {
  std::vector<double> data(10'000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(static_cast<double>(i));
  }
  auto reduce_with = [&](unsigned threads) {
    models::HostPool pool(threads);
    return pool.parallel_reduce_sum(
        0, static_cast<std::int64_t>(data.size()),
        [&](std::int64_t b, std::int64_t e) {
          double acc = 0.0;
          for (std::int64_t i = b; i < e; ++i) acc += data[i];
          return acc;
        });
  };
  const double serial = reduce_with(1);
  // Chunk-ordered combination: identical result run-to-run per thread count.
  EXPECT_DOUBLE_EQ(reduce_with(4), reduce_with(4));
  EXPECT_NEAR(reduce_with(4), serial, 1e-9);
  EXPECT_NEAR(reduce_with(8), serial, 1e-9);
}

// The race-detector workout: rapid back-to-back dispatches reuse the pool's
// generation/pending handshake with no settling time between them, non-atomic
// writes to disjoint chunks exercise the fork/join happens-before edges, and
// an interleaved reduction reuses the same workers. Run under TSan in CI
// (the tsan preset) this is the test that would flag a broken handshake.
TEST(HostPool, StressRapidRedispatchIsRaceFree) {
  models::HostPool pool(4);
  std::vector<int> data(4096, 0);
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(0, static_cast<std::int64_t>(data.size()),
                      [&](std::int64_t b, std::int64_t e) {
                        for (std::int64_t i = b; i < e; ++i) {
                          data[static_cast<std::size_t>(i)] += 1;
                        }
                      });
    if (round % 10 == 0) {
      const double sum = pool.parallel_reduce_sum(
          0, static_cast<std::int64_t>(data.size()),
          [&](std::int64_t b, std::int64_t e) {
            double acc = 0.0;
            for (std::int64_t i = b; i < e; ++i) {
              acc += data[static_cast<std::size_t>(i)];
            }
            return acc;
          });
      EXPECT_DOUBLE_EQ(sum, static_cast<double>(data.size()) * (round + 1));
    }
  }
  for (const int v : data) EXPECT_EQ(v, 200);
}

// Independent pools on concurrent caller threads: pools share nothing, so
// this must be race-free; it exercises construction/teardown overlap.
TEST(HostPool, ConcurrentIndependentPools) {
  std::vector<std::thread> callers;
  std::array<double, 3> results{};
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&results, t] {
      models::HostPool pool(3);
      results[static_cast<std::size_t>(t)] = pool.parallel_reduce_sum(
          0, 10'000, [](std::int64_t b, std::int64_t e) {
            double acc = 0.0;
            for (std::int64_t i = b; i < e; ++i) {
              acc += static_cast<double>(i);
            }
            return acc;
          });
    });
  }
  for (auto& c : callers) c.join();
  for (const double r : results) EXPECT_DOUBLE_EQ(r, 10'000.0 * 9'999.0 / 2);
}

TEST(HostPool, SmallRangeRunsInline) {
  models::HostPool pool(8);
  const double sum = pool.parallel_reduce_sum(
      0, 3, [](std::int64_t b, std::int64_t e) {
        double acc = 0.0;
        for (std::int64_t i = b; i < e; ++i) acc += static_cast<double>(i);
        return acc;
      });
  EXPECT_DOUBLE_EQ(sum, 3.0);
}

// An explicit grain must be honoured exactly: chunk k covers
// [begin + k*grain, min(begin + (k+1)*grain, end)), for every thread count.
TEST(HostPool, ExplicitGrainProducesExactChunks) {
  constexpr std::int64_t kBegin = 3, kEnd = 103, kGrain = 7;
  for (const unsigned threads : {1u, 2u, 8u}) {
    models::HostPool pool(threads);
    std::mutex mu;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    pool.parallel_for(
        kBegin, kEnd,
        [&](std::int64_t b, std::int64_t e) {
          std::lock_guard<std::mutex> lock(mu);
          chunks.emplace_back(b, e);
        },
        kGrain);
    std::sort(chunks.begin(), chunks.end());
    const std::int64_t expected = (kEnd - kBegin + kGrain - 1) / kGrain;
    ASSERT_EQ(static_cast<std::int64_t>(chunks.size()), expected);
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      const std::int64_t b = kBegin + static_cast<std::int64_t>(k) * kGrain;
      EXPECT_EQ(chunks[k].first, b);
      EXPECT_EQ(chunks[k].second, std::min(b + kGrain, kEnd));
    }
  }
}

// The default grain is a function of the range only, so chunk boundaries
// (and therefore reduction partial slots) never depend on the thread count.
TEST(HostPool, DefaultGrainIndependentOfThreadCount) {
  EXPECT_EQ(models::HostPool::effective_grain(6400, 0), 100);
  EXPECT_EQ(models::HostPool::effective_grain(10, 0), 1);   // below 64 chunks
  EXPECT_EQ(models::HostPool::effective_grain(6400, 17), 17);  // honoured

  auto chunk_starts = [](unsigned threads) {
    models::HostPool pool(threads);
    std::mutex mu;
    std::vector<std::int64_t> starts;
    pool.parallel_for(0, 1000, [&](std::int64_t b, std::int64_t) {
      std::lock_guard<std::mutex> lock(mu);
      starts.push_back(b);
    });
    std::sort(starts.begin(), starts.end());
    return starts;
  };
  EXPECT_EQ(chunk_starts(1), chunk_starts(8));
}

// Reductions with irregular data and a remainder chunk are bit-identical at
// 1, 2, and 8 threads — the fused kernels rely on exactly this property.
TEST(HostPool, ReduceSumBitIdenticalAcrossThreadCounts) {
  std::vector<double> data(9'973);  // prime: guarantees a ragged last chunk
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(static_cast<double>(i)) * 1e3;
  }
  auto reduce_with = [&](unsigned threads, std::int64_t grain) {
    models::HostPool pool(threads);
    return pool.parallel_reduce_sum(
        0, static_cast<std::int64_t>(data.size()),
        [&](std::int64_t b, std::int64_t e) {
          double acc = 0.0;
          for (std::int64_t i = b; i < e; ++i) acc += data[i];
          return acc;
        },
        grain);
  };
  for (const std::int64_t grain : {0ll, 1ll, 64ll, 1000ll}) {
    const double at1 = reduce_with(1, grain);
    EXPECT_EQ(at1, reduce_with(2, grain)) << "grain=" << grain;
    EXPECT_EQ(at1, reduce_with(8, grain)) << "grain=" << grain;
  }
}

// The combination order is the documented pairwise tree over chunk index,
// not a running left-fold: check against a hand-rolled tree.
TEST(HostPool, ReduceSumCombinesPairwiseInChunkOrder) {
  constexpr std::int64_t kGrain = 10, kN = 100;
  std::vector<double> data(kN);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 1.0 + std::cos(static_cast<double>(i)) * 1e-7;
  }
  models::HostPool pool(4);
  const double got = pool.parallel_reduce_sum(
      0, kN,
      [&](std::int64_t b, std::int64_t e) {
        double acc = 0.0;
        for (std::int64_t i = b; i < e; ++i) acc += data[i];
        return acc;
      },
      kGrain);

  std::vector<double> partials;
  for (std::int64_t b = 0; b < kN; b += kGrain) {
    double acc = 0.0;
    for (std::int64_t i = b; i < std::min(b + kGrain, kN); ++i) acc += data[i];
    partials.push_back(acc);
  }
  for (std::size_t width = 1; width < partials.size(); width *= 2) {
    for (std::size_t i = 0; i + width < partials.size(); i += 2 * width) {
      partials[i] += partials[i + width];
    }
  }
  EXPECT_EQ(got, partials[0]);
}

// ---------------------------------------------------------------------------
// Launcher
// ---------------------------------------------------------------------------

TEST(Launcher, MetersLaunchesAndTransfers) {
  models::Launcher l(s::Model::kCuda, s::DeviceId::kGpuK20X, 1);
  int runs = 0;
  l.run(tiny_launch(), [&] { ++runs; });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(l.clock().launches(), 1u);
  EXPECT_GT(l.clock().elapsed_ns(), 0.0);
  l.charge_transfer({.name = "t", .bytes = 1024, .to_device = true});
  EXPECT_EQ(l.clock().transfers(), 1u);
  const double before = l.clock().elapsed_ns();
  l.begin_run(2);
  EXPECT_EQ(l.clock().elapsed_ns(), 0.0);
  EXPECT_GT(before, 0.0);
}

// ---------------------------------------------------------------------------
// omp3 layer
// ---------------------------------------------------------------------------

TEST(Omp3Layer, ParallelForAndReduce) {
  omp3::Runtime rt(s::Model::kOmp3Cpp, s::DeviceId::kCpuSandyBridge, 1, 2);
  std::vector<double> v(100, 0.0);
  rt.parallel_for(tiny_launch(), 0, 100,
                  [&](std::int64_t i) { v[static_cast<std::size_t>(i)] = 2.0; });
  const double sum = rt.parallel_reduce(
      tiny_launch(), 0, 100,
      [&](std::int64_t i, double& acc) { acc += v[static_cast<std::size_t>(i)]; });
  EXPECT_DOUBLE_EQ(sum, 200.0);
  EXPECT_EQ(rt.launcher().clock().launches(), 2u);
}

// ---------------------------------------------------------------------------
// Kokkos-like layer
// ---------------------------------------------------------------------------

TEST(KokkosLike, ViewSharedOwnership) {
  kokkoslike::View a("a", 4, 4);
  kokkoslike::View b = a;  // std::shared_ptr-style copy semantics
  a(1, 1) = 7.0;
  EXPECT_DOUBLE_EQ(b(1, 1), 7.0);
  EXPECT_EQ(b.label(), "a");
  EXPECT_EQ(b.size(), 16u);
}

TEST(KokkosLike, ParallelForWritesEveryIndex) {
  kokkoslike::Context ctx(s::Model::kKokkos, s::DeviceId::kCpuSandyBridge);
  kokkoslike::View v("v", 8, 8);
  ctx.parallel_for(tiny_launch(), {0, 64},
                   [=](std::int64_t i) { v[static_cast<std::size_t>(i)] = 1.0; });
  double sum = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) sum += v[i];
  EXPECT_DOUBLE_EQ(sum, 64.0);
  EXPECT_EQ(ctx.launcher().clock().launches(), 1u);
}

TEST(KokkosLike, DeepCopyChargesOnlyOnOffloadDevices) {
  kokkoslike::View v("v", 32, 32);
  kokkoslike::Context host(s::Model::kKokkos, s::DeviceId::kCpuSandyBridge);
  host.deep_copy_to_device(v);
  EXPECT_DOUBLE_EQ(host.launcher().clock().elapsed_ns(), 0.0);
  kokkoslike::Context gpu(s::Model::kKokkos, s::DeviceId::kGpuK20X);
  gpu.deep_copy_to_device(v);
  EXPECT_GT(gpu.launcher().clock().elapsed_ns(), 0.0);
  EXPECT_EQ(gpu.launcher().clock().transfer_bytes(), v.size_bytes());
}

// ---------------------------------------------------------------------------
// RAJA-like layer
// ---------------------------------------------------------------------------

TEST(RajaLike, InteriorIndexSetMatchesRangeSet) {
  const auto list = rajalike::make_interior_index_set(7, 5, 2);
  EXPECT_TRUE(list.has_indirection());
  EXPECT_EQ(list.total_length(), 35);

  rajalike::Context ctx(s::Model::kRaja, s::DeviceId::kCpuSandyBridge);
  std::vector<int> a(11 * 9, 0);
  ctx.forall<rajalike::seq_exec>(tiny_launch(), list, [&](std::int64_t i) {
    ++a[static_cast<std::size_t>(i)];
  });
  // Each interior cell is visited exactly once, and no halo cell is.
  for (int y = 0; y < 9; ++y) {
    for (int x = 0; x < 11; ++x) {
      const bool interior = x >= 2 && x < 9 && y >= 2 && y < 7;
      EXPECT_EQ(a[static_cast<std::size_t>(y * 11 + x)], interior ? 1 : 0)
          << "cell (" << x << ", " << y << ")";
    }
  }
  EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0), 35);
}

TEST(RajaLike, PadExcludesBoundaryCells) {
  const auto padded = rajalike::make_interior_index_set(6, 6, 2, 1);
  EXPECT_EQ(padded.total_length(), 16);  // (6-2)^2
}

TEST(RajaLike, BadGeometryThrows) {
  EXPECT_THROW(rajalike::make_interior_index_set(0, 4, 2),
               std::invalid_argument);
  EXPECT_THROW(rajalike::make_interior_index_set(4, 4, 2, 2),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Offload layer
// ---------------------------------------------------------------------------

TEST(Offload, DataScopeChargesMapsByDirection) {
  offload::Runtime rt(s::Model::kOmp4, s::DeviceId::kMicKnc);
  std::vector<double> a(1024, 1.0), b(1024, 2.0);
  {
    offload::DataScope scope(
        rt, {offload::map(std::span<double>(a), offload::MapDir::kTo),
             offload::map(std::span<double>(b), offload::MapDir::kAlloc)});
    EXPECT_TRUE(rt.is_present(a.data()));
    EXPECT_TRUE(rt.is_present(b.data()));
    // One `to` copy so far.
    EXPECT_EQ(rt.launcher().clock().transfers(), 1u);
  }
  // alloc and to don't copy back on exit.
  EXPECT_EQ(rt.launcher().clock().transfers(), 1u);
  EXPECT_FALSE(rt.is_present(a.data()));
}

TEST(Offload, FromDirectionCopiesBackOnExit) {
  offload::Runtime rt(s::Model::kOmp4, s::DeviceId::kMicKnc);
  std::vector<double> a(64, 0.0);
  {
    offload::DataScope scope(
        rt, {offload::map(std::span<double>(a), offload::MapDir::kToFrom)});
    EXPECT_EQ(rt.launcher().clock().transfers(), 1u);
  }
  EXPECT_EQ(rt.launcher().clock().transfers(), 2u);
}

TEST(Offload, NestedScopesRefCount) {
  offload::Runtime rt(s::Model::kOmp4, s::DeviceId::kMicKnc);
  std::vector<double> a(64, 0.0);
  const auto spec = offload::map(std::span<double>(a), offload::MapDir::kTo);
  {
    offload::DataScope outer(rt, {spec});
    {
      offload::DataScope inner(rt, {spec});
      EXPECT_EQ(rt.launcher().clock().transfers(), 1u);  // mapped once
    }
    EXPECT_TRUE(rt.is_present(a.data()));
  }
  EXPECT_FALSE(rt.is_present(a.data()));
}

TEST(Offload, UpdateWithoutMapThrows) {
  offload::Runtime rt(s::Model::kOmp4, s::DeviceId::kMicKnc);
  std::vector<double> a(8, 0.0);
  EXPECT_THROW(rt.update_from(a.data(), 64), std::logic_error);
}

TEST(Offload, HostTargetsSkipMapping) {
  offload::Runtime rt(s::Model::kOmp4, s::DeviceId::kCpuSandyBridge);
  std::vector<double> a(8, 0.0);
  offload::DataScope scope(
      rt, {offload::map(std::span<double>(a), offload::MapDir::kToFrom)});
  EXPECT_EQ(rt.launcher().clock().transfers(), 0u);
  EXPECT_NO_THROW(rt.update_from(a.data(), 64));
}

// ---------------------------------------------------------------------------
// OpenCL-like layer
// ---------------------------------------------------------------------------

TEST(OclLike, PlatformListsCatalogue) {
  const auto devices = ocllike::get_platform_devices();
  EXPECT_EQ(devices.size(), s::kAllDevices.size());
}

TEST(OclLike, BufferReadWriteRoundTrip) {
  ocllike::Context ctx(s::Model::kOpenCl, s::DeviceId::kGpuK20X);
  ocllike::CommandQueue queue(ctx);
  ocllike::Buffer buf(ctx, 128);
  std::vector<double> in(128), out(128, 0.0);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<double>(i);
  queue.enqueue_write(buf, in);
  queue.enqueue_read(buf, out);
  EXPECT_EQ(in, out);
  EXPECT_EQ(ctx.launcher().clock().transfers(), 2u);
}

TEST(OclLike, ErrorsThrow) {
  ocllike::Context ctx(s::Model::kOpenCl, s::DeviceId::kCpuSandyBridge);
  ocllike::CommandQueue queue(ctx);
  ocllike::Buffer buf(ctx, 8);
  std::vector<double> wrong(9);
  EXPECT_THROW(queue.enqueue_write(buf, wrong), std::invalid_argument);
  EXPECT_THROW(queue.enqueue_read(buf, wrong), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CUDA-like layer
// ---------------------------------------------------------------------------

TEST(CuLike, MemcpyRoundTripAndErrors) {
  culike::Runtime rt(s::Model::kCuda, s::DeviceId::kGpuK20X);
  culike::DeviceBuffer buf(16);
  std::vector<double> in(16, 3.0), out(16, 0.0);
  rt.memcpy_htod(buf, in);
  rt.memcpy_dtoh(out, buf);
  EXPECT_EQ(in, out);
  EXPECT_EQ(rt.launcher().clock().transfers(), 2u);
  std::vector<double> wrong(8);
  EXPECT_THROW(rt.memcpy_htod(buf, wrong), std::invalid_argument);
}
