// ThreadPool stress tests.
//
// These exist to run under -fsanitize=thread in CI (see the sanitizer
// matrix): lots of small parallel_fors under contention, nested calls from
// inside workers (guarding the PR-1 nested-inline fix against regression),
// concurrent external callers sharing one pool, and exception hand-off.
// Assertions are on results; TSan asserts the absence of races.

#include <atomic>
#include <cstddef>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace mmhar {
namespace {

TEST(ThreadPoolStress, ManySmallParallelForsProduceExactResults) {
  ThreadPool pool(4);
  set_global_pool_for_testing(&pool);
  for (std::size_t round = 0; round < 200; ++round) {
    const std::size_t n = 1 + round % 17;  // deliberately tiny ranges
    std::vector<std::size_t> out(n, 0);
    pool.parallel_for(0, n, [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i * i);
  }
  set_global_pool_for_testing(nullptr);
}

TEST(ThreadPoolStress, NestedParallelForFromWorkersRunsInlineAndCompletes) {
  ThreadPool pool(3);
  set_global_pool_for_testing(&pool);
  const std::size_t outer = 64;
  const std::size_t inner = 32;
  std::vector<std::size_t> out(outer * inner, 0);
  // Each outer index issues a nested parallel_for. On a worker thread the
  // nested call must run inline (a fixed-size pool has no free thread to
  // take the nested chunks); if that fix regresses, this test deadlocks
  // and the ctest TIMEOUT kills it.
  pool.parallel_for(0, outer, [&](std::size_t i) {
    parallel_for(0, inner, [&, i](std::size_t j) {
      out[i * inner + j] = i + j;
    });
  });
  for (std::size_t i = 0; i < outer; ++i)
    for (std::size_t j = 0; j < inner; ++j)
      ASSERT_EQ(out[i * inner + j], i + j);
  set_global_pool_for_testing(nullptr);
}

TEST(ThreadPoolStress, DoublyNestedCallsComplete) {
  ThreadPool pool(2);
  set_global_pool_for_testing(&pool);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    parallel_for(0, 8, [&](std::size_t) {
      parallel_for(0, 8, [&](std::size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(total.load(), 8u * 8u * 8u);
  set_global_pool_for_testing(nullptr);
}

TEST(ThreadPoolStress, ConcurrentExternalCallersShareOnePool) {
  // Several plain std::threads hammer the same pool with small
  // parallel_fors; every call has independent join state, so they must
  // interleave freely without cross-talk.
  ThreadPool pool(4);
  const std::size_t callers = 6;
  const std::size_t rounds = 50;
  std::vector<long> sums(callers, 0);
  std::vector<std::thread> threads;
  threads.reserve(callers);
  for (std::size_t t = 0; t < callers; ++t) {
    threads.emplace_back([&pool, &sums, t] {
      for (std::size_t r = 0; r < rounds; ++r) {
        const std::size_t n = 1 + (t + r) % 23;
        std::vector<long> buf(n, 0);
        pool.parallel_for(0, n, [&buf](std::size_t i) {
          buf[i] = static_cast<long>(i) + 1;
        });
        sums[t] += std::accumulate(buf.begin(), buf.end(), 0L);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < callers; ++t) {
    long expected = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      const long n = static_cast<long>(1 + (t + r) % 23);
      expected += n * (n + 1) / 2;
    }
    EXPECT_EQ(sums[t], expected) << "caller " << t;
  }
}

TEST(ThreadPoolStress, PerChunkAccumulatorsCombineExactly) {
  // The race-free accumulation pattern parallel-accum (mmhar_check)
  // pushes users toward: one partial per chunk, combined after the join.
  ThreadPool pool(4);
  const std::size_t n = 10000;
  const std::size_t chunks = pool.size() + 1;
  std::vector<long> partial(chunks, 0);
  std::atomic<std::size_t> next_slot{0};
  pool.parallel_for_chunked(0, n, [&](std::size_t lo, std::size_t hi) {
    const std::size_t slot = next_slot.fetch_add(1);
    ASSERT_LT(slot, partial.size());
    long acc = 0;
    for (std::size_t i = lo; i < hi; ++i) acc += static_cast<long>(i);
    partial[slot] = acc;
  });
  const long total = std::accumulate(partial.begin(), partial.end(), 0L);
  EXPECT_EQ(total, static_cast<long>(n) * (n - 1) / 2);
}

TEST(ThreadPoolStress, WorkerExceptionReachesCallerUnderContention) {
  ThreadPool pool(4);
  for (int round = 0; round < 25; ++round) {
    try {
      pool.parallel_for(0, 64, [&](std::size_t i) {
        if (i == 37) throw std::runtime_error("boom");
      });
      FAIL() << "expected the worker exception to be rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
    }
  }
}

TEST(ThreadPoolStress, PoolConstructionTeardownChurn) {
  // Construction/teardown is the other hand-off TSan should vet: workers
  // parked in cv_.wait must observe stop_ and drain cleanly.
  for (int round = 0; round < 30; ++round) {
    ThreadPool pool(1 + round % 5);
    std::atomic<int> hits{0};
    pool.parallel_for(0, 16, [&](std::size_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(hits.load(), 16);
  }
}

}  // namespace
}  // namespace mmhar
