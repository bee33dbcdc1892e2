#include "common/fault.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/status.h"

namespace hasj {
namespace {

TEST(FaultInjectorTest, DefaultPlanNeverFires) {
  FaultInjector faults(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(faults.Check(FaultSite::kRenderPass).ok());
  }
  EXPECT_EQ(faults.checks(FaultSite::kRenderPass), 1000);
  EXPECT_EQ(faults.fired(FaultSite::kRenderPass), 0);
  EXPECT_EQ(faults.total_fired(), 0);
}

TEST(FaultInjectorTest, EveryNthFiresExactlyOnSchedule) {
  FaultInjector faults(1);
  faults.SetPlan(FaultSite::kScanReadback, FaultPlan::EveryNth(5));
  for (int64_t ordinal = 1; ordinal <= 50; ++ordinal) {
    const Status s = faults.Check(FaultSite::kScanReadback);
    EXPECT_EQ(s.ok(), ordinal % 5 != 0) << "ordinal " << ordinal;
  }
  EXPECT_EQ(faults.fired(FaultSite::kScanReadback), 10);
}

TEST(FaultInjectorTest, OneShotFiresOnce) {
  FaultInjector faults(1);
  faults.SetPlan(FaultSite::kRenderPass, FaultPlan::OneShot(3));
  EXPECT_TRUE(faults.Check(FaultSite::kRenderPass).ok());
  EXPECT_TRUE(faults.Check(FaultSite::kRenderPass).ok());
  EXPECT_FALSE(faults.Check(FaultSite::kRenderPass).ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(faults.Check(FaultSite::kRenderPass).ok());
  }
  EXPECT_EQ(faults.fired(FaultSite::kRenderPass), 1);
}

TEST(FaultInjectorTest, BurstFiresForTheWindow) {
  FaultInjector faults(1);
  faults.SetPlan(FaultSite::kFramebufferAlloc, FaultPlan::Burst(4, 3));
  for (int64_t ordinal = 1; ordinal <= 10; ++ordinal) {
    const bool in_burst = ordinal >= 4 && ordinal < 7;
    EXPECT_EQ(faults.Check(FaultSite::kFramebufferAlloc).ok(), !in_burst)
        << "ordinal " << ordinal;
  }
}

TEST(FaultInjectorTest, ProbabilityIsDeterministicPerSeedSiteOrdinal) {
  FaultInjector a(42);
  FaultInjector b(42);
  a.SetPlan(FaultSite::kRenderPass, FaultPlan::Probability(0.3));
  b.SetPlan(FaultSite::kRenderPass, FaultPlan::Probability(0.3));
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.Check(FaultSite::kRenderPass).ok(),
              b.Check(FaultSite::kRenderPass).ok())
        << "ordinal " << i + 1;
  }
  EXPECT_EQ(a.fired(FaultSite::kRenderPass), b.fired(FaultSite::kRenderPass));
  // A different seed gives a different firing sequence (with overwhelming
  // probability over 500 draws at p=0.3).
  FaultInjector c(43);
  c.SetPlan(FaultSite::kRenderPass, FaultPlan::Probability(0.3));
  int diffs = 0;
  for (int64_t ordinal = 1; ordinal <= 500; ++ordinal) {
    if (a.WouldFire(FaultSite::kRenderPass, ordinal) !=
        c.WouldFire(FaultSite::kRenderPass, ordinal)) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjectorTest, ProbabilityRateIsRoughlyRespected) {
  FaultInjector faults(99);
  faults.SetPlan(FaultSite::kRenderPass, FaultPlan::Probability(0.1));
  int fired = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (!faults.Check(FaultSite::kRenderPass).ok()) ++fired;
  }
  // 10000 draws at p=0.1: mean 1000, sigma ~30. +/- 200 is > 6 sigma.
  EXPECT_GT(fired, 800);
  EXPECT_LT(fired, 1200);
  // probability=1.0 always fires, 0.0 never.
  FaultInjector always(99);
  always.SetPlan(FaultSite::kRenderPass, FaultPlan::Probability(1.0));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(always.Check(FaultSite::kRenderPass).ok());
  }
}

TEST(FaultInjectorTest, CheckMatchesWouldFire) {
  FaultInjector faults(7);
  faults.SetPlan(FaultSite::kScanReadback, FaultPlan::Probability(0.25));
  for (int64_t ordinal = 1; ordinal <= 200; ++ordinal) {
    const bool predicted = faults.WouldFire(FaultSite::kScanReadback, ordinal);
    EXPECT_EQ(faults.Check(FaultSite::kScanReadback).ok(), !predicted)
        << "ordinal " << ordinal;
  }
}

TEST(FaultInjectorTest, SitesAreIndependent) {
  FaultInjector faults(5);
  faults.SetPlan(FaultSite::kRenderPass, FaultPlan::EveryNth(1));  // always
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(faults.Check(FaultSite::kRenderPass).ok());
    EXPECT_TRUE(faults.Check(FaultSite::kScanReadback).ok());
  }
  EXPECT_EQ(faults.fired(FaultSite::kRenderPass), 10);
  EXPECT_EQ(faults.fired(FaultSite::kScanReadback), 0);
  EXPECT_EQ(faults.total_fired(), 10);
}

TEST(FaultInjectorTest, PlanCodeSelectsStatusCode) {
  FaultInjector faults(1);
  FaultPlan plan = FaultPlan::EveryNth(1);
  plan.code = StatusCode::kResourceExhausted;
  faults.SetPlan(FaultSite::kFramebufferAlloc, plan);
  const Status s = faults.Check(FaultSite::kFramebufferAlloc);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST(FaultInjectorTest, ResetCountsKeepsPlansAndSeed) {
  FaultInjector faults(11);
  faults.SetPlan(FaultSite::kRenderPass, FaultPlan::EveryNth(2));
  for (int i = 0; i < 10; ++i) (void)faults.Check(FaultSite::kRenderPass);
  EXPECT_EQ(faults.fired(FaultSite::kRenderPass), 5);
  faults.ResetCounts();
  EXPECT_EQ(faults.checks(FaultSite::kRenderPass), 0);
  EXPECT_EQ(faults.fired(FaultSite::kRenderPass), 0);
  // The ordinal sequence restarts: the same firing pattern replays.
  EXPECT_TRUE(faults.Check(FaultSite::kRenderPass).ok());    // ordinal 1
  EXPECT_FALSE(faults.Check(FaultSite::kRenderPass).ok());   // ordinal 2
}

TEST(FaultInjectorTest, ConcurrentChecksClaimDistinctOrdinals) {
  // Threaded checks must lose no ordinals and fire exactly the per-ordinal
  // schedule in total, whatever the interleaving.
  FaultInjector faults(3);
  faults.SetPlan(FaultSite::kPoolTask, FaultPlan::EveryNth(7));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::atomic<int64_t> fired{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!faults.Check(FaultSite::kPoolTask).ok()) {
          fired.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(faults.checks(FaultSite::kPoolTask), kThreads * kPerThread);
  EXPECT_EQ(fired.load(std::memory_order_relaxed), kThreads * kPerThread / 7);
  EXPECT_EQ(faults.fired(FaultSite::kPoolTask),
            fired.load(std::memory_order_relaxed));
}

TEST(FaultSiteTest, NamesAreStable) {
  EXPECT_STREQ(FaultSiteName(FaultSite::kFramebufferAlloc),
               "framebuffer-alloc");
  EXPECT_STREQ(FaultSiteName(FaultSite::kRenderPass), "render-pass");
  EXPECT_STREQ(FaultSiteName(FaultSite::kScanReadback), "scan-readback");
  EXPECT_STREQ(FaultSiteName(FaultSite::kPoolTask), "pool-task");
  EXPECT_STREQ(FaultSiteName(FaultSite::kDatasetLoad), "dataset-load");
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFaults) {
  CircuitBreaker breaker(3, 10);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(breaker.Allow());
    breaker.RecordFault();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  }
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordFault();  // third consecutive
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1);
}

TEST(CircuitBreakerTest, SuccessResetsTheConsecutiveCount) {
  CircuitBreaker breaker(3, 10);
  breaker.RecordFault();
  breaker.RecordFault();
  breaker.RecordSuccess();  // streak broken
  breaker.RecordFault();
  breaker.RecordFault();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFault();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, OpenSkipsExactlyReprobePairsThenHalfOpens) {
  CircuitBreaker breaker(1, 5);
  breaker.RecordFault();  // threshold 1: open immediately
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(breaker.Allow()) << "skipped pair " << i;
  }
  // The 5th pair while open becomes the half-open probe.
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreakerTest, HalfOpenProbeOutcomeDecides) {
  CircuitBreaker breaker(1, 2);
  breaker.RecordFault();
  EXPECT_FALSE(breaker.Allow());
  EXPECT_TRUE(breaker.Allow());  // probe
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordFault();  // probe fails: back to open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 2);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_TRUE(breaker.Allow());  // next probe
  breaker.RecordSuccess();  // probe succeeds: closed
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, ConsumeTransitionFiresOncePerChange) {
  CircuitBreaker breaker(1, 2);
  EXPECT_FALSE(breaker.ConsumeTransition());
  breaker.RecordFault();
  EXPECT_TRUE(breaker.ConsumeTransition());
  EXPECT_FALSE(breaker.ConsumeTransition());
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.ConsumeTransition());
  EXPECT_TRUE(breaker.Allow());  // -> half-open
  EXPECT_TRUE(breaker.ConsumeTransition());
  breaker.RecordSuccess();  // -> closed
  EXPECT_TRUE(breaker.ConsumeTransition());
  EXPECT_FALSE(breaker.ConsumeTransition());
}

TEST(CircuitBreakerTest, StateNames) {
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kClosed),
               "closed");
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kOpen),
               "open");
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kHalfOpen),
               "half-open");
}

}  // namespace
}  // namespace hasj
