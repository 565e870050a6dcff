#include "sim/ps_resource.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.h"

namespace dmr::sim {
namespace {

TEST(PsResourceTest, SingleRequestTakesDemandOverCapacity) {
  Simulation sim;
  PsResource disk(&sim, "disk", 100.0);  // 100 units/s
  double done_at = -1;
  disk.Submit(500.0, [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_NEAR(done_at, 5.0, 1e-6);
}

TEST(PsResourceTest, TwoEqualRequestsShareCapacity) {
  Simulation sim;
  PsResource disk(&sim, "disk", 100.0);
  std::vector<double> done;
  disk.Submit(500.0, [&] { done.push_back(sim.Now()); });
  disk.Submit(500.0, [&] { done.push_back(sim.Now()); });
  sim.Run();
  ASSERT_EQ(done.size(), 2u);
  // Each gets 50 units/s => both complete at t = 10.
  EXPECT_NEAR(done[0], 10.0, 1e-6);
  EXPECT_NEAR(done[1], 10.0, 1e-6);
}

TEST(PsResourceTest, PerRequestCapLimitsLoneRequest) {
  Simulation sim;
  PsResource cpu(&sim, "cpu", 4.0, /*per_request_cap=*/1.0);
  double done_at = -1;
  cpu.Submit(2.0, [&] { done_at = sim.Now(); });  // 2 core-seconds
  sim.Run();
  EXPECT_NEAR(done_at, 2.0, 1e-6);  // capped at 1 core despite capacity 4
}

TEST(PsResourceTest, FourTasksOnFourCoresRunAtFullSpeed) {
  Simulation sim;
  PsResource cpu(&sim, "cpu", 4.0, 1.0);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) {
    cpu.Submit(3.0, [&] { done.push_back(sim.Now()); });
  }
  sim.Run();
  ASSERT_EQ(done.size(), 4u);
  for (double t : done) EXPECT_NEAR(t, 3.0, 1e-6);
}

TEST(PsResourceTest, OversubscriptionSlowsEveryone) {
  Simulation sim;
  PsResource cpu(&sim, "cpu", 4.0, 1.0);
  std::vector<double> done;
  for (int i = 0; i < 8; ++i) {
    cpu.Submit(3.0, [&] { done.push_back(sim.Now()); });
  }
  sim.Run();
  ASSERT_EQ(done.size(), 8u);
  // 8 tasks share 4 cores: 0.5 core each => 6 s.
  for (double t : done) EXPECT_NEAR(t, 6.0, 1e-6);
}

TEST(PsResourceTest, LateArrivalSlowsInFlightRequest) {
  Simulation sim;
  PsResource disk(&sim, "disk", 100.0);
  double first_done = -1, second_done = -1;
  disk.Submit(500.0, [&] { first_done = sim.Now(); });
  sim.Schedule(2.5, [&] {
    disk.Submit(250.0, [&] { second_done = sim.Now(); });
  });
  sim.Run();
  // First: 250 units by t=2.5, then shares 50/s => 250/50 = 5 more => 7.5.
  EXPECT_NEAR(first_done, 7.5, 1e-6);
  // Second: 250 at 50/s alongside => also done at 7.5.
  EXPECT_NEAR(second_done, 7.5, 1e-6);
}

TEST(PsResourceTest, CompletionFreesBandwidthForRemainder) {
  Simulation sim;
  PsResource disk(&sim, "disk", 100.0);
  double small_done = -1, big_done = -1;
  disk.Submit(100.0, [&] { small_done = sim.Now(); });
  disk.Submit(300.0, [&] { big_done = sim.Now(); });
  sim.Run();
  // Shared at 50/s: small finishes at t=2 (100 units), big has 200 left,
  // then runs at 100/s: +2 s => t=4.
  EXPECT_NEAR(small_done, 2.0, 1e-6);
  EXPECT_NEAR(big_done, 4.0, 1e-6);
}

TEST(PsResourceTest, ZeroDemandCompletesImmediately) {
  Simulation sim;
  PsResource disk(&sim, "disk", 100.0);
  double done_at = -1;
  disk.Submit(0.0, [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_NEAR(done_at, 0.0, 1e-3);
}

TEST(PsResourceTest, CancelRequestStopsCallback) {
  Simulation sim;
  PsResource disk(&sim, "disk", 100.0);
  bool fired = false;
  auto id = disk.Submit(500.0, [&] { fired = true; });
  sim.Schedule(1.0, [&] { EXPECT_TRUE(disk.CancelRequest(id)); });
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(disk.active_requests(), 0u);
}

TEST(PsResourceTest, CancelUnknownRequestReturnsFalse) {
  Simulation sim;
  PsResource disk(&sim, "disk", 100.0);
  EXPECT_FALSE(disk.CancelRequest(12345));
}

TEST(PsResourceTest, SameInstantCompletionsCallBackInSubmissionOrder) {
  Simulation sim;
  PsResource disk(&sim, "disk", 100.0);
  std::vector<int> order;
  std::vector<double> done_at;
  for (int i = 0; i < 4; ++i) {
    disk.Submit(200.0, [&, i] {
      order.push_back(i);
      done_at.push_back(sim.Now());
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(done_at.size(), 4u);
  for (double t : done_at) EXPECT_EQ(t, done_at.front());
  EXPECT_NEAR(done_at.front(), 8.0, 1e-6);  // 4 x 200 units at 100 units/s
}

TEST(PsResourceTest, CancellingTheMiddleRequestKeepsTheOthersTimes) {
  // Cancelled at t = 0, before any service: the survivors see a two-way
  // share from the start, exactly as if the middle one was never submitted.
  auto run = [](bool with_middle) {
    Simulation sim;
    PsResource disk(&sim, "disk", 100.0);
    std::vector<double> done(3, -1.0);
    disk.Submit(100.0, [&] { done[0] = sim.Now(); });
    PsResource::RequestId middle =
        with_middle ? disk.Submit(150.0, [&] { done[1] = sim.Now(); }) : 0;
    disk.Submit(300.0, [&] { done[2] = sim.Now(); });
    if (with_middle) {
      EXPECT_TRUE(disk.CancelRequest(middle));
    }
    sim.Run();
    return done;
  };
  std::vector<double> cancelled = run(true);
  std::vector<double> alone = run(false);
  EXPECT_EQ(cancelled[1], -1.0);
  EXPECT_EQ(cancelled[0], alone[0]);
  EXPECT_EQ(cancelled[2], alone[2]);
  EXPECT_NEAR(cancelled[0], 2.0, 1e-6);  // 100 units at 50 units/s
  EXPECT_NEAR(cancelled[2], 4.0, 1e-6);  // then 200 more at 100 units/s
}

TEST(PsResourceTest, CancellingAFinishedRequestReturnsFalse) {
  Simulation sim;
  PsResource disk(&sim, "disk", 100.0);
  int fired = 0;
  PsResource::RequestId first = disk.Submit(100.0, [&] { ++fired; });
  disk.Submit(300.0, [&] { ++fired; });
  sim.RunUntil(2.5);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(disk.CancelRequest(first));
  EXPECT_EQ(disk.active_requests(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_NEAR(sim.Now(), 4.0, 1e-6);
}

TEST(PsResourceTest, UtilizationReflectsLoad) {
  Simulation sim;
  PsResource cpu(&sim, "cpu", 4.0, 1.0);
  EXPECT_DOUBLE_EQ(cpu.Utilization(), 0.0);
  cpu.Submit(100.0, nullptr);
  EXPECT_NEAR(cpu.Utilization(), 0.25, 1e-9);  // 1 core of 4
  cpu.Submit(100.0, nullptr);
  cpu.Submit(100.0, nullptr);
  cpu.Submit(100.0, nullptr);
  EXPECT_NEAR(cpu.Utilization(), 1.0, 1e-9);
  cpu.Submit(100.0, nullptr);  // oversubscribed, still 100%
  EXPECT_NEAR(cpu.Utilization(), 1.0, 1e-9);
}

TEST(PsResourceTest, TotalDeliveredTracksWork) {
  Simulation sim;
  PsResource disk(&sim, "disk", 100.0);
  disk.Submit(300.0, nullptr);
  sim.RunUntil(1.0);
  EXPECT_NEAR(disk.total_delivered(), 100.0, 1e-6);
  sim.RunUntil(3.0);
  EXPECT_NEAR(disk.total_delivered(), 300.0, 1e-6);
  sim.RunUntil(10.0);
  EXPECT_NEAR(disk.total_delivered(), 300.0, 1e-6);  // no more work
}

TEST(PsResourceTest, CallbackMayResubmitToSameResource) {
  Simulation sim;
  PsResource disk(&sim, "disk", 100.0);
  int completions = 0;
  std::function<void()> resubmit = [&] {
    if (++completions < 3) disk.Submit(100.0, resubmit);
  };
  disk.Submit(100.0, resubmit);
  sim.Run();
  EXPECT_EQ(completions, 3);
  EXPECT_NEAR(sim.Now(), 3.0, 1e-3);
}

TEST(PsResourceTest, ManyTinyRequestsAllComplete) {
  // Regression: floating-point residue once caused a same-timestamp event
  // livelock (see kMinDelay in ps_resource.cc).
  Simulation sim;
  PsResource disk(&sim, "disk", 80e6, 80e6);
  int done = 0;
  for (int i = 0; i < 500; ++i) {
    sim.Schedule(0.001 * i, [&disk, &done] {
      disk.Submit(94.0e6 / 7, [&done] { ++done; });
    });
  }
  uint64_t fired = sim.Run(2'000'000);
  EXPECT_EQ(done, 500);
  EXPECT_LT(fired, 1'000'000u);  // no event explosion
}

}  // namespace
}  // namespace dmr::sim
