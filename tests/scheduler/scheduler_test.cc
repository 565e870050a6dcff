#include <gtest/gtest.h>

#include <memory>

#include "mapred/job.h"
#include "scheduler/fair_scheduler.h"
#include "scheduler/fifo_scheduler.h"

namespace dmr::scheduler {
namespace {

using mapred::InputSplit;
using mapred::Job;
using mapred::JobConf;
using mapred::MapAssignment;
using mapred::SplitId;
using mapred::SplitTable;

InputSplit MakeSplit(int index, int node) {
  InputSplit s;
  s.index = index;
  s.num_records = 1000;
  s.node_id = node;
  return s;
}

std::unique_ptr<Job> MakeJob(int id, const std::string& user,
                             std::vector<InputSplit> splits) {
  JobConf conf;
  conf.set_user(user);
  auto table = std::make_shared<SplitTable>();
  std::vector<SplitId> ids;
  for (const InputSplit& split : splits) ids.push_back(table->Add(split));
  auto job = std::make_unique<Job>(
      id, conf, std::move(table),
      [](const InputSplit&) { return uint64_t{0}; }, 0.0);
  job->AddSplits(ids, /*now=*/0.0);
  return job;
}

// ---------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------

TEST(FifoSchedulerTest, AssignsUpToFreeSlots) {
  FifoScheduler fifo;
  auto job = MakeJob(1, "u", {MakeSplit(0, 0), MakeSplit(1, 0),
                              MakeSplit(2, 0)});
  auto assignments = fifo.AssignMapTasks({job.get()}, 0, 2, 0.0);
  EXPECT_EQ(assignments.size(), 2u);
  EXPECT_EQ(job->pending_count(), 1);
}

TEST(FifoSchedulerTest, PrefersLocalSplits) {
  FifoScheduler fifo;
  auto job = MakeJob(1, "u", {MakeSplit(0, 5), MakeSplit(1, 2)});
  auto assignments = fifo.AssignMapTasks({job.get()}, 2, 1, 0.0);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_TRUE(assignments[0].local);
  EXPECT_EQ(job->input()[assignments[0].split].node_id, 2);
}

TEST(FifoSchedulerTest, FallsBackToRemoteImmediately) {
  FifoScheduler fifo;
  auto job = MakeJob(1, "u", {MakeSplit(0, 5)});
  auto assignments = fifo.AssignMapTasks({job.get()}, 2, 1, 0.0);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_FALSE(assignments[0].local);
}

TEST(FifoSchedulerTest, ServesJobsInSubmissionOrder) {
  FifoScheduler fifo;
  auto first = MakeJob(1, "a", {MakeSplit(0, 0)});
  auto second = MakeJob(2, "b", {MakeSplit(0, 0)});
  auto assignments =
      fifo.AssignMapTasks({first.get(), second.get()}, 0, 1, 0.0);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].job->id(), 1);
}

TEST(FifoSchedulerTest, HeadOfLineBlocksLaterJobs) {
  // Strict Hadoop-0.20 behaviour: the head job's remote work is taken
  // before a later job's local work.
  FifoScheduler fifo;
  auto head = MakeJob(1, "a", {MakeSplit(0, 5)});       // remote for node 2
  auto later = MakeJob(2, "b", {MakeSplit(0, 2)});      // local for node 2
  auto assignments =
      fifo.AssignMapTasks({head.get(), later.get()}, 2, 1, 0.0);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].job->id(), 1);
  EXPECT_FALSE(assignments[0].local);
}

TEST(FifoSchedulerTest, MovesToNextJobWhenHeadIsDrained) {
  FifoScheduler fifo;
  auto drained = MakeJob(1, "a", {});
  auto next = MakeJob(2, "b", {MakeSplit(0, 0)});
  auto assignments =
      fifo.AssignMapTasks({drained.get(), next.get()}, 0, 4, 0.0);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].job->id(), 2);
}

TEST(FifoSchedulerTest, NothingToAssignReturnsEmpty) {
  FifoScheduler fifo;
  auto job = MakeJob(1, "a", {});
  EXPECT_TRUE(fifo.AssignMapTasks({job.get()}, 0, 4, 0.0).empty());
  EXPECT_TRUE(fifo.AssignMapTasks({}, 0, 4, 0.0).empty());
}

// ---------------------------------------------------------------------
// Fair
// ---------------------------------------------------------------------

FairSchedulerOptions FairOpts(double wait = 0.0, bool multiple = true) {
  FairSchedulerOptions options;
  options.total_map_slots = 40;
  options.locality_wait = wait;
  options.assign_multiple = multiple;
  return options;
}

TEST(FairSchedulerTest, SharesAcrossPools) {
  FairScheduler fair(FairOpts());
  auto a = MakeJob(1, "alice", {MakeSplit(0, 0), MakeSplit(1, 0)});
  auto b = MakeJob(2, "bob", {MakeSplit(0, 0), MakeSplit(1, 0)});
  auto assignments =
      fair.AssignMapTasks({a.get(), b.get()}, 0, 2, 0.0);
  ASSERT_EQ(assignments.size(), 2u);
  // One task per pool: equal sharing instead of FIFO head-of-line.
  EXPECT_NE(assignments[0].job->id(), assignments[1].job->id());
}

TEST(FairSchedulerTest, MostStarvedPoolFirst) {
  FairScheduler fair(FairOpts());
  auto busy = MakeJob(1, "alice", {MakeSplit(0, 0)});
  // alice already runs 4 tasks; bob runs none.
  for (int i = 0; i < 4; ++i) {
    busy->OnMapLaunched(/*local=*/true);
  }
  auto idle = MakeJob(2, "bob", {MakeSplit(0, 0)});
  auto assignments =
      fair.AssignMapTasks({busy.get(), idle.get()}, 0, 1, 0.0);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].job->id(), 2);
}

TEST(FairSchedulerTest, AssignMultipleFalseLimitsToOnePerHeartbeat) {
  FairSchedulerOptions options = FairOpts();
  options.assign_multiple = false;
  FairScheduler fair(options);
  auto job = MakeJob(1, "u", {MakeSplit(0, 0), MakeSplit(1, 0),
                              MakeSplit(2, 0)});
  auto assignments = fair.AssignMapTasks({job.get()}, 0, 16, 0.0);
  EXPECT_EQ(assignments.size(), 1u);
}

TEST(FairSchedulerTest, DelaySchedulingHoldsRemoteWork) {
  FairScheduler fair(FairOpts(/*wait=*/5.0));
  auto job = MakeJob(1, "u", {MakeSplit(0, 7)});  // nothing local to node 0
  // First opportunity: the job starts waiting, no assignment.
  EXPECT_TRUE(fair.AssignMapTasks({job.get()}, 0, 4, 0.0).empty());
  // Still waiting before the deadline.
  EXPECT_TRUE(fair.AssignMapTasks({job.get()}, 0, 4, 3.0).empty());
  // After the wait expires the remote launch is allowed.
  auto late = fair.AssignMapTasks({job.get()}, 0, 4, 6.0);
  ASSERT_EQ(late.size(), 1u);
  EXPECT_FALSE(late[0].local);
}

TEST(FairSchedulerTest, LocalAssignmentResetsDelayState) {
  FairScheduler fair(FairOpts(/*wait=*/5.0));
  auto job = MakeJob(1, "u", {MakeSplit(0, 7), MakeSplit(1, 0)});
  // Node 0 heartbeat, one slot: the local split is taken immediately and
  // the job is not left in the waiting state.
  auto a = fair.AssignMapTasks({job.get()}, 0, 1, 0.0);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_TRUE(a[0].local);
  EXPECT_FALSE(job->delay_waiting);
}

TEST(FairSchedulerTest, ZeroWaitAssignsRemoteImmediately) {
  FairScheduler fair(FairOpts(/*wait=*/0.0));
  auto job = MakeJob(1, "u", {MakeSplit(0, 7)});
  auto assignments = fair.AssignMapTasks({job.get()}, 0, 4, 0.0);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_FALSE(assignments[0].local);
}

TEST(FairSchedulerTest, StrictDelayHoldsSlotForDeservingPool) {
  FairSchedulerOptions options = FairOpts(/*wait=*/5.0);
  options.strict_delay = true;
  FairScheduler fair(options);
  // alice (starved pool) has only remote work; bob has local work.
  auto alice = MakeJob(1, "alice", {MakeSplit(0, 7)});
  auto bob = MakeJob(2, "bob", {MakeSplit(0, 0)});
  for (int i = 0; i < 4; ++i) {
    bob->OnMapLaunched(/*local=*/true);
  }
  // Strict: the slot is held for alice even though bob could use it.
  EXPECT_TRUE(
      fair.AssignMapTasks({alice.get(), bob.get()}, 0, 1, 0.0).empty());
}

TEST(FairSchedulerTest, NonStrictDelaySkipsToNextJob) {
  FairSchedulerOptions options = FairOpts(/*wait=*/5.0);
  options.strict_delay = false;
  FairScheduler fair(options);
  auto alice = MakeJob(1, "alice", {MakeSplit(0, 7)});
  auto bob = MakeJob(2, "bob", {MakeSplit(0, 0)});
  for (int i = 0; i < 4; ++i) {
    bob->OnMapLaunched(/*local=*/true);
  }
  auto assignments =
      fair.AssignMapTasks({alice.get(), bob.get()}, 0, 1, 0.0);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].job->id(), 2);
}

TEST(FairSchedulerTest, TiedPoolsServeInOrderOfFirstAppearance) {
  // alice is seen first, then her job completes; bob submits, then alice
  // again. With equal running counts the tie goes to the pool that comes
  // first in running_jobs (bob), not to the user seen first.
  FairScheduler fair(FairOpts(/*wait=*/0.0, /*multiple=*/false));
  auto first = MakeJob(1, "alice", {MakeSplit(0, 0)});
  auto served = fair.AssignMapTasks({first.get()}, 0, 1, 0.0);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].job->id(), 1);

  auto bob = MakeJob(2, "bob", {MakeSplit(0, 0)});
  auto again = MakeJob(3, "alice", {MakeSplit(0, 0)});
  auto assignments =
      fair.AssignMapTasks({bob.get(), again.get()}, 0, 1, 3.0);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].job->id(), 2);
}

TEST(FairSchedulerTest, DrainedPoolLeavesTheRankingMidHeartbeat) {
  // alice (running 0) takes her only split first. She then ranks ahead of
  // bob (running 1 < 2) but has no demand left, so bob's pool gets every
  // remaining slot of the heartbeat.
  FairScheduler fair(FairOpts(/*wait=*/0.0, /*multiple=*/true));
  auto alice = MakeJob(1, "alice", {MakeSplit(0, 0)});
  auto bob = MakeJob(2, "bob", {MakeSplit(0, 0), MakeSplit(1, 0),
                                MakeSplit(2, 0)});
  bob->OnMapLaunched(/*local=*/true);
  bob->OnMapLaunched(/*local=*/true);
  auto assignments =
      fair.AssignMapTasks({alice.get(), bob.get()}, 0, 3, 0.0);
  ASSERT_EQ(assignments.size(), 3u);
  EXPECT_EQ(assignments[0].job->id(), 1);
  EXPECT_EQ(assignments[1].job->id(), 2);
  EXPECT_EQ(assignments[2].job->id(), 2);
  EXPECT_FALSE(alice->HasPendingSplits());
  EXPECT_EQ(bob->pending_count(), 1);
}

TEST(FairSchedulerTest, OneUsersJobsShareOnePoolAcrossOtherUsersJobs) {
  // alice's two jobs, with bob's between them in submission order, form one
  // pool running 2 tasks against bob's 1: bob is served first, then the
  // pools tie at 2 and alice's first job goes (first appearance, then
  // submission order within the pool), then bob again at 2 against 3.
  FairScheduler fair(FairOpts(/*wait=*/0.0, /*multiple=*/true));
  auto alice1 = MakeJob(1, "alice", {MakeSplit(0, 0), MakeSplit(1, 0)});
  auto bob = MakeJob(2, "bob", {MakeSplit(0, 0), MakeSplit(1, 0)});
  auto alice2 = MakeJob(3, "alice", {MakeSplit(0, 0), MakeSplit(1, 0)});
  alice1->OnMapLaunched(/*local=*/true);
  bob->OnMapLaunched(/*local=*/true);
  alice2->OnMapLaunched(/*local=*/true);
  auto assignments = fair.AssignMapTasks(
      {alice1.get(), bob.get(), alice2.get()}, 0, 3, 0.0);
  ASSERT_EQ(assignments.size(), 3u);
  EXPECT_EQ(assignments[0].job->id(), 2);
  EXPECT_EQ(assignments[1].job->id(), 1);
  EXPECT_EQ(assignments[2].job->id(), 2);
}

TEST(FairSchedulerTest, EmptyJobListIsFine) {
  FairScheduler fair(FairOpts());
  EXPECT_TRUE(fair.AssignMapTasks({}, 0, 4, 0.0).empty());
}

}  // namespace
}  // namespace dmr::scheduler
