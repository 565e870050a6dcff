#include "mapred/job_client.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>

#include "cluster/cluster.h"
#include "scheduler/fifo_scheduler.h"
#include "sim/simulation.h"

namespace dmr::mapred {
namespace {

/// A scripted provider for exercising the JobClient loop.
class ScriptedProvider : public InputProvider {
 public:
  explicit ScriptedProvider(std::vector<InputResponse> script)
      : script_(std::move(script)) {}

  Status Initialize(std::shared_ptr<const SplitTable> input,
                    const JobConf& conf) override {
    (void)conf;
    input_ = std::move(input);
    initialized_ = true;
    return Status::OK();
  }

  InputResponse GetInitialInput(const ClusterStatus&) override {
    if (input_->size() == 0) return InputResponse::EndOfInput();
    return InputResponse::Available({0});
  }

  InputResponse Evaluate(const JobProgress& progress,
                         const ClusterStatus& cluster) override {
    (void)cluster;
    last_progress_ = progress;
    ++evaluations_;
    if (next_ < script_.size()) return script_[next_++];
    return InputResponse::EndOfInput();
  }

  bool initialized_ = false;
  int evaluations_ = 0;
  JobProgress last_progress_;

 private:
  std::vector<InputResponse> script_;
  size_t next_ = 0;
  std::shared_ptr<const SplitTable> input_;
};

class JobClientTest : public ::testing::Test {
 protected:
  JobClientTest()
      : config_(cluster::ClusterConfig::SingleUser()),
        cluster_(&sim_, config_),
        tracker_(&cluster_, &scheduler_),
        client_(&tracker_) {
    tracker_.Start();
  }

  std::shared_ptr<const SplitTable> MakeSplits(int n) {
    auto table = std::make_shared<SplitTable>();
    for (int i = 0; i < n; ++i) {
      InputSplit s;
      s.index = i;
      s.num_records = 750000;
      s.num_matching = 100;
      s.size_bytes = s.num_records * 132;
      s.node_id = i % config_.num_nodes;
      s.disk_id = 0;
      table->Add(s);
    }
    return table;
  }

  JobSubmission MakeSubmission(std::shared_ptr<InputProvider> provider,
                               int splits = 8) {
    JobSubmission sub;
    sub.conf.set_dynamic_job(true);
    sub.conf.set_eval_interval(4.0);
    sub.input = MakeSplits(splits);
    sub.output_model = [](const InputSplit& s) { return s.num_matching; };
    sub.input_provider = std::move(provider);
    return sub;
  }

  sim::Simulation sim_;
  cluster::ClusterConfig config_;
  cluster::Cluster cluster_;
  scheduler::FifoScheduler scheduler_;
  JobTracker tracker_;
  JobClient client_;
};

TEST_F(JobClientTest, DynamicJobNeedsProvider) {
  JobSubmission sub = MakeSubmission(nullptr);
  EXPECT_TRUE(
      client_.Submit(std::move(sub), nullptr).status().IsInvalidArgument());
}

TEST_F(JobClientTest, DynamicJobNeedsInput) {
  auto provider =
      std::make_shared<ScriptedProvider>(std::vector<InputResponse>{});
  JobSubmission sub = MakeSubmission(provider);
  sub.input = nullptr;
  EXPECT_TRUE(
      client_.Submit(std::move(sub), nullptr).status().IsInvalidArgument());
  EXPECT_FALSE(provider->initialized_);
}

TEST_F(JobClientTest, RejectsNonPositiveEvalInterval) {
  auto provider = std::make_shared<ScriptedProvider>(
      std::vector<InputResponse>{InputResponse::EndOfInput()});
  JobSubmission sub = MakeSubmission(provider);
  sub.conf.set_eval_interval(0.0);
  EXPECT_TRUE(
      client_.Submit(std::move(sub), nullptr).status().IsInvalidArgument());
  // NaN and infinite intervals or thresholds would schedule an evaluation
  // at a NaN time or never; both are refused before the provider runs.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double interval : {nan, inf, -inf}) {
    JobSubmission bad = MakeSubmission(provider);
    bad.conf.set_eval_interval(interval);
    EXPECT_TRUE(
        client_.Submit(std::move(bad), nullptr).status().IsInvalidArgument())
        << interval;
  }
  for (double threshold : {nan, inf, -1.0, 101.0}) {
    JobSubmission bad = MakeSubmission(provider);
    bad.conf.set_work_threshold_pct(threshold);
    EXPECT_TRUE(
        client_.Submit(std::move(bad), nullptr).status().IsInvalidArgument())
        << threshold;
  }
  EXPECT_FALSE(provider->initialized_);
}

TEST_F(JobClientTest, AcceptsTinyEvalInterval) {
  // 1e-7 s is a valid interval and must survive the JobConf round trip.
  auto provider = std::make_shared<ScriptedProvider>(
      std::vector<InputResponse>{InputResponse::EndOfInput()});
  JobSubmission sub = MakeSubmission(provider);
  sub.conf.set_eval_interval(1e-7);
  ASSERT_TRUE(client_.Submit(std::move(sub), nullptr).ok());
  EXPECT_TRUE(provider->initialized_);
  // The loop ticks every 1e-7 s while the first map runs.
  const uint64_t before = sim_.events_fired();
  sim_.RunUntil(1e-5);
  EXPECT_GE(sim_.events_fired() - before, 99u);
}

TEST_F(JobClientTest, StaticJobBypassesProviderLoop) {
  JobSubmission sub;
  sub.conf.set_dynamic_job(false);
  sub.input = MakeSplits(4);
  sub.output_model = [](const InputSplit&) { return uint64_t{1}; };
  std::optional<JobStats> stats;
  auto id = client_.Submit(std::move(sub),
                           [&](const JobStats& s) { stats = s; });
  ASSERT_TRUE(id.ok());
  sim_.RunUntil(3600);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->splits_processed, 4);
  EXPECT_EQ(stats->provider_evaluations, 0);
}

TEST_F(JobClientTest, ProviderDrivesIncrementalGrowth) {
  auto provider = std::make_shared<ScriptedProvider>(
      std::vector<InputResponse>{
          InputResponse::Available({1, 2}),
          InputResponse::NoInput(),
          InputResponse::Available({3}),
          InputResponse::EndOfInput()});
  std::optional<JobStats> stats;
  auto id = client_.Submit(MakeSubmission(provider),
                           [&](const JobStats& s) { stats = s; });
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(provider->initialized_);
  sim_.RunUntil(4 * 3600);
  ASSERT_TRUE(stats.has_value());
  // Initial split + 2 + 1 added by the script.
  EXPECT_EQ(stats->splits_processed, 4);
  EXPECT_EQ(stats->input_increments, 3);  // initial + two Available
  EXPECT_GE(stats->provider_evaluations, 4);
}

TEST_F(JobClientTest, ImmediateEndOfInputStillReduces) {
  auto provider = std::make_shared<ScriptedProvider>(
      std::vector<InputResponse>{InputResponse::EndOfInput()});
  std::optional<JobStats> stats;
  auto id = client_.Submit(MakeSubmission(provider),
                           [&](const JobStats& s) { stats = s; });
  ASSERT_TRUE(id.ok());
  sim_.RunUntil(3600);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->splits_processed, 1);  // just the initial split
}

TEST_F(JobClientTest, WorkThresholdGatesEvaluations) {
  // Threshold 50 % of 8 splits = 4 completions required between provider
  // invocations; with 1-split increments the provider is only invoked when
  // the job starves, not at every 4 s tick.
  auto provider = std::make_shared<ScriptedProvider>(
      std::vector<InputResponse>{InputResponse::Available({1}),
                                 InputResponse::EndOfInput()});
  JobSubmission sub = MakeSubmission(provider);
  sub.conf.set_work_threshold_pct(50.0);
  std::optional<JobStats> stats;
  auto id =
      client_.Submit(std::move(sub), [&](const JobStats& s) { stats = s; });
  ASSERT_TRUE(id.ok());
  sim_.RunUntil(4 * 3600);
  ASSERT_TRUE(stats.has_value());
  // Exactly the two scripted invocations (each at a starvation point); the
  // periodic ticks in between must have been gated by the threshold.
  EXPECT_EQ(stats->provider_evaluations, 2);
}

TEST_F(JobClientTest, EndOfInputBeforeCompletionThenResubmit) {
  // The first provider ends the input while the job still has maps to run;
  // no evaluation follows, yet the completion stats carry its counts. The
  // completion callback resubmits, as a closed-loop user does, so the next
  // job's loop starts while the first one's is being dropped.
  auto first = std::make_shared<ScriptedProvider>(std::vector<InputResponse>{
      InputResponse::Available({1, 2}), InputResponse::EndOfInput()});
  auto second = std::make_shared<ScriptedProvider>(
      std::vector<InputResponse>{InputResponse::EndOfInput()});
  std::optional<JobStats> first_stats;
  std::optional<JobStats> second_stats;
  auto id = client_.Submit(MakeSubmission(first), [&](const JobStats& s) {
    first_stats = s;
    auto next = client_.Submit(MakeSubmission(second), [&](const JobStats& t) {
      second_stats = t;
    });
    ASSERT_TRUE(next.ok());
  });
  ASSERT_TRUE(id.ok());
  sim_.RunUntil(4 * 3600);
  ASSERT_TRUE(first_stats.has_value());
  ASSERT_TRUE(second_stats.has_value());
  EXPECT_EQ(first_stats->splits_processed, 3);
  EXPECT_EQ(first_stats->input_increments, 2);  // initial + one Available
  EXPECT_EQ(first_stats->provider_evaluations, 2);
  EXPECT_EQ(first->evaluations_, 2);  // none after the end of input
  EXPECT_EQ(second_stats->splits_processed, 1);
  EXPECT_EQ(second_stats->input_increments, 1);
  EXPECT_EQ(second_stats->provider_evaluations, 1);
  EXPECT_EQ(second->evaluations_, 1);
}

TEST_F(JobClientTest, JobCompletesWhileEvaluationPending) {
  // Another party ends the input, so the job completes while its loop
  // still has an evaluation scheduled. That event must find no loop and
  // leave the provider alone.
  auto provider = std::make_shared<ScriptedProvider>(
      std::vector<InputResponse>(1000, InputResponse::NoInput()));
  JobSubmission sub = MakeSubmission(provider);
  sub.conf.set_eval_interval(0.5);  // several evaluations before completion
  std::optional<JobStats> stats;
  int evaluations_at_completion = -1;
  auto id = client_.Submit(std::move(sub), [&](const JobStats& s) {
    stats = s;
    evaluations_at_completion = provider->evaluations_;
  });
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(tracker_.FinalizeInput(*id).ok());
  sim_.RunUntil(3600);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->splits_processed, 1);
  EXPECT_GT(evaluations_at_completion, 0);
  EXPECT_EQ(stats->provider_evaluations, evaluations_at_completion);
  EXPECT_EQ(provider->evaluations_, evaluations_at_completion);
}

TEST_F(JobClientTest, ProgressSnapshotReachesProvider) {
  auto provider = std::make_shared<ScriptedProvider>(
      std::vector<InputResponse>{InputResponse::EndOfInput()});
  auto id = client_.Submit(MakeSubmission(provider), nullptr);
  ASSERT_TRUE(id.ok());
  sim_.RunUntil(3600);
  EXPECT_EQ(provider->last_progress_.maps_completed, 1);
  EXPECT_EQ(provider->last_progress_.records_processed, 750000u);
  EXPECT_EQ(provider->last_progress_.output_records, 100u);
  EXPECT_TRUE(provider->last_progress_.starved());
}

}  // namespace
}  // namespace dmr::mapred
