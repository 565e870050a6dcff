#include "obs/trace.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/book.h"

namespace dmr::obs {
namespace {

using json::JsonParse;
using json::JsonValue;

/// Parses a trace document and returns its traceEvents array.
std::vector<JsonValue> Events(const std::string& document) {
  auto doc = JsonParse(document);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc.ValueOrDie().Find("traceEvents");
  EXPECT_NE(events, nullptr);
  return events->items;
}

std::vector<JsonValue> Events(const TraceStream& stream) {
  return Events(TraceJson({&stream}));
}

TEST(TraceTest, EmptyRecorderStillParses) {
  Book book(/*trace=*/true);
  EXPECT_EQ(Events(book.TraceJson()).size(), 0u);
  EXPECT_EQ(book.num_trace_events(), 0u);
  EXPECT_EQ(book.num_cells(), 0u);
}

TEST(TraceTest, CompleteSpanRoundTripsThroughJson) {
  TraceStream stream("cell-0000", /*pid_base=*/0, /*num_pids=*/2,
                     /*id_base=*/0);
  TraceArgs args;
  args.Set("split", 7).Set("local", true).Set("policy", "LA");
  stream.Complete(/*ts=*/1.5, /*dur=*/0.25, /*pid=*/1, /*tid=*/3,
                  "map j1/s7", "map", args);

  std::vector<JsonValue> events = Events(stream);
  ASSERT_EQ(events.size(), 1u);
  const JsonValue& e = events[0];
  EXPECT_EQ(e.StringOr("ph", ""), "X");
  EXPECT_EQ(e.StringOr("name", ""), "map j1/s7");
  EXPECT_EQ(e.StringOr("cat", ""), "map");
  // Simulated seconds are rendered as microseconds.
  EXPECT_DOUBLE_EQ(e.NumberOr("ts", -1.0), 1.5e6);
  EXPECT_DOUBLE_EQ(e.NumberOr("dur", -1.0), 0.25e6);
  EXPECT_DOUBLE_EQ(e.NumberOr("pid", -1.0), 1.0);
  EXPECT_DOUBLE_EQ(e.NumberOr("tid", -1.0), 3.0);
  const JsonValue* a = e.Find("args");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->NumberOr("split", -1.0), 7.0);
  EXPECT_EQ(a->StringOr("policy", ""), "LA");
  ASSERT_NE(a->Find("local"), nullptr);
  EXPECT_TRUE(a->Find("local")->bool_value);
}

TEST(TraceTest, AsyncPairShareCategoryAndId) {
  TraceStream stream("cell", /*pid_base=*/0, /*num_pids=*/1,
                     /*id_base=*/0);
  stream.AsyncBegin(0.0, /*id=*/42, /*pid=*/0, "job 42", "job");
  stream.AsyncEnd(9.0, /*id=*/42, /*pid=*/0, "job 42", "job");

  std::vector<JsonValue> events = Events(stream);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].StringOr("ph", ""), "b");
  EXPECT_EQ(events[1].StringOr("ph", ""), "e");
  EXPECT_EQ(events[0].StringOr("cat", ""), events[1].StringOr("cat", ""));
  EXPECT_DOUBLE_EQ(events[0].NumberOr("id", -1.0),
                   events[1].NumberOr("id", -2.0));
}

TEST(TraceTest, InstantAndCounterEvents) {
  TraceStream stream("cell", /*pid_base=*/0, /*num_pids=*/1,
                     /*id_base=*/0);
  TraceArgs args;
  args.Set("selectivity_estimate", 0.001);
  stream.Instant(2.0, 0, 0, "provider.decision", "provider", args);
  stream.Counter(3.0, 0, "map_slots", "used", 4.0);

  std::vector<JsonValue> events = Events(stream);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].StringOr("ph", ""), "i");
  EXPECT_EQ(events[0].StringOr("s", ""), "t");  // thread-scoped instant
  EXPECT_DOUBLE_EQ(
      events[0].Find("args")->NumberOr("selectivity_estimate", -1.0), 0.001);
  EXPECT_EQ(events[1].StringOr("ph", ""), "C");
  EXPECT_DOUBLE_EQ(events[1].Find("args")->NumberOr("used", -1.0), 4.0);
}

TEST(TraceTest, MetadataEventsNameTracks) {
  TraceStream stream("cell-0001", /*pid_base=*/0, /*num_pids=*/1,
                     /*id_base=*/0);
  stream.ProcessName(0, "cell-0001 node0");
  stream.ThreadName(0, 2, "slot2");

  std::vector<JsonValue> events = Events(stream);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].StringOr("ph", ""), "M");
  EXPECT_EQ(events[0].StringOr("name", ""), "process_name");
  EXPECT_EQ(events[0].Find("args")->StringOr("name", ""), "cell-0001 node0");
  EXPECT_EQ(events[1].StringOr("name", ""), "thread_name");
  EXPECT_EQ(events[1].Find("args")->StringOr("name", ""), "slot2");
  EXPECT_DOUBLE_EQ(events[1].NumberOr("tid", -1.0), 2.0);
}

TEST(TraceTest, StreamsGetDisjointPidAndIdRanges) {
  Book book(/*trace=*/true);
  // Two nodes plus the client track, then one node plus the client.
  TraceStream* first = book.NewCell(/*num_nodes=*/2, /*slots=*/1)->trace();
  TraceStream* second = book.NewCell(/*num_nodes=*/1, /*slots=*/1)->trace();
  EXPECT_EQ(book.num_cells(), 2u);

  // Both cells record "their" pid 0 and async id 7; the file must keep
  // them apart.
  first->Complete(0.0, 1.0, 0, 0, "map", "map");
  second->Complete(0.0, 1.0, 0, 0, "map", "map");
  first->AsyncBegin(0.0, 7, 0, "job", "job");
  second->AsyncBegin(0.0, 7, 0, "job", "job");

  // Output groups events per cell in creation order, each cell's track
  // names first: [a.Complete, a.AsyncBegin, b.Complete, b.AsyncBegin].
  std::vector<JsonValue> events;
  for (JsonValue& e : Events(book.TraceJson())) {
    if (e.StringOr("ph", "") != "M") events.push_back(std::move(e));
  }
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events[0].NumberOr("pid", -1.0), 0.0);
  EXPECT_DOUBLE_EQ(events[2].NumberOr("pid", -1.0), 3.0);  // after cell a's 3
  double id_a = events[1].NumberOr("id", -1.0);
  double id_b = events[3].NumberOr("id", -1.0);
  EXPECT_NE(id_a, id_b);
  EXPECT_DOUBLE_EQ(id_b - id_a, 4294967296.0);  // 2^32 id namespace stride
}

}  // namespace
}  // namespace dmr::obs
