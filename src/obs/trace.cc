#include "obs/trace.h"

#include <cstdio>

#include "common/json.h"

namespace dmr::obs {

using json::JsonNumber;
using json::JsonQuote;

namespace {

/// Renders a simulated-seconds timestamp as integer-ish microseconds (the
/// trace-event format's time unit). Three decimals keeps sub-microsecond
/// event ordering without bloating the file.
std::string Micros(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceArgs

TraceArgs& TraceArgs::Raw(std::string_view key, std::string rendered) {
  fields_.emplace_back(std::string(key), std::move(rendered));
  return *this;
}

TraceArgs& TraceArgs::Set(std::string_view key, std::string_view value) {
  return Raw(key, JsonQuote(value));
}
TraceArgs& TraceArgs::Set(std::string_view key, const char* value) {
  return Raw(key, JsonQuote(value));
}
TraceArgs& TraceArgs::Set(std::string_view key, double value) {
  return Raw(key, JsonNumber(value));
}
TraceArgs& TraceArgs::Set(std::string_view key, int value) {
  return Raw(key, std::to_string(value));
}
TraceArgs& TraceArgs::Set(std::string_view key, int64_t value) {
  return Raw(key, std::to_string(value));
}
TraceArgs& TraceArgs::Set(std::string_view key, uint64_t value) {
  return Raw(key, std::to_string(value));
}
TraceArgs& TraceArgs::Set(std::string_view key, bool value) {
  return Raw(key, value ? "true" : "false");
}

std::string TraceArgs::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(fields_[i].first) + ": " + fields_[i].second;
  }
  out += "}";
  return out;
}

// ---------------------------------------------------------------------------
// TraceStream

std::string TraceStream::Header(char ph, double ts, int pid, int tid,
                                std::string_view name,
                                std::string_view cat) const {
  std::string out = "{\"ph\": \"";
  out += ph;
  out += "\", \"ts\": " + Micros(ts);
  out += ", \"pid\": " + std::to_string(pid_base_ + pid);
  out += ", \"tid\": " + std::to_string(tid);
  out += ", \"name\": " + JsonQuote(name);
  if (!cat.empty()) out += ", \"cat\": " + JsonQuote(cat);
  return out;
}

void TraceStream::ProcessName(int pid, std::string_view name) {
  std::string ev = "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " +
                   std::to_string(pid_base_ + pid) +
                   ", \"args\": {\"name\": " + JsonQuote(name) + "}}";
  Push(std::move(ev));
}

void TraceStream::ThreadName(int pid, int tid, std::string_view name) {
  std::string ev = "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " +
                   std::to_string(pid_base_ + pid) +
                   ", \"tid\": " + std::to_string(tid) +
                   ", \"args\": {\"name\": " + JsonQuote(name) + "}}";
  Push(std::move(ev));
}

void TraceStream::Complete(double ts, double dur, int pid, int tid,
                           std::string_view name, std::string_view cat,
                           const TraceArgs& args) {
  std::string ev = Header('X', ts, pid, tid, name, cat);
  ev += ", \"dur\": " + Micros(dur);
  if (!args.empty()) ev += ", \"args\": " + args.ToJson();
  ev += "}";
  Push(std::move(ev));
}

void TraceStream::AsyncBegin(double ts, uint64_t id, int pid,
                             std::string_view name, std::string_view cat,
                             const TraceArgs& args) {
  std::string ev = Header('b', ts, pid, 0, name, cat);
  ev += ", \"id\": " + std::to_string(id_base_ + id);
  if (!args.empty()) ev += ", \"args\": " + args.ToJson();
  ev += "}";
  Push(std::move(ev));
}

void TraceStream::AsyncEnd(double ts, uint64_t id, int pid,
                           std::string_view name, std::string_view cat,
                           const TraceArgs& args) {
  std::string ev = Header('e', ts, pid, 0, name, cat);
  ev += ", \"id\": " + std::to_string(id_base_ + id);
  if (!args.empty()) ev += ", \"args\": " + args.ToJson();
  ev += "}";
  Push(std::move(ev));
}

void TraceStream::Instant(double ts, int pid, int tid, std::string_view name,
                          std::string_view cat, const TraceArgs& args) {
  std::string ev = Header('i', ts, pid, tid, name, cat);
  ev += ", \"s\": \"t\"";
  if (!args.empty()) ev += ", \"args\": " + args.ToJson();
  ev += "}";
  Push(std::move(ev));
}

void TraceStream::Counter(double ts, int pid, std::string_view name,
                          std::string_view series, double value) {
  std::string ev = Header('C', ts, pid, 0, name, /*cat=*/"");
  ev += ", \"args\": {" + JsonQuote(series) + ": " + JsonNumber(value) + "}}";
  Push(std::move(ev));
}

// ---------------------------------------------------------------------------

std::string TraceJson(const std::vector<const TraceStream*>& streams) {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (const TraceStream* stream : streams) {
    for (const std::string& event : stream->events()) {
      if (!first) out += ",\n";
      first = false;
      out += event;
    }
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

}  // namespace dmr::obs
