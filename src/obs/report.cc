#include "obs/report.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"

namespace dmr::obs {

using json::JsonNumber;
using json::JsonQuote;

namespace {

std::string Fixed(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

void Pad(std::string* line, size_t width) {
  while (line->size() < width) line->push_back(' ');
}

}  // namespace

void Report::SetInfo(std::string_view key, std::string_view value) {
  info_.push_back(
      {std::string(key), std::string(value), JsonQuote(value)});
}

void Report::SetInfo(std::string_view key, int64_t value) {
  std::string s = std::to_string(value);
  info_.push_back({std::string(key), s, s});
}

void Report::SetInfo(std::string_view key, double value) {
  std::string s = JsonNumber(value);
  info_.push_back({std::string(key), Fixed(value), s});
}

void Report::SetSnapshot(Metrics::Snapshot snapshot) {
  snapshot_ = std::move(snapshot);
}

void Report::AddJsonSection(std::string_view name, std::string json) {
  sections_.emplace_back(std::string(name), std::move(json));
}

std::string Report::ToText() const {
  std::string out;

  if (!info_.empty()) {
    out += "== run ==\n";
    size_t key_w = 0;
    for (const auto& e : info_) key_w = std::max(key_w, e.key.size());
    for (const auto& e : info_) {
      std::string line = "  " + e.key;
      Pad(&line, key_w + 4);
      out += line + e.text + "\n";
    }
  }

  if (!snapshot_.counters.empty()) {
    out += "== counters ==\n";
    size_t key_w = 0;
    for (const auto& [name, _] : snapshot_.counters) {
      key_w = std::max(key_w, name.size());
    }
    for (const auto& [name, value] : snapshot_.counters) {
      std::string line = "  " + name;
      Pad(&line, key_w + 4);
      out += line + std::to_string(value) + "\n";
    }
  }

  if (!snapshot_.gauges.empty()) {
    out += "== gauges ==\n";
    size_t key_w = 0;
    for (const auto& [name, _] : snapshot_.gauges) {
      key_w = std::max(key_w, name.size());
    }
    for (const auto& [name, value] : snapshot_.gauges) {
      std::string line = "  " + name;
      Pad(&line, key_w + 4);
      out += line + Fixed(value) + "\n";
    }
  }

  if (!snapshot_.histograms.empty()) {
    out += "== latency histograms ==\n";
    size_t key_w = 0;
    for (const auto& h : snapshot_.histograms) {
      key_w = std::max(key_w, h.name.size() + h.unit.size() + 3);
    }
    for (const auto& h : snapshot_.histograms) {
      std::string line = "  " + h.name + " (" + h.unit + ")";
      Pad(&line, key_w + 4);
      out += line + "count=" + std::to_string(h.count) +
             " mean=" + Fixed(h.mean) + " p50=" + Fixed(h.p50) +
             " p95=" + Fixed(h.p95) + " p99=" + Fixed(h.p99) +
             " max=" + Fixed(h.max) + "\n";
    }
  }

  // Raw JSON sections are only rendered in full by ToJson(); surface their
  // presence here so a text report never hides data silently.
  if (!sections_.empty()) {
    out += "== sections (see --metrics JSON) ==\n";
    size_t key_w = 0;
    for (const auto& [name, _] : sections_) {
      key_w = std::max(key_w, name.size());
    }
    for (const auto& [name, json] : sections_) {
      std::string line = "  " + name;
      Pad(&line, key_w + 4);
      out += line + std::to_string(json.size()) + " bytes\n";
    }
  }

  return out;
}

std::string Report::ToJson() const {
  std::string out = "{\n";

  out += "  \"info\": {";
  for (size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(info_[i].key) + ": " + info_[i].json;
  }
  out += "},\n";

  out += "  \"counters\": {";
  for (size_t i = 0; i < snapshot_.counters.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(snapshot_.counters[i].first) + ": " +
           std::to_string(snapshot_.counters[i].second);
  }
  out += "},\n";

  out += "  \"gauges\": {";
  for (size_t i = 0; i < snapshot_.gauges.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(snapshot_.gauges[i].first) + ": " +
           JsonNumber(snapshot_.gauges[i].second);
  }
  out += "},\n";

  out += "  \"histograms\": [";
  for (size_t i = 0; i < snapshot_.histograms.size(); ++i) {
    const auto& h = snapshot_.histograms[i];
    if (i > 0) out += ",";
    out += "\n    {\"name\": " + JsonQuote(h.name) +
           ", \"unit\": " + JsonQuote(h.unit) +
           ", \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + JsonNumber(h.sum) +
           ", \"min\": " + JsonNumber(h.min) +
           ", \"max\": " + JsonNumber(h.max) +
           ", \"mean\": " + JsonNumber(h.mean) +
           ", \"p50\": " + JsonNumber(h.p50) +
           ", \"p95\": " + JsonNumber(h.p95) +
           ", \"p99\": " + JsonNumber(h.p99) + "}";
  }
  out += snapshot_.histograms.empty() ? "],\n" : "\n  ],\n";

  // No program attaches resource series; the key stays for readers.
  out += "  \"series\": []";

  for (const auto& [name, value] : sections_) {
    out += ",\n  " + JsonQuote(name) + ": " + value;
  }
  out += "\n}\n";
  return out;
}

Status Report::WriteJson(const std::string& path) const {
  std::string text = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace dmr::obs
