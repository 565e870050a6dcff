#include "prof/prof.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

// The prof seam is the sanctioned home for raw monotonic-clock reads
// (DESIGN.md §17): prof timings never feed a digest-checked output.
// dmr-lint: allow(wall-clock) prof seam wraps the raw clock (DESIGN.md §17)
#include <chrono>

namespace dmr::prof {

namespace {

// ---------------------------------------------------------------------------
// Phase registry: dense ids for (subsystem, phase) names. Registration is
// rare (static locals at call sites); lookups after that are array indexing.
// ---------------------------------------------------------------------------

struct PhaseRegistry {
  std::mutex mu;
  std::vector<std::string> names;           // id -> "subsystem.phase"
  std::map<std::string, PhaseId> by_name;   // name -> id
};

PhaseRegistry& Phases() {
  static PhaseRegistry* r = new PhaseRegistry();  // leaked: outlives threads
  return *r;
}

// ---------------------------------------------------------------------------
// Per-thread timer trees. The registry owns every state (so trees survive
// thread exit — LocalRuntime's pool workers are born and die per query); the
// owning thread touches its state without locks. Collect()/ResetForTest()
// synchronize with worker threads through the g_enabled acquire/release
// flag plus the quiesced-call contract in the header.
// ---------------------------------------------------------------------------

constexpr uint32_t kNoNode = 0xffffffffu;

struct Node {
  PhaseId phase = -1;
  uint32_t first_child = kNoNode;
  uint32_t next_sibling = kNoNode;
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t min_ns = ~0ull;
  uint64_t max_ns = 0;
};

struct Frame {
  uint32_t node;
  uint64_t start_ns;
};

struct ThreadState {
  std::vector<Node> nodes;    // nodes[0] is the virtual root
  std::vector<Frame> stack;
  uint64_t unmatched_ends = 0;

  ThreadState() { nodes.emplace_back(); }

  void Clear() {
    nodes.clear();
    nodes.emplace_back();
    stack.clear();
    unmatched_ends = 0;
  }

  uint32_t ChildOf(uint32_t parent, PhaseId phase) {
    for (uint32_t c = nodes[parent].first_child; c != kNoNode;
         c = nodes[c].next_sibling) {
      if (nodes[c].phase == phase) return c;
    }
    uint32_t id = static_cast<uint32_t>(nodes.size());
    Node fresh;
    fresh.phase = phase;
    fresh.next_sibling = nodes[parent].first_child;
    nodes.push_back(fresh);
    nodes[parent].first_child = id;
    return id;
  }
};

struct StateRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadState>> states;
};

StateRegistry& States() {
  static StateRegistry* r = new StateRegistry();  // leaked: outlives threads
  return *r;
}

ThreadState& LocalState() {
  thread_local ThreadState* state = [] {
    auto owned = std::make_unique<ThreadState>();
    ThreadState* raw = owned.get();
    StateRegistry& reg = States();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.states.push_back(std::move(owned));
    return raw;
  }();
  return *state;
}

// Per-frame clock-pair overhead, measured once at first Enable() and
// subtracted from every recorded duration (clamped at zero) so that ~100 ns
// phases are not dominated by the instrument itself.
double g_calibration_ns = 0.0;
std::once_flag g_calibrate_once;

// Allocation accounting: fixed sites, relaxed atomics.
struct AllocCounters {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> bytes{0};
};
std::array<AllocCounters, static_cast<size_t>(AllocSite::kNumSites)>
    g_alloc_counters;

constexpr std::array<std::string_view,
                     static_cast<size_t>(AllocSite::kNumSites)>
    kAllocSiteNames = {
        "sim.arena.chunk",        "sim.arena.large",
        "sim.callback.spill",     "exec.columnar.build",
        "tpch.dataset_cache.build", "tpch.dataset_cache.hit",
};

void Calibrate() {
  // Median cost of a Begin/End clock pair, from 257 back-to-back samples.
  constexpr int kSamples = 257;
  std::vector<uint64_t> deltas;
  deltas.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    uint64_t a = NowNanos();
    uint64_t b = NowNanos();
    deltas.push_back(b - a);
  }
  std::nth_element(deltas.begin(), deltas.begin() + kSamples / 2,
                   deltas.end());
  g_calibration_ns = static_cast<double>(deltas[kSamples / 2]);
}

// ---------------------------------------------------------------------------
// Merging: fold every thread tree into one name-keyed tree, then flatten to
// path-sorted PhaseStats with self time computed from direct children.
// ---------------------------------------------------------------------------

struct MergedNode {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t min_ns = ~0ull;
  uint64_t max_ns = 0;
  std::map<std::string, MergedNode> children;  // ordered => deterministic
};

void MergeInto(const ThreadState& state, uint32_t node_id, MergedNode* out) {
  const Node& node = state.nodes[node_id];
  for (uint32_t c = node.first_child; c != kNoNode;
       c = state.nodes[c].next_sibling) {
    const Node& child = state.nodes[c];
    MergedNode& slot = out->children[PhaseName(child.phase)];
    slot.count += child.count;
    slot.total_ns += child.total_ns;
    slot.min_ns = std::min(slot.min_ns, child.min_ns);
    slot.max_ns = std::max(slot.max_ns, child.max_ns);
    MergeInto(state, c, &slot);
  }
}

void Flatten(const MergedNode& node, const std::string& prefix,
             std::vector<PhaseStat>* out) {
  for (const auto& [name, child] : node.children) {
    std::string path = prefix.empty() ? name : prefix + ";" + name;
    uint64_t child_total = 0;
    for (const auto& [gname, grand] : child.children) {
      (void)gname;
      child_total += grand.total_ns;
    }
    PhaseStat stat;
    stat.path = path;
    stat.count = child.count;
    stat.total_ns = child.total_ns;
    stat.self_ns =
        child.total_ns > child_total ? child.total_ns - child_total : 0;
    stat.min_ns = child.min_ns == ~0ull ? 0 : child.min_ns;
    stat.max_ns = child.max_ns;
    out->push_back(std::move(stat));
    Flatten(child, path, out);
  }
}

void AppendJsonUint(std::string* out, const char* key, uint64_t value,
                    bool trailing_comma) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%llu%s", key,
                static_cast<unsigned long long>(value),
                trailing_comma ? "," : "");
  *out += buf;
}

}  // namespace

namespace internal {

std::atomic<bool> g_enabled{false};

void Begin(PhaseId id) {
  ThreadState& state = LocalState();
  uint32_t parent = state.stack.empty() ? 0 : state.stack.back().node;
  uint32_t node = state.ChildOf(parent, id);
  state.stack.push_back(Frame{node, NowNanos()});
}

void End(uint64_t count_delta) {
  uint64_t now = NowNanos();
  ThreadState& state = LocalState();
  if (state.stack.empty()) {
    ++state.unmatched_ends;
    return;
  }
  Frame frame = state.stack.back();
  state.stack.pop_back();
  double raw = static_cast<double>(now - frame.start_ns) - g_calibration_ns;
  uint64_t d = raw > 0.0 ? static_cast<uint64_t>(raw) : 0;
  Node& node = state.nodes[frame.node];
  node.count += count_delta;
  node.total_ns += d;
  node.min_ns = std::min(node.min_ns, d);
  node.max_ns = std::max(node.max_ns, d);
}

}  // namespace internal

PhaseId RegisterPhase(std::string_view subsystem, std::string_view phase) {
  std::string name;
  name.reserve(subsystem.size() + 1 + phase.size());
  name.append(subsystem);
  name.push_back('.');
  name.append(phase);
  PhaseRegistry& reg = Phases();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto [it, inserted] =
      reg.by_name.emplace(name, static_cast<PhaseId>(reg.names.size()));
  if (inserted) reg.names.push_back(std::move(name));
  return it->second;
}

const std::string& PhaseName(PhaseId id) {
  PhaseRegistry& reg = Phases();
  std::lock_guard<std::mutex> lock(reg.mu);
  static const std::string kUnknown = "<unknown>";
  if (id < 0 || static_cast<size_t>(id) >= reg.names.size()) return kUnknown;
  return reg.names[static_cast<size_t>(id)];
}

void Enable() {
  std::call_once(g_calibrate_once, Calibrate);
  internal::g_enabled.store(true, std::memory_order_release);
}

void Disable() {
  internal::g_enabled.store(false, std::memory_order_release);
}

uint64_t NowNanos() {
  // dmr-lint: allow(wall-clock) the prof seam itself (DESIGN.md §17)
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string_view AllocSiteName(AllocSite site) {
  return kAllocSiteNames[static_cast<size_t>(site)];
}

void AccountAlloc(AllocSite site, uint64_t count, uint64_t bytes) {
  if (!Enabled()) return;
  AllocCounters& c = g_alloc_counters[static_cast<size_t>(site)];
  c.count.fetch_add(count, std::memory_order_relaxed);
  c.bytes.fetch_add(bytes, std::memory_order_relaxed);
}

const PhaseStat* ProfReport::FindPhase(std::string_view path) const {
  for (const PhaseStat& stat : phases) {
    if (stat.path == path) return &stat;
  }
  return nullptr;
}

ProfReport Collect() {
  ProfReport report;
  report.calibration_ns = g_calibration_ns;
  MergedNode root;
  StateRegistry& reg = States();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& state : reg.states) {
    bool touched = state->nodes.size() > 1 || state->unmatched_ends > 0 ||
                   !state->stack.empty();
    if (!touched) continue;
    ++report.threads;
    report.imbalances += static_cast<int>(state->stack.size()) +
                         static_cast<int>(state->unmatched_ends);
    MergeInto(*state, 0, &root);
  }
  Flatten(root, "", &report.phases);
  for (size_t i = 0; i < g_alloc_counters.size(); ++i) {
    uint64_t count = g_alloc_counters[i].count.load(std::memory_order_relaxed);
    uint64_t bytes = g_alloc_counters[i].bytes.load(std::memory_order_relaxed);
    if (count == 0 && bytes == 0) continue;
    AllocStat stat;
    stat.site = std::string(kAllocSiteNames[i]);
    stat.count = count;
    stat.bytes = bytes;
    report.alloc.push_back(std::move(stat));
  }
  return report;
}

void ResetForTest() {
  StateRegistry& reg = States();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& state : reg.states) state->Clear();
  for (auto& counters : g_alloc_counters) {
    counters.count.store(0, std::memory_order_relaxed);
    counters.bytes.store(0, std::memory_order_relaxed);
  }
}

std::string ToJson(const ProfReport& report) {
  std::string out = "{";
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"calibration_ns\":%.3f,",
                report.calibration_ns);
  out += buf;
  std::snprintf(buf, sizeof buf, "\"threads\":%d,\"imbalances\":%d,",
                report.threads, report.imbalances);
  out += buf;
  out += "\"phases\":[";
  for (size_t i = 0; i < report.phases.size(); ++i) {
    const PhaseStat& p = report.phases[i];
    if (i > 0) out += ",";
    out += "{\"path\":\"" + p.path + "\",";
    AppendJsonUint(&out, "count", p.count, true);
    AppendJsonUint(&out, "total_ns", p.total_ns, true);
    AppendJsonUint(&out, "self_ns", p.self_ns, true);
    AppendJsonUint(&out, "min_ns", p.min_ns, true);
    AppendJsonUint(&out, "max_ns", p.max_ns, false);
    out += "}";
  }
  out += "],\"alloc\":[";
  for (size_t i = 0; i < report.alloc.size(); ++i) {
    const AllocStat& a = report.alloc[i];
    if (i > 0) out += ",";
    out += "{\"site\":\"" + a.site + "\",";
    AppendJsonUint(&out, "count", a.count, true);
    AppendJsonUint(&out, "bytes", a.bytes, false);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string ToCollapsed(const ProfReport& report) {
  std::string out;
  for (const PhaseStat& p : report.phases) {
    out += p.path;
    out += ' ';
    out += std::to_string(p.self_ns);
    out += '\n';
  }
  return out;
}

Result<ProfReport> ParseCollapsed(std::string_view text) {
  ProfReport report;
  size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0 ||
        space + 1 >= line.size()) {
      return Status::ParseError("collapsed stack line " +
                                std::to_string(line_no) +
                                ": expected \"path value\"");
    }
    PhaseStat stat;
    stat.path = std::string(line.substr(0, space));
    uint64_t value = 0;
    for (size_t i = space + 1; i < line.size(); ++i) {
      char c = line[i];
      if (c < '0' || c > '9') {
        return Status::ParseError("collapsed stack line " +
                                  std::to_string(line_no) +
                                  ": non-numeric value");
      }
      value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    stat.self_ns = value;
    stat.total_ns = value;
    report.phases.push_back(std::move(stat));
  }
  std::sort(report.phases.begin(), report.phases.end(),
            [](const PhaseStat& a, const PhaseStat& b) {
              return a.path < b.path;
            });
  return report;
}

}  // namespace dmr::prof
