/// \file
/// Measurement helpers and the traced run's instrumentation: spans kept in
/// memory, a counting global operator new, and a view of the profiler's
/// existing phases. Host clocks are read here on purpose: measuring host
/// time is what the benchmark is for, and none of it feeds a simulation.

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>

#include "perfbench/perfbench.h"
#include "prof/prof.h"

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The replaceable allocation functions. libstdc++ routes the array and
// nothrow forms through these, so every `new` in the process is counted.
void* operator new(std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dmr::perfbench {

void ArmAllocCounting(bool armed) {
  g_count_allocs.store(armed, std::memory_order_relaxed);
}

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // dmr-lint: allow(wall-clock) host time is what a benchmark measures
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  // dmr-lint: allow(wall-clock) host CPU time is what a benchmark measures
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::pair<double, double> TailPercentile(const Histogram& samples) {
  const double n = static_cast<double>(samples.count());
  for (double q : {99.99, 99.9, 99.0, 90.0}) {
    if (n * (1.0 - q / 100.0) >= 10.0) return {q, samples.Percentile(q)};
  }
  return {50.0, samples.Median()};
}

std::string Digest(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Format("%016llx", static_cast<unsigned long long>(h));
}

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t x = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^ (b * 0xC2B2AE3D27D4EB4FULL);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Begin(const char* name, uint64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.allocs = AllocCount();
  span.start_ns = NowNs();
  spans_.push_back(span);
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  if (index < 0) return;
  Span& span = spans_[index];
  span.end_ns = NowNs();
  span.allocs = AllocCount() - span.allocs;
  if (span.parent >= 0) {
    spans_[span.parent].child_ns += span.end_ns - span.start_ns;
  }
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, Tracer::Stat> Tracer::Aggregate() const {
  std::map<std::string, Stat> stats;
  for (const Span& span : spans_) {
    if (span.end_ns == 0) continue;  // still open
    Stat& stat = stats[span.name];
    double duration = static_cast<double>(span.end_ns - span.start_ns);
    stat.count += 1;
    stat.total_ns += duration;
    stat.self_ns += duration - static_cast<double>(span.child_ns);
    stat.allocs += static_cast<double>(span.allocs);
    stat.durations_ns.Add(duration);
  }
  return stats;
}

std::vector<std::string> Tracer::Summary() const {
  std::vector<std::string> lines;
  for (const auto& [name, stat] : Aggregate()) {
    lines.push_back(Format(
        "span %-16s count=%llu total_ms=%.3f self_ms=%.3f mean_us=%.3f",
        name.c_str(), static_cast<unsigned long long>(stat.count),
        stat.total_ns / 1e6, stat.self_ns / 1e6,
        stat.total_ns / 1e3 / static_cast<double>(stat.count)));
  }
  return lines;
}

ProfView ProfView::Seal() {
  prof::Disable();
  prof::ProfReport report = prof::Collect();
  ProfView view;
  for (const prof::PhaseStat& phase : report.phases) {
    size_t cut = phase.path.rfind(';');
    std::string leaf =
        cut == std::string::npos ? phase.path : phase.path.substr(cut + 1);
    PhaseTotals& totals = view.phases_[leaf];
    totals.self_ms += static_cast<double>(phase.self_ns) / 1e6;
    totals.count += static_cast<double>(phase.count);
  }
  for (const prof::AllocStat& site : report.alloc) {
    view.alloc_[site.site] += static_cast<double>(site.count);
  }
  return view;
}

PhaseTotals ProfView::Phase(const std::string& phase) const {
  auto it = phases_.find(phase);
  return it == phases_.end() ? PhaseTotals{} : it->second;
}

double ProfView::AllocSiteCount(const std::string& site) const {
  auto it = alloc_.find(site);
  return it == alloc_.end() ? 0.0 : it->second;
}

}  // namespace dmr::perfbench
