#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <limits>
#include <utility>

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "e2e.hpp"
#include "obs/perf_ledger.hpp"

namespace booterscope::e2e {

void Result::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double weight = position - static_cast<double>(below);
  return values[below] + weight * (values[above] - values[below]);
}

double process_cpu_seconds() noexcept {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_seconds() noexcept {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mib() noexcept {
  return static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

std::size_t reps_for(double seconds, double nominal_s) noexcept {
  return static_cast<std::size_t>(std::max(1.0, std::round(seconds / nominal_s)));
}

double reset_peak_rss() noexcept {
#if defined(__GLIBC__)
  // Hand what set-up freed back to the kernel first, or it stays resident
  // and sets the floor of the new peak.
  malloc_trim(0);
#endif
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return 0.0;
  const bool written = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && written ? peak_rss_mib() : 0.0;
}

double per_unit_ns(double seconds, double units) noexcept {
  return units > 0.0 ? seconds * 1e9 / units : 0.0;
}

WorldSamples::WorldSamples(std::size_t worlds)
    : best_wall_s_(worlds, std::numeric_limits<double>::infinity()),
      items_(worlds, 0.0) {}

void WorldSamples::add(std::size_t world, double wall_s, double items) {
  best_wall_s_[world] = std::min(best_wall_s_[world], wall_s);
  items_[world] = items;
}

void WorldSamples::report(Result& result, double setup_s) const {
  double wall_s = 0.0;
  double items = 0.0;
  for (std::size_t world = 0; world < items_.size(); ++world) {
    wall_s += best_wall_s_[world];
    items += items_[world];
  }
  result.add("setup_s", setup_s, "s");
  result.add("items_per_s", items / wall_s, "1/s");
}

namespace {

template <typename Fn>
void visit(const obs::StageNode& node, Fn& fn) {
  fn(node);
  for (const auto& child : node.children) visit(*child, fn);
}

std::uint64_t self_nanos(const obs::StageNode& node) {
  std::uint64_t children = 0;
  for (const auto& child : node.children) children += child->wall_nanos;
  return node.wall_nanos > children ? node.wall_nanos - children : 0;
}

}  // namespace

double stage_self_seconds(const obs::StageTracer& tracer, std::string_view name) {
  std::uint64_t nanos = 0;
  auto sum = [&](const obs::StageNode& node) {
    if (node.name == name) nanos += self_nanos(node);
  };
  visit(tracer.root(), sum);
  return static_cast<double>(nanos) / 1e9;
}

double stage_total_seconds(const obs::StageTracer& tracer, std::string_view name) {
  std::uint64_t nanos = 0;
  auto sum = [&](const obs::StageNode& node) {
    if (node.name == name) nanos += node.wall_nanos;
  };
  visit(tracer.root(), sum);
  return static_cast<double>(nanos) / 1e9;
}

std::uint64_t stage_items_out(const obs::StageTracer& tracer, std::string_view name) {
  std::uint64_t items = 0;
  auto sum = [&](const obs::StageNode& node) {
    if (node.name == name) items += node.items_out;
  };
  visit(tracer.root(), sum);
  return items;
}

}  // namespace booterscope::e2e
