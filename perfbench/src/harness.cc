#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::clamp<size_t>(rank, 1, n);
}

std::vector<double> FixedRateSchedule(double rate_per_s, double seconds) {
  std::vector<double> schedule;
  const double interval = 1.0 / rate_per_s;
  // Multiplying, not accumulating, keeps the last arrival exact.
  for (size_t i = 1; static_cast<double>(i) * interval < seconds; ++i) {
    schedule.push_back(static_cast<double>(i) * interval);
  }
  return schedule;
}

std::vector<Dispatch> RunOpenLoop(const std::vector<double>& schedule,
                                  size_t threads,
                                  const std::function<void(size_t)>& issue) {
  using Clock = std::chrono::steady_clock;
  std::vector<Dispatch> dispatches(schedule.size());
  std::atomic<size_t> next{0};
  // Lead-in so the first arrival is not late before any sender is running.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto since_start = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  auto sender = [&] {
    for (size_t i = next.fetch_add(1); i < schedule.size();
         i = next.fetch_add(1)) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(schedule[i])));
      Dispatch& d = dispatches[i];
      d.scheduled = schedule[i];
      d.sent = since_start(Clock::now());
      issue(i);
      d.done = since_start(Clock::now());
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(threads, 1); ++t) {
    pool.emplace_back(sender);
  }
  for (std::thread& t : pool) t.join();
  return dispatches;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks ticks;
  if (label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
  // time is already inside user, so only the first eight are summed.
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealFraction(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

SliceRecorder::SliceRecorder(double slice_s, size_t num_slices,
                             std::function<double()> read_cpu,
                             std::function<CpuTicks()> read_ticks)
    : slice_s_(slice_s),
      num_slices_(num_slices),
      read_cpu_(std::move(read_cpu)),
      read_ticks_(std::move(read_ticks)) {
  marks_.push_back({read_cpu_(), 0, read_ticks_()});
}

void SliceRecorder::MarkThrough(size_t through) {
  through = std::min(through, num_slices_);
  if (marks_.size() > through) return;
  const Mark mark{read_cpu_(), completed_, read_ticks_()};
  while (marks_.size() <= through) marks_.push_back(mark);
}

void SliceRecorder::Complete(double now_s) {
  std::lock_guard<std::mutex> lock(mu_);
  MarkThrough(static_cast<size_t>(std::max(0.0, std::floor(now_s / slice_s_))));
  ++completed_;
}

void SliceRecorder::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  MarkThrough(num_slices_);
}

std::vector<SliceRecorder::Slice> SliceRecorder::Slices() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Slice> slices(num_slices_);
  for (size_t k = 0; k + 1 < marks_.size(); ++k) {
    const Mark& from = marks_[k];
    const Mark& to = marks_[k + 1];
    Slice& slice = slices[k];
    slice.completions = to.completions - from.completions;
    if (slice.completions > 0) {
      slice.cpu_s_per_completion =
          (to.cpu_s - from.cpu_s) / static_cast<double>(slice.completions);
    }
    slice.steal_frac = StealFraction(from.ticks, to.ticks);
  }
  return slices;
}

std::vector<size_t> LeastStolenHalf(const std::vector<SliceRecorder::Slice>& slices) {
  std::vector<size_t> order(slices.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return slices[a].steal_frac < slices[b].steal_frac;
  });
  order.resize((slices.size() + 1) / 2);
  std::sort(order.begin(), order.end());
  return order;
}

double MedianOfSlicePercentiles(const std::vector<std::vector<double>>& by_slice,
                                const std::vector<size_t>& chosen, double q) {
  std::vector<double> per_slice;
  for (size_t k : chosen) {
    if (!by_slice[k].empty()) per_slice.push_back(Percentile(by_slice[k], q));
  }
  return Percentile(std::move(per_slice), 0.5);
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

std::string RenderResultJson(bool correct, uint64_t attempted, uint64_t failed,
                             const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    // Names and units are checked identifiers ([A-Za-z0-9_.-] and unit
    // strings chosen in code), so they need no JSON escaping.
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
