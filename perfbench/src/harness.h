// Workload-independent pieces of the serving benchmark: percentiles with
// their sample counts, the open-loop dispatcher, process resource probes,
// and the result JSON. Kept free of dppr types so the benchmark's own tests
// can exercise them without building an index.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the value at 1-based rank ceil(q * n) of the
/// sorted samples (q in (0, 1]). Takes the samples by value and selects with
/// nth_element, so callers keep their arrival-ordered vectors. 0 when empty.
double Percentile(std::vector<double> samples, double q);

/// Samples ranked strictly above the nearest-rank q-percentile: the tail a
/// percentile rests on. A p99 is trustworthy when this is at least 10.
size_t SamplesBeyond(size_t n, double q);

/// Arrival times in seconds from the start of a phase: one request every
/// 1/rate_per_s seconds, the first one interval in, up to `seconds`.
std::vector<double> FixedRateSchedule(double rate_per_s, double seconds);

/// Timing of one dispatched request, in seconds from the phase start.
struct Dispatch {
  double scheduled = 0.0;
  double sent = 0.0;
  double done = 0.0;
  double Latency() const { return done - scheduled; }
  double Lateness() const { return sent - scheduled; }
};

/// Open-loop dispatcher: `threads` senders take requests in schedule order,
/// each sleeps until its request is due and then calls `issue(i)`. A sender
/// never waits for the server to catch up before taking the next due
/// request, but when every sender is blocked inside `issue`, due requests
/// wait — that delay is charged to them, because latency is measured from
/// the scheduled time, not from the send. Returns one Dispatch per request.
std::vector<Dispatch> RunOpenLoop(const std::vector<double>& schedule,
                                  size_t threads,
                                  const std::function<void(size_t)>& issue);

/// User + system CPU seconds of the whole process so far (getrusage).
double ProcessCpuSeconds();

/// Peak resident set of the process in MiB (VmHWM), 0 when unavailable.
double PeakRssMb();

/// Aggregate CPU time counters from /proc/stat (jiffies), for the share of
/// time the hypervisor stole from this VM during a phase.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();
/// steal / total between two readings; 0 when nothing elapsed.
double StealFraction(const CpuTicks& before, const CpuTicks& after);

/// Cuts a phase into `num_slices` slices of `slice_s` seconds and reads the
/// process CPU and the host's CPU ticks at every slice boundary, so each slice
/// gets its own CPU per completed request and its own steal share. Complete()
/// is called once per finished request, from any thread; the first
/// completion past a boundary takes that boundary's reading and counts in
/// the new slice. Close() at the end of the phase takes the readings of the
/// boundaries still open.
class SliceRecorder {
 public:
  struct Slice {
    uint64_t completions = 0;
    double cpu_s_per_completion = 0.0;
    double steal_frac = 0.0;
  };

  SliceRecorder(double slice_s, size_t num_slices,
                std::function<double()> read_cpu = ProcessCpuSeconds,
                std::function<CpuTicks()> read_ticks = ReadCpuTicks);
  /// `now_s`: seconds since the phase began.
  void Complete(double now_s);
  void Close();
  /// num_slices entries; slices never closed read zero.
  std::vector<Slice> Slices() const;

 private:
  struct Mark {
    double cpu_s = 0.0;
    uint64_t completions = 0;
    CpuTicks ticks;
  };
  /// Takes the readings of boundaries 1..`through` not yet taken; mu_ held.
  void MarkThrough(size_t through);

  const double slice_s_;
  const size_t num_slices_;
  const std::function<double()> read_cpu_;
  const std::function<CpuTicks()> read_ticks_;
  mutable std::mutex mu_;
  uint64_t completed_ = 0;
  /// marks_[b]: the readings at boundary b (b = 0 is the phase start).
  std::vector<Mark> marks_;
};

/// The ceil(n/2) slices with the least steal, in slice order (ties go to the
/// earlier slice). The gated figures are taken over these: on a shared host
/// they are the slices that measured the program rather than its neighbours.
std::vector<size_t> LeastStolenHalf(const std::vector<SliceRecorder::Slice>& slices);

/// Median over the `chosen` slices of each slice's q-percentile, where
/// by_slice[k] holds slice k's samples; empty chosen slices are skipped.
double MedianOfSlicePercentiles(const std::vector<std::vector<double>>& by_slice,
                                const std::vector<size_t>& chosen, double q);

/// True when `name` is a non-empty run of [A-Za-z0-9_.-].
bool ValidMetricName(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's final stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value","unit"}}}.
/// Values print with 17 significant digits; non-finite values print as null
/// (and fail any consumer that expects a number, which is the point).
std::string RenderResultJson(bool correct, uint64_t attempted, uint64_t failed,
                             const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
